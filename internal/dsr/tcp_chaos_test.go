package dsr

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/shard/chaos"
)

// bootReplicatedFleet boots R real TCP shard servers per partition
// (each replica with its own Shard instance, like independent
// processes) and a chaos proxy in front of every one. It returns the
// grouped "a|b"-style address specs pointing at the proxies, the
// proxies themselves (for Kill/Revive), and a stop function.
func bootReplicatedFleet(t testing.TB, g *graph.Graph, strat graph.Partitioner, k, R int,
	proxyOpts func(p, r int) chaos.ProxyOptions) ([]string, [][]*chaos.Proxy, func()) {
	t.Helper()
	pt, err := strat.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	specs := make([]string, k)
	proxies := make([][]*chaos.Proxy, k)
	var servers []*shard.Server
	var wg sync.WaitGroup
	stop := func() {
		for _, srv := range servers {
			srv.Close()
		}
		wg.Wait()
		for _, row := range proxies {
			for _, px := range row {
				px.Close()
			}
		}
	}
	for p := 0; p < k; p++ {
		var grouped []string
		for r := 0; r < R; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				stop()
				t.Fatal(err)
			}
			srv := shard.NewServer(shard.New(p, subs[p]), k, g.NumVertices(), g.Fingerprint(), pt.Digest())
			servers = append(servers, srv)
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.Serve(ln)
			}()
			px, err := chaos.NewProxy(ln.Addr().String(), proxyOpts(p, r))
			if err != nil {
				stop()
				t.Fatal(err)
			}
			proxies[p] = append(proxies[p], px)
			grouped = append(grouped, px.Addr())
		}
		specs[p] = strings.Join(grouped, "|")
	}
	return specs, proxies, stop
}

// TestChaosTCPDifferential is the over-real-TCP half of the chaos
// matrix: hash/range/locality × R∈{1,2,3}, with every replica but the
// first behind a proxy that delays frames and cuts connections
// mid-frame. Replica 0's proxy stays clean, so at least one replica
// per partition survives — and then every query must match the oracle
// with no error at all: mid-frame cuts must be absorbed by failover.
func TestChaosTCPDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	strategies := []graph.Partitioner{graph.Hash(), graph.Range(), locality.New(locality.Options{Seed: 20260730})}
	const k = 3
	for _, R := range []int{1, 2, 3} {
		for si, strat := range strategies {
			t.Run(fmt.Sprintf("R=%d/%s", R, strat.Name()), func(t *testing.T) {
				n := 30 + rng.Intn(70)
				g := randomGraph(rng, n, 2)
				seed := int64(100*R + si)
				specs, _, stop := bootReplicatedFleet(t, g, strat, k, R, func(p, r int) chaos.ProxyOptions {
					if r == 0 {
						return chaos.ProxyOptions{Seed: seed}
					}
					return chaos.ProxyOptions{Seed: seed + int64(10*p+r), CutProb: 0.15,
						DelayProb: 0.1, MaxDelay: time.Millisecond}
				})
				defer stop()

				e, err := Connect(t.Context(), ClusterSpec{Groups: specs})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for round := 0; round < 3; round++ {
					queries := make([]Query, 16)
					for i := range queries {
						queries[i] = Query{S: randomSet(rng, n, 5), T: randomSet(rng, n, 5)}
					}
					got, err := e.QueryBatchErr(queries)
					if err != nil {
						t.Fatalf("round %d: batch failed despite clean replica 0: %v", round, err)
					}
					for i, q := range queries {
						if want := NaiveReach(g, q.S, q.T); got[i] != want {
							t.Fatalf("round %d query %d: got %v, oracle %v", round, i, got[i], want)
						}
					}
				}
			})
		}
	}
}

// TestChaosTCPPartitionDownAndRecovery kills every replica of one
// partition mid-stream (proxy-level, as the network sees a crash),
// asserts the coordinator degrades to per-query errors — never wrong
// answers — and recovers once the replicas come back, via the
// in-query redial path.
func TestChaosTCPPartitionDownAndRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const k, R, n = 3, 2, 60
	g := randomGraph(rng, n, 2)
	specs, proxies, stop := bootReplicatedFleet(t, g, graph.Hash(), k, R,
		func(p, r int) chaos.ProxyOptions { return chaos.ProxyOptions{Seed: int64(p*10 + r)} })
	defer stop()

	e, err := Connect(t.Context(), ClusterSpec{Groups: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A victim query whose sources live in partition 1, plus bystanders.
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	var inP1 []graph.VertexID
	for v := 0; v < n && len(inP1) < 3; v++ {
		if pt.Part[v] == 1 {
			inP1 = append(inP1, graph.VertexID(v))
		}
	}
	mkBatch := func() []Query {
		return []Query{
			{S: inP1, T: randomSet(rng, n, 4)},
			{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)},
		}
	}

	if _, err := e.QueryBatchErr(mkBatch()); err != nil {
		t.Fatalf("healthy fleet errored: %v", err)
	}

	for _, px := range proxies[1] {
		px.Kill()
	}
	// The victim query must start failing (as a partial error naming
	// partition 1) once the dead connections are noticed; non-failed
	// answers must stay oracle-correct throughout.
	deadline := time.Now().Add(20 * time.Second)
	for {
		batch := mkBatch()
		got, err := e.QueryBatchErr(batch)
		if err != nil {
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("non-partial error: %v", err)
			}
			if len(be.Partitions) != 1 || be.Partitions[0].Partition != 1 {
				t.Fatalf("wrong dead partition set: %v", err)
			}
			for i, q := range batch {
				if !be.Failed[i] {
					if want := NaiveReach(g, q.S, q.T); got[i] != want {
						t.Fatalf("unfailed query %d wrong during outage: got %v, oracle %v", i, got[i], want)
					}
				}
			}
			if be.Failed[0] {
				break // the victim query is failing, outage fully observed
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("partition loss never surfaced")
		}
	}

	// Revive: the very next batches redial through the proxies on
	// demand; answers must return to oracle with no error.
	for _, px := range proxies[1] {
		px.Revive()
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		batch := mkBatch()
		got, err := e.QueryBatchErr(batch)
		if err == nil {
			for i, q := range batch {
				if want := NaiveReach(g, q.S, q.T); got[i] != want {
					t.Fatalf("post-recovery query %d: got %v, oracle %v", i, got[i], want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered after revive: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
