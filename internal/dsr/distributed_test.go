package dsr

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
)

// bootShardServers launches one hash-partitioned TCP shard server per
// partition of g on ephemeral localhost ports; see bootShardServersWith.
func bootShardServers(t testing.TB, g *graph.Graph, k int) ([]string, func()) {
	t.Helper()
	return bootShardServersWith(t, g, k, graph.Hash())
}

// bootShardServersWith launches one TCP shard server per partition of g
// on ephemeral localhost ports — the same code path as cmd/dsr-shard,
// in process so the e2e test is hermetic — and returns their addresses
// plus a stop function that shuts them down and waits.
func bootShardServersWith(t testing.TB, g *graph.Graph, k int, strat graph.Partitioner) ([]string, func()) {
	t.Helper()
	pt, err := strat.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	addrs := make([]string, k)
	servers := make([]*shard.Server, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := shard.NewServer(shard.New(i, subs[i]), k, g.NumVertices(), g.Fingerprint(), pt.Digest())
		servers[i] = srv
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil {
				t.Errorf("shard server %v: %v", ln.Addr(), err)
			}
		}()
	}
	return addrs, func() {
		for _, srv := range servers {
			srv.Close()
		}
		wg.Wait()
	}
}

// TestDistributedTCPDifferential is the end-to-end check over real TCP:
// k >= 3 shard server processes (in-process goroutines running the same
// server code as cmd/dsr-shard) on localhost, a graph-free coordinator
// built with Connect from nothing but the addresses — identity from the
// handshake, structure from the shipped boundary summaries — and
// randomized differential comparison of both Query and QueryBatch
// against the whole-graph oracle, for both the hash and the locality
// partitioner.
func TestDistributedTCPDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	strategies := []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 20260730})}
	for _, k := range []int{3, 5} {
		for gi := 0; gi < 6; gi++ {
			n := 10 + rng.Intn(120)
			deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
			g := randomGraph(rng, n, deg)
			strat := strategies[gi%len(strategies)]
			addrs, stop := bootShardServersWith(t, g, k, strat)

			e, err := Connect(t.Context(), ClusterSpec{Groups: addrs})
			if err != nil {
				stop()
				t.Fatal(err)
			}
			// Single queries.
			for qi := 0; qi < 10; qi++ {
				S := randomSet(rng, n, 5)
				T := randomSet(rng, n, 5)
				got := e.Query(S, T)
				if want := NaiveReach(g, S, T); got != want {
					t.Fatalf("k=%d graph %d (n=%d): distributed Query(%v, %v) = %v, oracle = %v",
						k, gi, n, S, T, got, want)
				}
			}
			// Batched queries, including batch sizes above the shard count.
			for _, B := range []int{1, 7, 64} {
				queries := make([]Query, B)
				for i := range queries {
					queries[i] = Query{S: randomSet(rng, n, 5), T: randomSet(rng, n, 5)}
				}
				got, err := e.QueryBatchErr(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					if want := NaiveReach(g, q.S, q.T); got[i] != want {
						t.Fatalf("k=%d graph %d batch %d query %d: got %v, oracle %v",
							k, gi, B, i, got[i], want)
					}
				}
			}
			e.Close()
			stop()
		}
	}
}

// TestDistributedTCPFleetMismatch: the graph-free coordinator has no
// graph of its own to check shards against, so consistency is enforced
// two ways — the fleet against itself (every shard's handshake identity
// must agree with every other shard's, surfacing as *MismatchError),
// and optionally against a caller-pinned digest at dial time. A silent
// placement disagreement would mean wrong answers, not errors.
func TestDistributedTCPFleetMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 60, 2)
	hashAddrs, stopHash := bootShardServersWith(t, g, 3, graph.Hash())
	defer stopHash()
	locAddrs, stopLoc := bootShardServersWith(t, g, 3, locality.New(locality.Options{Seed: 1}))
	defer stopLoc()

	// A frankenfleet: two hash shards plus one locality shard. The
	// partitioning digests disagree, so Connect must refuse with a
	// MismatchError naming the digest field.
	mixed := []string{hashAddrs[0], hashAddrs[1], locAddrs[2]}
	var me *MismatchError
	if _, err := Connect(t.Context(), ClusterSpec{Groups: mixed}); !errors.As(err, &me) {
		t.Fatalf("mixed-partitioner fleet not rejected with MismatchError: %v", err)
	} else if me.Field != "partitioning digest" {
		t.Fatalf("wrong mismatch field: %+v", me)
	}

	// A coherent fleet against the wrong pinned digest: refused replica
	// by replica at dial time.
	ptHash, err := graph.HashPartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Connect(t.Context(), ClusterSpec{Groups: locAddrs, ExpectDigest: ptHash.Digest()}); err == nil ||
		!strings.Contains(err.Error(), "different partitioning") {
		t.Fatalf("wrong pinned digest not rejected: %v", err)
	}
	// Pinning the graph fingerprint alongside the right digest connects
	// fine and answers correctly.
	ptLoc, err := locality.Partition(g, 3, locality.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Connect(t.Context(), ClusterSpec{
		Groups: locAddrs, ExpectGraph: g.Fingerprint(), ExpectDigest: ptLoc.Digest(),
	})
	if err != nil {
		t.Fatalf("matching deployment refused: %v", err)
	}
	defer e.Close()
	for qi := 0; qi < 5; qi++ {
		S, T := randomSet(rng, 60, 4), randomSet(rng, 60, 4)
		if got, want := e.Query(S, T), NaiveReach(g, S, T); got != want {
			t.Fatalf("pinned connect query %d: got %v, oracle %v", qi, got, want)
		}
	}
}

// TestDistributedTCPServerLoss asserts a coordinator surfaces shard
// failure as an error (QueryBatchErr) rather than a wrong answer or a
// hang.
func TestDistributedTCPServerLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 80, 2)
	addrs, stop := bootShardServers(t, g, 3)
	e, err := Connect(t.Context(), ClusterSpec{Groups: addrs})
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer e.Close()
	stop() // all shards down

	deadline := time.After(10 * time.Second)
	for {
		// Spread S/T widely so some shard must be consulted.
		S := make([]graph.VertexID, 40)
		T := make([]graph.VertexID, 40)
		for i := range S {
			S[i] = graph.VertexID(i)
			T[i] = graph.VertexID(40 + i)
		}
		_, err := e.QueryBatchErr([]Query{{S: S, T: T}})
		if err != nil {
			return
		}
		select {
		case <-deadline:
			t.Fatal("no transport error after shard shutdown")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestDistributedTCPClosesCleanly asserts the distributed engine's
// Close joins its transport goroutines (client readers).
func TestDistributedTCPClosesCleanly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 100, 2)
	addrs, stop := bootShardServers(t, g, 3)
	defer stop()
	before := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		e, err := Connect(t.Context(), ClusterSpec{Groups: addrs})
		if err != nil {
			t.Fatal(err)
		}
		e.Query(randomSet(rng, 100, 4), randomSet(rng, 100, 4))
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// benchTCPEngine boots 3 shard servers and a distributed coordinator
// over the standard 10k-vertex benchmark workload.
func benchTCPEngine(b *testing.B) (*Engine, [][2][]graph.VertexID, func()) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	addrs, stop := bootShardServers(b, g, 3)
	e, err := Connect(b.Context(), ClusterSpec{Groups: addrs})
	if err != nil {
		stop()
		b.Fatal(err)
	}
	const nq = 256
	queries := make([][2][]graph.VertexID, nq)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, n, 8), randomSet(rng, n, 8)}
	}
	return e, queries, func() { e.Close(); stop() }
}

// BenchmarkTCPQuery is the one-query-per-round-trip baseline over the
// TCP transport (3 localhost shards).
func BenchmarkTCPQuery(b *testing.B) {
	e, queries, cleanup := benchTCPEngine(b)
	defer cleanup()
	for _, q := range queries { // grow every arena to its steady size
		e.Query(q[0], q[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		e.Query(q[0], q[1])
	}
}

// BenchmarkTCPQueryBatch ships 64 queries per round trip over the same
// TCP deployment. b.N counts rounds, every batch runs once before the
// timer starts, and ns/query is the number to hold against
// BenchmarkTCPQuery's ns/op — the gap is the amortized RPC overhead.
func BenchmarkTCPQueryBatch(b *testing.B) {
	e, queries, cleanup := benchTCPEngine(b)
	defer cleanup()
	const B = 64
	batches := make([][]Query, len(queries)/B)
	for bi := range batches {
		batches[bi] = make([]Query, B)
		for i := range batches[bi] {
			q := queries[bi*B+i]
			batches[bi][i] = Query{S: q[0], T: q[1]}
		}
	}
	for _, batch := range batches { // grow every arena to its steady size
		e.QueryBatch(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.QueryBatch(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/query")
}
