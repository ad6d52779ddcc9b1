package dsr

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/snapshot"
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
// graph of its own to check shards against, so the fleet is held to
// itself: the transport takes one identity from the live replicas'
// hellos and refuses a fleet whose shards disagree with it as a
// *shard.MismatchError. A silent placement disagreement would mean
// wrong answers, not errors.
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
	var me *shard.MismatchError
	if _, err := Connect(t.Context(), ClusterSpec{Groups: mixed}); !errors.As(err, &me) {
		t.Fatalf("mixed-partitioner fleet not rejected with MismatchError: %v", err)
	} else if me.Field != "partitioning digest" {
		t.Fatalf("wrong mismatch field: %+v", me)
	}

	// A coherent fleet connects and answers correctly.
	e, err := Connect(t.Context(), ClusterSpec{Groups: locAddrs})
	if err != nil {
		t.Fatalf("coherent fleet refused: %v", err)
	}
	defer e.Close()
	for qi := 0; qi < 5; qi++ {
		S, T := randomSet(rng, 60, 4), randomSet(rng, 60, 4)
		if got, want := e.Query(S, T), NaiveReach(g, S, T); got != want {
			t.Fatalf("coherent fleet query %d: got %v, oracle %v", qi, got, want)
		}
	}
}

// movedPartitioner is Range with vertex v moved to partition to.
type movedPartitioner struct {
	v  graph.VertexID
	to int32
}

func (movedPartitioner) Name() string { return "range, one vertex moved" }

func (m movedPartitioner) Partition(g *graph.Graph, k int) (*graph.Partitioning, error) {
	pt, err := graph.Range().Partition(g, k)
	if err == nil {
		pt.Part[m.v] = m.to
	}
	return pt, err
}

// TestDistributedTCPSiblingMismatchRefused: in a 3×2 fleet, a live
// sibling replica built under another partitioning than the rest is
// refused at connect — whichever replica of its partition it is — as a
// *shard.MismatchError on the partitioning digest, not quietly evicted.
// The odd partitioning moves an isolated vertex between partitions 0
// and 2, so partition 1's summary is the same under both and only the
// partitioning digest tells the sibling apart.
func TestDistributedTCPSiblingMismatchRefused(t *testing.T) {
	const n, k = 61, 3
	rng := rand.New(rand.NewSource(79))
	b := graph.NewBuilder(n)
	for i := 0; i < 2*(n-1); i++ { // vertex n-1 stays isolated
		b.AddEdge(graph.VertexID(rng.Intn(n-1)), graph.VertexID(rng.Intn(n-1)))
	}
	g := b.Build()
	moved := movedPartitioner{v: n - 1, to: 0}
	primaries, stopPrimaries := bootShardServersWith(t, g, k, graph.Range())
	defer stopPrimaries()
	standbys, stopStandbys := bootShardServersWith(t, g, k, graph.Range())
	defer stopStandbys()
	odd, stopOdd := bootShardServersWith(t, g, k, moved)
	defer stopOdd()
	ptRange, _ := graph.Range().Partition(g, k)
	ptMoved, _ := moved.Partition(g, k)
	if ptRange.Digest() == ptMoved.Digest() ||
		shard.New(1, partition.ExtractOne(g, ptRange, 1)).Summary().Digest() != shard.New(1, partition.ExtractOne(g, ptMoved, 1)).Summary().Digest() {
		t.Fatal("fixture: the odd partitioning must differ in digest only, not in partition 1's summary")
	}

	for _, group := range []string{primaries[1] + "|" + odd[1], odd[1] + "|" + primaries[1]} {
		groups := []string{primaries[0] + "|" + standbys[0], group, primaries[2] + "|" + standbys[2]}
		var me *shard.MismatchError
		e, err := Connect(t.Context(), ClusterSpec{Groups: groups})
		if err == nil {
			e.Close()
		}
		if !errors.As(err, &me) || me.Field != "partitioning digest" || me.PartA != 0 || me.PartB != 1 {
			t.Fatalf("partition 1 as %s: Connect = %v, want a partitioning-digest MismatchError between shards 0 and 1", group, err)
		}
	}
}

// TestDistributedTCPSnapshotOfAnotherGraphRefused: a shard booted from
// a snapshot checks only the snapshot's shard ID and count and
// announces the snapshot's identity in its hello, as cmd/dsr-shard
// does, so one booted from a snapshot of another graph beside right
// shards is refused at connect by the fleet identity, on the graph
// fingerprint.
func TestDistributedTCPSnapshotOfAnotherGraphRefused(t *testing.T) {
	const k, victim = 3, 1
	rng := rand.New(rand.NewSource(78))
	g := randomGraph(rng, 60, 2)
	other := randomGraph(rng, 60, 2) // as many vertices, other edges
	addrs, stop := bootShardServers(t, g, k)
	defer stop()

	pt, err := graph.Hash().Partition(other, k)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), snapshot.Filename(victim, k))
	sh := shard.New(victim, partition.ExtractOne(other, pt, victim))
	if _, err := snapshot.WriteFile(path, sh.Snapshot(k, other.NumVertices(), other.Fingerprint(), pt.Digest())); err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.ReadFile(path)
	if err == nil {
		err = sn.Expect(victim, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := shard.NewServer(shard.FromSnapshot(sn), k, sn.TotalVertices, sn.GraphFingerprint, sn.PartitioningDigest)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() { srv.Close(); <-served }()

	addrs[victim] = ln.Addr().String()
	var me *shard.MismatchError
	if _, err := Connect(t.Context(), ClusterSpec{Groups: addrs}); !errors.As(err, &me) ||
		me.Field != "graph fingerprint" || me.PartB != victim || me.B != other.Fingerprint() {
		t.Fatalf("Connect = %v, want a graph-fingerprint MismatchError naming shard %d", err, victim)
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
