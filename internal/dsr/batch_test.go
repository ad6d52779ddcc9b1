package dsr

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// TestQueryBatchDifferential compares QueryBatch against both the
// oracle and per-query Query on randomized graphs: a batch must answer
// exactly what the one-at-a-time path answers.
func TestQueryBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	const graphs = 60
	for gi := 0; gi < graphs; gi++ {
		n := 1 + rng.Intn(60)
		deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		g := randomGraph(rng, n, deg)
		k := 2 + rng.Intn(4)
		e, err := Build(g, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		B := 1 + rng.Intn(20)
		queries := make([]Query, B)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 5), T: randomSet(rng, n, 5)}
		}
		got := e.QueryBatch(queries)
		if len(got) != B {
			t.Fatalf("graph %d: got %d answers for %d queries", gi, len(got), B)
		}
		for i, q := range queries {
			want := NaiveReach(g, q.S, q.T)
			if got[i] != want {
				t.Fatalf("graph %d (n=%d, k=%d) query %d: batch = %v, oracle = %v (S=%v T=%v)",
					gi, n, k, i, got[i], want, q.S, q.T)
			}
			if single := e.Query(q.S, q.T); single != want {
				t.Fatalf("graph %d query %d: single = %v, oracle = %v", gi, i, single, want)
			}
		}
		e.Close()
	}
}

// TestQueryBatchReuse runs many batches of varying size through one
// engine to exercise scratch reuse across rounds.
func TestQueryBatchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 200, 2)
	e, err := Build(g, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 50; round++ {
		B := 1 + rng.Intn(32)
		queries := make([]Query, B)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, 200, 6), T: randomSet(rng, 200, 6)}
		}
		got := e.QueryBatch(queries)
		for i, q := range queries {
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("round %d query %d: got %v, want %v", round, i, got[i], want)
			}
		}
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	g := build(2, [][2]graph.VertexID{{0, 1}})
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if out := e.QueryBatch(nil); out != nil {
		t.Fatalf("QueryBatch(nil) = %v, want nil", out)
	}
	out := e.QueryBatch([]Query{{}, {S: []graph.VertexID{0}}, {T: []graph.VertexID{1}}})
	for i, ans := range out {
		if ans {
			t.Errorf("degenerate query %d answered true", i)
		}
	}
}

// TestQueryZeroAlloc locks the acceptance criterion that the in-process
// Loopback round stays allocation-free in steady state — with full
// instrumentation enabled (metrics registry, slow-query tracing armed):
// telemetry must be free when idle and allocation-free when hot. Through
// QueryBatchErr a round costs exactly the answer slice it returns.
func TestQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	withLabelSeam(t, &labelsAwaited) // no label build allocating beside the measured rounds
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 2000, 3)
	reg := obs.NewRegistry()
	e, err := Build(g, Options{K: 4, Metrics: reg, SlowQuery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	S := randomSet(rng, 2000, 8)
	T := randomSet(rng, 2000, 8)
	for i := 0; i < 10; i++ { // warm scratch capacities
		e.Query(S, T)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Query(S, T) }); allocs != 0 {
		t.Errorf("Query allocates %v/op in steady state with metrics enabled, want 0", allocs)
	}
	batch := []Query{{S: S, T: T}}
	if allocs := testing.AllocsPerRun(200, func() { e.QueryBatchErr(batch) }); allocs != 1 {
		t.Errorf("QueryBatchErr allocates %v/op in steady state with metrics enabled, want 1 (the answer slice)", allocs)
	}
	if got := reg.Counter("dsr_queries_total").Load(); got < 200 {
		t.Errorf("dsr_queries_total = %d after 200+ queries", got)
	}
	if reg.Histogram("dsr_query_latency_ns").Count() == 0 {
		t.Error("query latency histogram never observed")
	}
}

// TestCloseStopsGoroutines asserts deterministic lifecycle: every
// goroutine the engine started (loopback shard servers) is gone once
// Close returns.
func TestCloseStopsGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 500, 2)
	before := runtime.NumGoroutine()
	for iter := 0; iter < 5; iter++ {
		e, err := Build(g, Options{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		e.Query(randomSet(rng, 500, 4), randomSet(rng, 500, 4))
		e.Close()
	}
	// The build pool's goroutines also exit before New returns, but give
	// the scheduler a moment to retire stacks before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// stallReplica takes batches and answers none of them: Run blocks until
// the replica is closed, then fails with shard.ErrClosed, as a TCP
// connection fails the call in flight. The embedded replica serves
// Summary and Hello. Each parked batch is signalled on parked, if set.
type stallReplica struct {
	shard.Replica
	parked chan<- struct{}
	closed chan struct{}
	once   sync.Once
}

func (s *stallReplica) Run(wire.BatchHeader, []wire.Task) shard.Reply {
	if s.parked != nil {
		s.parked <- struct{}{}
	}
	<-s.closed
	return shard.Reply{Err: shard.ErrClosed}
}

func (s *stallReplica) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.Replica.Close()
}

// TestCloseEndsStalledRound: a shard that takes a round and never
// answers cannot hold Close up. Close ends the round instead — the
// transport fails the stalled partition with shard.ErrClosed — and the
// round reports it: the queries that needed the partition fail, the one
// assembly settled is still answered, and nothing is left running.
func TestCloseEndsStalledRound(t *testing.T) {
	before := runtime.NumGoroutine()
	// Chain 0→1→…→5 under range: partition 1 holds {2, 3}.
	g := build(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	parked := make(chan struct{}, 1)
	groups := make([][]shard.ReplicaDialer, 3)
	for p, sh := range loopbackShards(t, g, graph.Range(), 3) {
		groups[p] = []shard.ReplicaDialer{func(context.Context) (shard.Replica, error) {
			if rep := shard.NewLocalReplica(sh); p != 1 {
				return rep, nil
			} else {
				return &stallReplica{Replica: rep, parked: parked, closed: make(chan struct{})}, nil
			}
		}}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, 3, g.NumVertices(), Options{})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}

	queries := []Query{
		{S: V(2), T: V(3)}, // inside the stalled partition
		{S: V(3), T: V(5)}, // forward search lost with it
		{S: V(0), T: V(2)}, // backward search lost with it
		{S: V(2), T: V(2)}, // S ∩ T ≠ ∅: settled at assembly
	}
	type result struct {
		got []bool
		err error
	}
	roundc := make(chan result, 1)
	go func() {
		got, err := e.QueryBatchErr(queries)
		roundc <- result{got, err}
	}()
	<-parked
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked behind the stalled round after 5s")
	}
	res := <-roundc

	var be *BatchError
	if !errors.As(res.err, &be) {
		t.Fatalf("stalled round: err = %v, want a *BatchError", res.err)
	}
	if !slices.ContainsFunc(be.Partitions, func(pe PartitionError) bool { return pe.Partition == 1 }) {
		t.Errorf("partition 1 missing from %v", res.err)
	}
	for _, pe := range be.Partitions {
		if !errors.Is(pe.Err, shard.ErrClosed) {
			t.Errorf("partition %d: %v, want shard.ErrClosed", pe.Partition, pe.Err)
		}
	}
	if want := []bool{true, true, true, false}; !slices.Equal(be.Failed, want) {
		t.Errorf("Failed = %v, want %v", be.Failed, want)
	}
	if !res.got[3] {
		t.Error("2 ~> 2 answered false")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkQueryBatch measures the batched path over Loopback with
// 64-query batches on the same workload as BenchmarkQuery. b.N counts
// rounds — so a fixed -benchtime=Nx times N rounds, not N/64 — with
// every batch run once before the timer starts; ns/query is the number
// to hold against BenchmarkQuery's ns/op.
func BenchmarkQueryBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	e, err := Build(g, Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const B = 64
	const nq = 256
	batches := make([][]Query, nq/B)
	for bi := range batches {
		batches[bi] = make([]Query, B)
		for i := range batches[bi] {
			batches[bi][i] = Query{S: randomSet(rng, n, 8), T: randomSet(rng, n, 8)}
		}
	}
	for _, batch := range batches { // grow scratch to its steady size
		e.QueryBatch(batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.QueryBatch(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/query")
}

// BenchmarkQueryWithMetrics is the instrumented twin of BenchmarkQuery:
// single queries over Loopback with a live metrics registry and armed
// slow-query tracing. Its BENCH_baseline entry pins allocs/op at 0, so
// the bench gate fails CI if instrumentation ever puts an allocation on
// the hot path.
func BenchmarkQueryWithMetrics(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	e, err := Build(g, Options{K: 4, Metrics: obs.NewRegistry(), SlowQuery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const nq = 256
	S := make([][]graph.VertexID, nq)
	T := make([][]graph.VertexID, nq)
	for i := range S {
		S[i] = randomSet(rng, n, 8)
		T[i] = randomSet(rng, n, 8)
	}
	for i := 0; i < nq; i++ { // warm scratch so steady state is 0 allocs/op
		e.Query(S[i], T[i])
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Query(S[i%nq], T[i%nq])
	}
}
