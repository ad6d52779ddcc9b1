package dsr

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
)

// Query is the tests' single-query round: it runs the round under e.mu
// itself and reads the answer off the round's state, so a warm engine
// answers without allocating. It panics on a failure that leaves the
// answer unknown; a lost partition the query was proven true without
// still answers normally.
func (e *Engine) Query(S, T []graph.VertexID) bool {
	q := [1]Query{{S: S, T: T}}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.run(q[:]); err != nil {
		var be *BatchError
		if !errors.As(err, &be) || be.Failed[0] {
			panic(fmt.Sprintf("dsr: transport failure: %v", err))
		}
	}
	return e.r.qs[0].ans
}

// QueryBatch is QueryBatchErr for tests that expect every answer: it
// panics on any failure that leaves one unknown.
func (e *Engine) QueryBatch(queries []Query) []bool {
	out, err := e.QueryBatchErr(queries)
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) || slices.Contains(be.Failed, true) {
			panic(fmt.Sprintf("dsr: transport failure: %v", err))
		}
	}
	return out
}

func build(n int, edges [][2]graph.VertexID) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestQueryHandBuilt(t *testing.T) {
	// Two 4-cycles joined by bridge 3->4 (internal/graph/testdata/tiny.txt).
	g := build(8, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4},
	})
	cases := []struct {
		name string
		S, T []graph.VertexID
		want bool
	}{
		{"same vertex", []graph.VertexID{2}, []graph.VertexID{2}, true},
		{"within partition", []graph.VertexID{0}, []graph.VertexID{3}, true},
		{"across bridge", []graph.VertexID{0}, []graph.VertexID{6}, true},
		{"against bridge", []graph.VertexID{5}, []graph.VertexID{0}, false},
		{"set hit", []graph.VertexID{5, 1}, []graph.VertexID{7, 9}, true},
		{"empty sources", nil, []graph.VertexID{1}, false},
		{"empty targets", []graph.VertexID{1}, nil, false},
		{"out of range ignored", []graph.VertexID{100}, []graph.VertexID{100}, false},
	}
	// However Build is told to split the graph, the answers are the same;
	// a partitioning only decides where the boundary lands. A range split
	// and the locality partitioner both cut at the bridge (2 boundary
	// vertices), hashing scatters both cycles (7).
	for _, split := range []struct {
		name     string
		o        Options
		boundary int
	}{
		{"range halves", Options{K: 2, Partitioner: graph.Range()}, 2},
		{"hash", Options{K: 2}, 7},
		{"locality", Options{K: 2, Partitioner: locality.New(locality.Options{})}, 2},
	} {
		e, err := Build(g, split.o)
		if err != nil {
			t.Fatalf("%s: %v", split.name, err)
		}
		if k, b := e.NumPartitions(), e.NumBoundary(); k != 2 || b != split.boundary {
			t.Errorf("%s: %d partitions, %d boundary vertices; want 2, %d", split.name, k, b, split.boundary)
		}
		for _, c := range cases {
			if got := e.Query(c.S, c.T); got != c.want {
				t.Errorf("%s, %s: Query(%v, %v) = %v, want %v", split.name, c.name, c.S, c.T, got, c.want)
			}
		}
		e.Close()
	}
	for _, c := range cases {
		if got := NaiveReach(g, c.S, c.T); got != c.want {
			t.Errorf("%s: oracle disagrees with expectation: %v", c.name, got)
		}
	}
}

// randomGraph generates a graph with n vertices and ~n*deg random edges.
func randomGraph(rng *rand.Rand, n int, deg float64) *graph.Graph {
	b := graph.NewBuilder(n)
	m := int(float64(n) * deg)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

func randomSet(rng *rand.Rand, n, maxSize int) []graph.VertexID {
	size := rng.Intn(maxSize + 1)
	s := make([]graph.VertexID, 0, size)
	for i := 0; i < size; i++ {
		s = append(s, graph.VertexID(rng.Intn(n)))
	}
	return s
}

// TestQueryDifferential compares the partitioned engine against the
// whole-graph BFS oracle on randomized graphs and query sets, across
// all three partitioners (hash, range, locality). Fixed seed keeps
// failures reproducible.
func TestQueryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	const graphs = 120
	queriesPer := 8
	checked := 0
	for gi := 0; gi < graphs; gi++ {
		n := 1 + rng.Intn(60)
		deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		g := randomGraph(rng, n, deg)
		k := 2 + rng.Intn(4) // always >= 2 partitions
		p := []graph.Partitioner{graph.Hash(), graph.Range(), locality.New(locality.Options{Seed: int64(gi)})}[gi%3]
		e, err := Build(g, Options{K: k, Partitioner: p})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < queriesPer; qi++ {
			S := randomSet(rng, n, 5)
			T := randomSet(rng, n, 5)
			got := e.Query(S, T)
			want := NaiveReach(g, S, T)
			if got != want {
				t.Fatalf("graph %d (n=%d, k=%d), query %d: Query(%v, %v) = %v, oracle = %v",
					gi, n, k, qi, S, T, got, want)
			}
			checked++
		}
		e.Close()
	}
	if checked < 100 {
		t.Fatalf("only %d differential cases ran, want >= 100", checked)
	}
}

// TestQuerySingleVertexGraphs covers the degenerate sizes where boundary
// sets are empty or a partition has no vertices at all.
func TestQuerySingleVertexGraphs(t *testing.T) {
	g := build(1, nil)
	e, err := Build(g, Options{K: 4}) // more partitions than vertices
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Query([]graph.VertexID{0}, []graph.VertexID{0}) {
		t.Error("vertex should reach itself")
	}
	if e.Query([]graph.VertexID{0}, nil) {
		t.Error("empty target set should be unreachable")
	}
}

// TestQueryAfterClose: a closed engine answers what assembly settles —
// a vertex reaches itself — and fails the rest with every partition's
// shard.ErrClosed, never a silent false and never a panic.
func TestQueryAfterClose(t *testing.T) {
	g := build(2, [][2]graph.VertexID{{0, 1}})
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // double close must be safe
	got, err := e.QueryBatchErr([]Query{{S: V(0), T: V(1)}, {S: V(1), T: V(1)}})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("query after Close: err = %v, want a *BatchError", err)
	}
	if len(be.Partitions) != 2 {
		t.Fatalf("%d partition errors, want both partitions: %v", len(be.Partitions), err)
	}
	for _, pe := range be.Partitions {
		if !errors.Is(pe.Err, shard.ErrClosed) {
			t.Errorf("partition %d: %v, want shard.ErrClosed", pe.Partition, pe.Err)
		}
	}
	if !slices.Equal(be.Failed, []bool{true, false}) || !slices.Equal(got, []bool{false, true}) {
		t.Fatalf("Failed = %v, answers = %v; want [true false] and [false true]", be.Failed, got)
	}
}

// labels is a Partitioner that places vertex v in partition labels[v].
type labels []int32

func (l labels) Name() string { return "labels" }
func (l labels) Partition(g *graph.Graph, k int) (*graph.Partitioning, error) {
	return graph.PartitionWith(g, k, func(v graph.VertexID, _, _ int) int32 { return l[v] })
}

func TestBuildPartitioningMismatch(t *testing.T) {
	g := build(3, [][2]graph.VertexID{{0, 1}})
	if _, err := Build(g, Options{}); err == nil {
		t.Fatal("want error for K = 0")
	}
	// A hand-placed partitioning: the boundary marks come from the edge
	// set, so the engine answers across the cut it was given.
	e, err := Build(g, Options{K: 2, Partitioner: labels{0, 1, 0}})
	if err != nil {
		t.Fatalf("hand-placed partitioning rejected: %v", err)
	}
	defer e.Close()
	if !e.Query([]graph.VertexID{0}, []graph.VertexID{1}) {
		t.Fatal("0 should reach 1 across the boundary")
	}
	if e.Query([]graph.VertexID{1}, []graph.VertexID{0}) {
		t.Fatal("1 must not reach 0")
	}
	// Partition labels outside [0, K) must be rejected, not panic.
	if _, err := Build(g, Options{K: 2, Partitioner: labels{0, 5, 0}}); err == nil {
		t.Fatal("want error for out-of-range partition label")
	}
}

// BenchmarkQuery seeds the performance trajectory: a 10k-vertex random
// graph, 4 partitions, pre-generated random query sets.
func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	e, err := Build(g, Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const nq = 256
	queries := make([][2][]graph.VertexID, nq)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, n, 8), randomSet(rng, n, 8)}
	}
	for _, q := range queries { // warm scratch so steady state is 0 allocs/op
		e.Query(q[0], q[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%nq]
		e.Query(q[0], q[1])
	}
}

// BenchmarkIndexBuild measures full engine construction — subgraph
// extraction, SCC condensation, each shard's summary sweep over its
// entries, boundary stitching — on a 50k-vertex hash-partitioned random
// graph where nearly every vertex is boundary (~48k entries). This
// configuration took ~50s with per-entry-BFS summaries; a sweep shares
// each component among 64 entries and costs what they reach.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	g := randomGraph(rng, n, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := Build(g, Options{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkNaiveReach is the unpartitioned baseline for the same workload.
func BenchmarkNaiveReach(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	const nq = 256
	queries := make([][2][]graph.VertexID, nq)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, n, 8), randomSet(rng, n, 8)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%nq]
		NaiveReach(g, q[0], q[1])
	}
}
