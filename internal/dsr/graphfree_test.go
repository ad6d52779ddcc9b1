package dsr

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/shard/chaos"
	"dsr/internal/wire"
)

// interiorGraph builds a two-partition graph whose boundary is constant
// while its interior scales: two chains of m vertices (one per range
// partition half) joined by the single bridge (m-1) -> m, padded with
// extra intra-half edges. Whatever m is, exactly two vertices are
// boundary: exit m-1 and entry m.
func interiorGraph(rng *rand.Rand, m, extraEdges int) *graph.Graph {
	b := graph.NewBuilder(2 * m)
	for v := 0; v < 2*m-1; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	for i := 0; i < extraEdges; i++ {
		half := rng.Intn(2) * m
		b.AddEdge(graph.VertexID(half+rng.Intn(m)), graph.VertexID(half+rng.Intn(m)))
	}
	return b.Build()
}

// TestResidentBytesIndependentOfInterior pins the graph-free property:
// the coordinator's resident footprint is a function of the boundary
// structure alone. Growing the partition interiors 10× — vertices and
// edges that never cross the partition border — must not change
// ResidentBytes at all, because none of it ever reaches the
// coordinator.
func TestResidentBytesIndependentOfInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small, err := Build(interiorGraph(rng, 1_000, 4_000), Options{K: 2, Partitioner: graph.Range()})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	big, err := Build(interiorGraph(rng, 10_000, 40_000), Options{K: 2, Partitioner: graph.Range()})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()

	if nb := small.NumBoundary(); nb != 2 {
		t.Fatalf("small engine boundary = %d vertices, want 2", nb)
	}
	if small.NumBoundary() != big.NumBoundary() {
		t.Fatalf("boundary grew with the interior: %d vs %d", small.NumBoundary(), big.NumBoundary())
	}
	sb, bb := small.ResidentBytes(), big.ResidentBytes()
	if sb != bb {
		t.Fatalf("coordinator-resident bytes scale with interior size: %d (2k vertices) vs %d (20k vertices)", sb, bb)
	}
	if sb == 0 {
		t.Fatal("ResidentBytes = 0, metric is not wired")
	}
	// And both engines still answer across the bridge.
	if !small.Query([]graph.VertexID{0}, []graph.VertexID{1_999}) {
		t.Fatal("small: 0 should reach the far end")
	}
	if !big.Query([]graph.VertexID{0}, []graph.VertexID{19_999}) {
		t.Fatal("big: 0 should reach the far end")
	}
	if big.Query([]graph.VertexID{19_999}, []graph.VertexID{0}) {
		t.Fatal("big: far end must not reach 0")
	}
}

// TestStitchBoundaryRejectsBadSummaries covers the validation layer
// that keeps the parallel stitch phases safe against inconsistent or
// hostile fleets: overlapping boundary sets, a boundary list out of
// order (ordinals would name the wrong vertices), out-of-range
// vertices, edges whose source a shard does not own, and edges into
// vertices no shard declared.
func TestStitchBoundaryRejectsBadSummaries(t *testing.T) {
	cases := []struct {
		name string
		n    int
		sums []wire.Summary
		want string
	}{
		{"overlapping boundaries", 10, []wire.Summary{
			{Boundary: []uint32{1, 3}}, {Boundary: []uint32{3, 5}},
		}, "claimed by two shards"},
		{"unsorted boundary", 10, []wire.Summary{
			{Boundary: []uint32{3, 1}}, {Boundary: []uint32{5}},
		}, "not strictly increasing"},
		{"repeated boundary vertex", 10, []wire.Summary{
			{Boundary: []uint32{1, 1}}, {Boundary: []uint32{5}},
		}, "not strictly increasing"},
		{"boundary out of range", 4, []wire.Summary{
			{Boundary: []uint32{1}}, {Boundary: []uint32{9}},
		}, "out of range"},
		{"unowned edge source", 10, []wire.Summary{
			{Boundary: []uint32{1}, Edges: [][2]uint32{{2, 1}}}, {Boundary: []uint32{2}},
		}, "not one of its boundary vertices"},
		{"unknown cross target", 10, []wire.Summary{
			{Boundary: []uint32{1}, Cross: [][2]uint32{{1, 7}}}, {Boundary: []uint32{2}},
		}, "not a boundary vertex of any shard"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := stitchBoundary(c.n, c.sums)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("stitchBoundary = %v, want error containing %q", err, c.want)
			}
		})
	}
	// The empty fleet degenerates cleanly.
	bg, err := stitchBoundary(5, []wire.Summary{{}, {}})
	if err != nil || bg.nverts != 0 || bg.ncomp() != 0 {
		t.Fatalf("empty summaries: bg=%v err=%v", bg, err)
	}
}

// TestChaosSummaryFetchFailover kills a replica between transport
// construction and the connect-time summary fetch: the coordinator must
// transparently fetch the partition's summary from the surviving
// sibling and then answer oracle-identical queries. With the dead
// replica revived, later rounds may use either replica.
func TestChaosSummaryFetchFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const k, R, n = 3, 2, 90
	g := randomGraph(rng, n, 2)
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	f := chaos.New(chaos.Options{})
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		for r := 0; r < R; r++ {
			sub := subs[p]
			pp := p
			groups[p] = append(groups[p], f.Dialer(p, r, func(context.Context) (shard.Replica, error) {
				return shard.NewLocalReplica(shard.New(pp, sub)), nil
			}))
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The replica the transport dialed for partition 1 dies before the
	// summary fetch; its sibling must serve the summary instead.
	f.Kill(1, 0)
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), Options{})
	if err != nil {
		tr.Close()
		t.Fatalf("summary fetch did not fail over to the sibling: %v", err)
	}
	defer e.Close()
	f.Revive(1, 0)
	for round := 0; round < 3; round++ {
		queries := make([]Query, 12)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 5), T: randomSet(rng, n, 5)}
		}
		got, err := e.QueryBatchErr(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, q := range queries {
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("round %d query %d: got %v, oracle %v", round, i, got[i], want)
			}
		}
	}
}
