package locality_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
)

// plantedFixture is the shared clustered benchmark graph: 50k vertices,
// 4 planted communities, dense inside (intra out-degree 8), sparse
// between (inter out-degree 0.05), community membership scattered
// across the ID space so nothing but the edges reveals the structure.
func plantedFixture(tb testing.TB) (*graph.Graph, []int32) {
	tb.Helper()
	g, truth, err := gen.Planted(gen.PlantedConfig{
		N: 50000, K: 4, IntraDeg: 8, InterDeg: 0.05, Seed: 42, Shuffle: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g, truth
}

// TestLocalityBeatsHashOnClusteredGraph is the PR's acceptance
// criterion: on a 50k-vertex planted-partition graph with k=4, the
// locality partitioner must cut the boundary-vertex count by at least
// 3x versus hash partitioning. (In practice the margin is far larger:
// hash makes essentially every vertex boundary, locality only the
// vertices with inter-community edges.)
func TestLocalityBeatsHashOnClusteredGraph(t *testing.T) {
	g, _ := plantedFixture(t)
	const k = 4

	hashPt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	locPt, err := locality.Partition(g, k, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := partition.ComputeStats(g, hashPt)
	ls := partition.ComputeStats(g, locPt)
	t.Logf("hash:     %v", hs)
	t.Logf("locality: %v", ls)

	if ls.BoundaryVertices*3 > hs.BoundaryVertices {
		t.Errorf("locality boundary %d not >= 3x better than hash boundary %d",
			ls.BoundaryVertices, hs.BoundaryVertices)
	}
	if ls.CutEdges >= hs.CutEdges {
		t.Errorf("locality cut edges %d not better than hash %d", ls.CutEdges, hs.CutEdges)
	}
	if ls.MaxPart > int(1.15*float64(g.NumVertices())/k)+1 {
		t.Errorf("locality max partition %d violates balance cap", ls.MaxPart)
	}
	if ls.MinPart == 0 {
		t.Errorf("locality left a partition empty on a 4-community graph")
	}
}

// TestPartitionDeterminism: identical inputs must give identical
// assignments — the distributed deployment depends on it — and a
// different seed is allowed to (and here does) give a different one.
func TestPartitionDeterminism(t *testing.T) {
	g, _, err := gen.Planted(gen.PlantedConfig{
		N: 2000, K: 3, IntraDeg: 6, InterDeg: 0.5, Seed: 7, Shuffle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := locality.Partition(g, 3, locality.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := locality.Partition(g, 3, locality.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Part, b.Part) {
		t.Fatal("same seed produced different partitionings")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same partitioning, different digests")
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if pt, err := locality.Partition(empty, 4, locality.Options{}); err != nil || pt.K != 4 {
		t.Fatalf("empty graph: %v, %v", pt, err)
	}

	// k=1: everything lands in partition 0, nothing is boundary.
	line := graph.NewBuilder(0)
	for i := 0; i < 10; i++ {
		line.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	lg := line.Build()
	pt, err := locality.Partition(lg, 1, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nb := partition.ComputeStats(lg, pt).BoundaryVertices; nb != 0 {
		t.Fatalf("k=1 has %d boundary vertices, want 0", nb)
	}

	// More partitions than vertices: valid, some partitions stay empty.
	pt, err = locality.Partition(lg, 64, locality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.ComputeStats(lg, pt); got.NumVertices != 11 {
		t.Fatalf("k>n stats: %v", got)
	}

	// Bad options are rejected, not silently clamped.
	if _, err := locality.Partition(lg, 0, locality.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := locality.Partition(lg, 2, locality.Options{Balance: 0.9}); err == nil {
		t.Error("balance <= 1 accepted")
	}
	if _, err := locality.Partition(lg, 2, locality.Options{Rounds: -1}); err == nil {
		t.Error("negative rounds accepted")
	}
}

// TestPartitionBalanceOutOfRange: a balance that is not a finite number
// is refused, through ParseSpec as well, and one too large for the cap
// to fit an int32 caps nothing, like any balance of k or more — it must
// not wrap around into the tightest cap there is, ceil(n/k).
func TestPartitionBalanceOutOfRange(t *testing.T) {
	g := gen.Community(rand.New(rand.NewSource(3)), 3000, 4, 2.5, 0.05, 0.01)
	const k = 3
	for _, spec := range []string{"NaN", "+Inf", "-Inf"} {
		p, err := locality.ParseSpec("locality:balance=" + spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Partition(g, k); err == nil {
			t.Errorf("balance=%s accepted", spec)
		}
	}
	noCap, err := locality.Partition(g, k, locality.Options{Balance: k})
	if err != nil {
		t.Fatal(err)
	}
	if st := partition.ComputeStats(g, noCap); st.MaxPart == st.MinPart {
		t.Fatalf("balance=%d split evenly (%v): the graph does not tell a cap from none", k, st)
	}
	for _, b := range []float64{1e10, math.MaxFloat64} {
		pt, err := locality.Partition(g, k, locality.Options{Balance: b})
		if err != nil {
			t.Fatalf("balance=%g: %v", b, err)
		}
		if !slices.Equal(pt.Part, noCap.Part) {
			t.Errorf("balance=%g: %v, want the uncapped %v", b,
				partition.ComputeStats(g, pt), partition.ComputeStats(g, noCap))
		}
	}
}

// TestPartitionBalanceCap: even on a graph that "wants" one giant
// cluster, no partition may exceed the balance cap.
func TestPartitionBalanceCap(t *testing.T) {
	// A dense 300-vertex random-ish community: LPA would happily make it
	// one cluster, but the cap must split it across k=3.
	b := graph.NewBuilder(300)
	for v := 0; v < 300; v++ {
		for j := 1; j <= 5; j++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID((v*7+j*13)%300))
		}
	}
	g := b.Build()
	pt, err := locality.Partition(g, 3, locality.Options{Balance: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	st := partition.ComputeStats(g, pt)
	if cap := int32(110); int32(st.MaxPart) > cap {
		t.Fatalf("max partition %d exceeds cap %d: %v", st.MaxPart, cap, st)
	}
}

// TestPartitionPackingFragmentation: three tight 4-cliques into two
// partitions of capacity ceil(1.15*12/2)=7 — no partition can hold two
// whole clusters, so one cluster must be split rather than dumped onto
// a partition past the Balance cap (the bug this test pins: the old
// fallback assigned the leftover cluster whole, producing an 8-vertex
// partition against a documented cap of 7).
func TestPartitionPackingFragmentation(t *testing.T) {
	b := graph.NewBuilder(12)
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 4)
		for i := graph.VertexID(0); i < 4; i++ {
			for j := graph.VertexID(0); j < 4; j++ {
				if i != j {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	g := b.Build()
	pt, err := locality.Partition(g, 2, locality.Options{Balance: 1.15})
	if err != nil {
		t.Fatal(err)
	}
	st := partition.ComputeStats(g, pt)
	if st.MaxPart > 7 {
		t.Fatalf("max partition %d exceeds capacity 7 (balance cap violated): %v", st.MaxPart, st)
	}
	if st.MinPart < 5 {
		t.Errorf("split fallback left partitions unbalanced: %v", st)
	}
}

func TestParseSpec(t *testing.T) {
	for _, c := range []struct {
		spec, name string
	}{
		{"hash", "hash"},
		{"range", "range"},
		{"locality", "locality"},
		{"locality:seed=9,rounds=12,balance=1.2,refine=-1", "locality"},
	} {
		p, err := locality.ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", c.spec, p.Name(), c.name)
		}
	}
	for _, bad := range []string{
		"", "metis", "hash:seed=1", "range:x", "locality:seed", "locality:seed=abc",
		"locality:nope=1",
	} {
		if _, err := locality.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// The parsed locality partitioner must behave like the direct call.
	g, _, err := gen.Planted(gen.PlantedConfig{N: 500, K: 2, IntraDeg: 4, InterDeg: 0.2, Seed: 3, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := locality.ParseSpec("locality:seed=5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := locality.Partition(g, 2, locality.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Part, want.Part) {
		t.Fatal("ParseSpec(locality:seed=5) disagrees with Partition(Options{Seed: 5})")
	}
}

// BenchmarkPartitionQuality measures partitioner quality (not just
// speed) on the planted clustered graph: boundary vertices, cut edges,
// and balance are reported as custom metrics, so the benchmark JSON
// artifacts record partition quality per commit alongside ns/op. The
// stats are computed once, after the timed loop, so ns/op is the
// partitioner's alone.
// locality-200k is the 200k-vertex community graph at k = 3, the scale
// of the end-to-end benchmark's locality fleet.
func BenchmarkPartitionQuality(b *testing.B) {
	g, _ := plantedFixture(b)
	const k = 4
	community := sync.OnceValue(func() *graph.Graph {
		return gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	})
	for _, bc := range []struct {
		name  string
		graph func() *graph.Graph
		part  func(g *graph.Graph) (*graph.Partitioning, error)
	}{
		{"hash", nil, func(g *graph.Graph) (*graph.Partitioning, error) { return graph.Hash().Partition(g, k) }},
		{"range", nil, func(g *graph.Graph) (*graph.Partitioning, error) { return graph.Range().Partition(g, k) }},
		{"locality", nil, func(g *graph.Graph) (*graph.Partitioning, error) {
			return locality.Partition(g, k, locality.Options{})
		}},
		{"locality-200k", community, func(g *graph.Graph) (*graph.Partitioning, error) {
			return locality.Partition(g, 3, locality.Options{Seed: 1})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := g
			if bc.graph != nil {
				g = bc.graph()
				b.ResetTimer()
			}
			var pt *graph.Partitioning
			for i := 0; i < b.N; i++ {
				var err error
				if pt, err = bc.part(g); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := partition.ComputeStats(g, pt)
			b.ReportMetric(float64(st.BoundaryVertices), "boundary")
			b.ReportMetric(float64(st.CutEdges), "cutedges")
			b.ReportMetric(st.Balance, "balance")
		})
	}
}

// ExampleParseSpec documents the flag syntax.
func ExampleParseSpec() {
	p, _ := locality.ParseSpec("locality:seed=7")
	fmt.Println(p.Name())
	// Output: locality
}
