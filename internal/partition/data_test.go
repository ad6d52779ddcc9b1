package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dsr/internal/graph"
)

// dataFixture extracts one partition of a random hash-partitioned
// graph, ready for a Data round trip.
func dataFixture(t *testing.T, seed int64, n, k, id int) *Subgraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	g := b.Build()
	pt, err := graph.HashPartition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return ExtractOne(g, pt, id)
}

// TestSubgraphDataRoundTrip: Data -> SubgraphFromData rebuilds a
// subgraph indistinguishable from the original.
func TestSubgraphDataRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sub := dataFixture(t, seed, 40+int(seed)*7, 3, int(seed)%3)
		got, err := SubgraphFromData(sub.Data())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sub, got) {
			t.Fatalf("seed %d: round trip changed the subgraph", seed)
		}
		// The exits are derived from the cross edges, whatever their order.
		d := sub.Data()
		d.Cross = slices.Clone(d.Cross)
		rand.New(rand.NewSource(seed)).Shuffle(len(d.Cross), func(i, j int) { d.Cross[i], d.Cross[j] = d.Cross[j], d.Cross[i] })
		shuffled, err := SubgraphFromData(d)
		if err != nil {
			t.Fatalf("seed %d: cross edges reordered: %v", seed, err)
		}
		if !slices.Equal(shuffled.Exits, sub.Exits) {
			t.Fatalf("seed %d: cross edges reordered: exits %v, want %v", seed, shuffled.Exits, sub.Exits)
		}
		// The reassembled subgraph answers searches identically.
		for v := int32(0); v < int32(sub.NumVertices()); v++ {
			if a, b := reach(sub, v), reach(got, v); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: forward reach from %d differs: %v vs %v", seed, v, a, b)
			}
		}
	}
}

// TestSubgraphFromDataRejects: every invariant the ownership search and
// query path rely on is enforced on load.
func TestSubgraphFromDataRejects(t *testing.T) {
	g, pt := twoBlock(t)
	sub := ExtractOne(g, pt, 0)

	cases := []struct {
		name string
		mut  func(*SubgraphData)
	}{
		{"global map not increasing", func(d *SubgraphData) { d.Global[0], d.Global[1] = d.Global[1], d.Global[0] }},
		{"offsets decrease", func(d *SubgraphData) { d.FOff[1] = d.FOff[len(d.FOff)-1] + 1 }},
		{"edge out of range", func(d *SubgraphData) { d.FEdges[0] = int32(len(d.Global)) }},
		{"offsets short of the edges", func(d *SubgraphData) { d.FEdges = append(d.FEdges, 0) }},
		{"offsets for another vertex count", func(d *SubgraphData) { d.FOff = d.FOff[1:] }},
		{"entry out of range", func(d *SubgraphData) { d.Entries = []int32{99} }},
		{"cross source not owned", func(d *SubgraphData) { d.Cross = [][2]graph.VertexID{{7, 5}} }},
		{"cross destination owned", func(d *SubgraphData) { d.Cross = [][2]graph.VertexID{{3, 2}} }},
	}
	for _, c := range cases {
		d := sub.Data()
		d.Global = append([]graph.VertexID{}, d.Global...)
		d.FOff = append([]int64{}, d.FOff...)
		d.FEdges = append([]int32{}, d.FEdges...)
		c.mut(&d)
		if _, err := SubgraphFromData(d); err == nil {
			t.Errorf("%s: accepted invalid data", c.name)
		}
	}
}
