package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"dsr/internal/graph"
)

// dataFixture extracts one partition of a random hash-partitioned graph
// and forces its condensation, ready for a Data round trip.
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
	sub := ExtractOne(g, pt, id)
	sub.Condensation()
	return sub
}

// TestSubgraphDataRoundTrip: Data -> SubgraphFromData rebuilds a
// subgraph indistinguishable from the original, cached condensation
// included.
func TestSubgraphDataRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sub := dataFixture(t, seed, 40+int(seed)*7, 3, int(seed)%3)
		got, err := SubgraphFromData(sub.Data(), sub.Condensation())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sub, got) {
			t.Fatalf("seed %d: round trip changed the subgraph", seed)
		}
		// The reassembled subgraph answers searches identically.
		for v := int32(0); v < int32(sub.NumVertices()); v++ {
			if a, b := reach(sub, v, sub.Out), reach(got, v, got.Out); !reflect.DeepEqual(a, b) {
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
	cond := sub.Condensation()

	cases := []struct {
		name string
		mut  func(*SubgraphData)
	}{
		{"global map not increasing", func(d *SubgraphData) { d.Global[0], d.Global[1] = d.Global[1], d.Global[0] }},
		{"offsets decrease", func(d *SubgraphData) { d.FOff[1] = d.FOff[len(d.FOff)-1] + 1 }},
		{"edge out of range", func(d *SubgraphData) { d.FEdges[0] = int32(len(d.Global)) }},
		{"transpose mismatch", func(d *SubgraphData) {
			for i := 1; i < len(d.ROff); i++ {
				d.ROff[i]--
			}
			d.REdges = d.REdges[1:]
		}},
		{"exit list not increasing", func(d *SubgraphData) { d.Exits = []int32{1, 0} }},
		{"entry out of range", func(d *SubgraphData) { d.Entries = []int32{99} }},
		{"cross source not owned", func(d *SubgraphData) { d.Cross = [][2]graph.VertexID{{7, 5}} }},
		{"cross destination owned", func(d *SubgraphData) { d.Cross = [][2]graph.VertexID{{3, 2}} }},
	}
	for _, c := range cases {
		d := sub.Data()
		d.Global = append([]graph.VertexID{}, d.Global...)
		d.FOff = append([]int64{}, d.FOff...)
		d.FEdges = append([]int32{}, d.FEdges...)
		d.ROff = append([]int64{}, d.ROff...)
		d.REdges = append([]int32{}, d.REdges...)
		c.mut(&d)
		if _, err := SubgraphFromData(d, cond); err == nil {
			t.Errorf("%s: accepted invalid data", c.name)
		}
	}

	// Condensation sized for a different subgraph, or missing outright.
	other := dataFixture(t, 99, 30, 2, 0)
	if _, err := SubgraphFromData(sub.Data(), other.Condensation()); err == nil {
		t.Error("accepted condensation for a different subgraph")
	}
	if _, err := SubgraphFromData(sub.Data(), nil); err == nil {
		t.Error("accepted nil condensation")
	}
}
