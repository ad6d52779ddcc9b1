package partition

import (
	"testing"

	"dsr/internal/graph"
)

// twoBlock builds the 8-vertex fixture graph (two 4-cycles with a bridge
// 3->4) range-partitioned into 2 parts: {0..3} and {4..7}.
func twoBlock(t *testing.T) (*graph.Graph, *graph.Partitioning) {
	t.Helper()
	b := graph.NewBuilder(8)
	edges := [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	pt, err := graph.RangePartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func TestExtractShape(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	if len(subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(subs))
	}
	if subs[0].NumVertices() != 4 || subs[1].NumVertices() != 4 {
		t.Fatalf("subgraph sizes %d/%d, want 4/4", subs[0].NumVertices(), subs[1].NumVertices())
	}
	// Each vertex maps back to itself through (partition, local).
	for v := 0; v < g.NumVertices(); v++ {
		s := subs[pt.Part[v]]
		if got := s.GlobalID(local[v]); got != graph.VertexID(v) {
			t.Errorf("GlobalID(local[%d]) = %d", v, got)
		}
	}
	// Partition 0 has no entries (nothing crosses into it) and one exit (3).
	if len(subs[0].Entries) != 0 {
		t.Errorf("partition 0 entries = %v, want none", subs[0].Entries)
	}
	if len(subs[0].Exits) != 1 || subs[0].GlobalID(subs[0].Exits[0]) != 3 {
		t.Errorf("partition 0 exits wrong")
	}
	// Partition 1 has one entry (4) and no exits.
	if len(subs[1].Entries) != 1 || subs[1].GlobalID(subs[1].Entries[0]) != 4 {
		t.Errorf("partition 1 entries wrong")
	}
	if len(subs[1].Exits) != 0 {
		t.Errorf("partition 1 exits = %v, want none", subs[1].Exits)
	}
}

// reach is a plain BFS over the subgraph's own adjacency — adj is s.Out
// or s.In — returning every local vertex reached from seed, seed first:
// the probe for what Extract put into the CSRs.
func reach(s *Subgraph, seed int32, adj func(int32) []int32) []int32 {
	seen := make([]bool, s.NumVertices())
	seen[seed] = true
	queue := []int32{seed}
	for head := 0; head < len(queue); head++ {
		for _, w := range adj(queue[head]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return queue
}

func TestReachForwardBackward(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	s0 := subs[pt.Part[0]]

	fwd := reach(s0, local[0], s0.Out)
	if len(fwd) != 4 {
		t.Fatalf("forward reach from 0 inside cycle = %d vertices, want 4", len(fwd))
	}
	back := reach(s0, local[0], s0.In)
	if len(back) != 4 {
		t.Fatalf("backward reach from 0 inside cycle = %d vertices, want 4", len(back))
	}
}

func TestReachStaysInPartition(t *testing.T) {
	g, pt := twoBlock(t)
	subs, local := Extract(g, pt)
	s0 := subs[pt.Part[3]]
	// The bridge 3->4 is cross-partition: forward reach from 3 must not
	// include any vertex of partition 1.
	for _, v := range reach(s0, local[3], s0.Out) {
		if gid := s0.GlobalID(v); gid >= 4 {
			t.Fatalf("local reach escaped partition: reached global %d", gid)
		}
	}
}
