package partition

import (
	"slices"
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
	pt, err := graph.Range().Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func TestExtractShape(t *testing.T) {
	g, pt := twoBlock(t)
	subs := Extract(g, pt)
	if len(subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(subs))
	}
	if subs[0].NumVertices() != 4 || subs[1].NumVertices() != 4 {
		t.Fatalf("subgraph sizes %d/%d, want 4/4", subs[0].NumVertices(), subs[1].NumVertices())
	}
	// Each vertex maps back to itself through (partition, local).
	for v := 0; v < g.NumVertices(); v++ {
		s := subs[pt.Part[v]]
		lv, ok := s.Local(graph.VertexID(v))
		if got := s.GlobalID(lv); !ok || got != graph.VertexID(v) {
			t.Errorf("GlobalID(Local(%d)) = %d,%v", v, got, ok)
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

// boundaryOf extracts every partition of pt and returns the global IDs
// of all entries and all exits, each in increasing order, beside the
// boundary count ComputeStats reports for pt.
func boundaryOf(t *testing.T, g *graph.Graph, pt *graph.Partitioning) (entries, exits []graph.VertexID, stats int) {
	t.Helper()
	for _, s := range Extract(g, pt) {
		for _, lv := range s.Entries {
			entries = append(entries, s.GlobalID(lv))
		}
		for _, lv := range s.Exits {
			exits = append(exits, s.GlobalID(lv))
		}
	}
	slices.Sort(entries)
	slices.Sort(exits)
	return entries, exits, ComputeStats(g, pt).BoundaryVertices
}

// TestBoundaryDetection checks the entries and exits extraction derives
// on a hand-built graph, and the boundary count ComputeStats agrees on.
func TestBoundaryDetection(t *testing.T) {
	// Two partitions by range over 4 vertices: {0,1} and {2,3}.
	// Edges: 0->1 (internal), 1->2 (cross), 2->3 (internal), 3->0 (cross).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	pt, err := graph.Range().Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	entries, exits, nb := boundaryOf(t, g, pt)
	if want := []graph.VertexID{0, 2}; !slices.Equal(entries, want) {
		t.Errorf("entries %v, want %v", entries, want)
	}
	if want := []graph.VertexID{1, 3}; !slices.Equal(exits, want) {
		t.Errorf("exits %v, want %v", exits, want)
	}
	if nb != 4 {
		t.Errorf("ComputeStats boundary = %d, want 4", nb)
	}
}

func TestBoundaryNoneWhenSinglePartition(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g := b.Build()
	pt, err := graph.Hash().Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if entries, exits, nb := boundaryOf(t, g, pt); len(entries)+len(exits)+nb != 0 {
		t.Fatalf("k=1 graph has entries %v, exits %v, %d boundary vertices, want none", entries, exits, nb)
	}
}

func TestBoundaryInternalEdgesOnly(t *testing.T) {
	// All edges inside range partition 0 of two: 0..2 in part 0, no
	// vertex in part 1 touches an edge.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	pt, err := graph.Range().Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if entries, exits, nb := boundaryOf(t, g, pt); len(entries)+len(exits)+nb != 0 {
		t.Fatalf("internal-only edges gave entries %v, exits %v, %d boundary vertices, want none", entries, exits, nb)
	}
}

// reach is a plain BFS over the subgraph's own adjacency, returning
// every local vertex reached from seed, seed first: the probe for what
// Extract put into the CSR.
func reach(s *Subgraph, seed int32) []int32 {
	seen := make([]bool, s.NumVertices())
	seen[seed] = true
	queue := []int32{seed}
	for head := 0; head < len(queue); head++ {
		for _, w := range s.Out(queue[head]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return queue
}

func TestReachForward(t *testing.T) {
	g, pt := twoBlock(t)
	s0 := Extract(g, pt)[pt.Part[0]]
	l0, _ := s0.Local(0)
	if fwd := reach(s0, l0); len(fwd) != 4 {
		t.Fatalf("forward reach from 0 inside cycle = %d vertices, want 4", len(fwd))
	}
}

func TestReachStaysInPartition(t *testing.T) {
	g, pt := twoBlock(t)
	s0 := Extract(g, pt)[pt.Part[3]]
	l3, _ := s0.Local(3)
	// The bridge 3->4 is cross-partition: forward reach from 3 must not
	// include any vertex of partition 1.
	for _, v := range reach(s0, l3) {
		if gid := s0.GlobalID(v); gid >= 4 {
			t.Fatalf("local reach escaped partition: reached global %d", gid)
		}
	}
}
