package partition_test

import (
	"path/filepath"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
)

// TestStatsGoldenTiny pins partition-quality stats for all three
// partitioners on the tiny fixture (two 4-cycles joined by the bridge
// 3->4, k=2). The numbers are golden: they change only if a
// partitioner's assignment changes, which in a deployment would strand
// every running shard — exactly the kind of silent drift this test
// exists to catch. The fixture also documents the quality ordering:
// hash cuts the cycles to pieces, range happens to respect the ID
// layout, and locality *discovers* the two cycles from the edges alone
// (boundary = the bridge's two endpoints, cut = the bridge).
func TestStatsGoldenTiny(t *testing.T) {
	g, err := graph.LoadEdgeListFile(filepath.Join("..", "graph", "testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	cases := []struct {
		name string
		part func() (*graph.Partitioning, error)
		want partition.Stats
	}{
		{
			"hash",
			func() (*graph.Partitioning, error) { return graph.Hash().Partition(g, k) },
			partition.Stats{K: 2, NumVertices: 8, NumEdges: 9, BoundaryVertices: 7, CutEdges: 4, MaxPart: 5, MinPart: 3, Balance: 1.25},
		},
		{
			"range",
			func() (*graph.Partitioning, error) { return graph.Range().Partition(g, k) },
			partition.Stats{K: 2, NumVertices: 8, NumEdges: 9, BoundaryVertices: 2, CutEdges: 1, MaxPart: 4, MinPart: 4, Balance: 1},
		},
		{
			"locality",
			func() (*graph.Partitioning, error) { return locality.Partition(g, k, locality.Options{}) },
			partition.Stats{K: 2, NumVertices: 8, NumEdges: 9, BoundaryVertices: 2, CutEdges: 1, MaxPart: 4, MinPart: 4, Balance: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pt, err := c.part()
			if err != nil {
				t.Fatal(err)
			}
			if got := partition.ComputeStats(g, pt); got != c.want {
				t.Errorf("stats drifted:\n got  %+v\n want %+v", got, c.want)
			}
		})
	}
}

// TestStatsDegenerate covers the empty graph and the k=1 identities.
func TestStatsDegenerate(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	pt, err := graph.Hash().Partition(empty, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.ComputeStats(empty, pt); got != (partition.Stats{K: 3}) {
		t.Errorf("empty graph stats: %+v", got)
	}

	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	pt, err = graph.Hash().Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := partition.ComputeStats(g, pt)
	want := partition.Stats{K: 1, NumVertices: 4, NumEdges: 2, MaxPart: 4, MinPart: 4, Balance: 1}
	if got != want {
		t.Errorf("k=1 stats: got %+v, want %+v", got, want)
	}
}
