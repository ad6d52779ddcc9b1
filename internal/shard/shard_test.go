package shard

import (
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/wire"
)

// buildShards extracts per-partition shards from a small graph.
func buildShards(t testing.TB, n int, edges [][2]graph.VertexID, k int) ([]*Shard, *graph.Partitioning) {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	pt, err := graph.RangePartition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	shards := make([]*Shard, len(subs))
	for i, s := range subs {
		shards[i] = New(i, s)
	}
	return shards, pt
}

// chainFixture is 0->1->2->3->4->5 range-split into 3 partitions of two
// vertices each: 1, 3, 5 are never entries; 2, 4 are entries; 1, 3 are
// exits.
func chainFixture(t testing.TB) ([]*Shard, *graph.Partitioning) {
	return buildShards(t, 6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, 3)
}

// chainBoundary is the chain fixture's boundary list per partition
// (pinned by TestShardSummary): what a result's Boundary ordinals index.
var chainBoundary = [3][]uint32{{1}, {2, 3}, {4}}

// chainReached translates the Boundary of a result from the chain
// fixture's partition p — ordinals — into the vertices it stands for.
func chainReached(p int, ords []uint32) []uint32 {
	verts := make([]uint32, len(ords))
	for i, o := range ords {
		verts[i] = chainBoundary[p][o]
	}
	return verts
}

func TestShardRunForwardBackward(t *testing.T) {
	shards, _ := chainFixture(t)

	// Forward from global 0 in shard 0: reaches exit 1, no local target.
	res := shards[0].Run([]wire.Task{
		{Kind: wire.Forward, Query: 7, Seeds: []int32{0}},
	})
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	if res[0].Query != 7 || res[0].Kind != wire.Forward || res[0].Hit {
		t.Fatalf("bad result header: %+v", res[0])
	}
	if res[0].Owned != 1 {
		t.Fatalf("Owned = %d, want 1", res[0].Owned)
	}
	if !slices.Equal(chainReached(0, res[0].Boundary), []uint32{1}) {
		t.Fatalf("forward boundary = %v, want [1]", res[0].Boundary)
	}

	// Forward with a local target: 0 reaches 1 inside the partition.
	res = shards[0].Run([]wire.Task{
		{Kind: wire.Forward, Query: 0, Seeds: []int32{0}, Targets: []int32{1}},
	})
	if !res[0].Hit {
		t.Fatal("expected local hit 0 ~> 1")
	}

	// Backward from global 5 in shard 2: entry 4 reaches it.
	res = shards[2].Run([]wire.Task{
		{Kind: wire.Backward, Query: 3, Seeds: []int32{5}},
	})
	if !slices.Equal(chainReached(2, res[0].Boundary), []uint32{4}) {
		t.Fatalf("backward boundary = %v, want [4]", res[0].Boundary)
	}

	// A batch mixes kinds and returns results in task order.
	res = shards[1].Run([]wire.Task{
		{Kind: wire.Forward, Query: 1, Seeds: []int32{2}},
		{Kind: wire.Backward, Query: 2, Seeds: []int32{3}},
	})
	if len(res) != 2 || res[0].Query != 1 || res[1].Query != 2 {
		t.Fatalf("batch order broken: %+v", res)
	}
	// Both searches stop at once: 2 is an entry that reaches exit 3, and
	// the summary edge (2, 3) carries each side on to the other.
	if !slices.Equal(chainReached(1, res[0].Boundary), []uint32{2}) {
		t.Fatalf("batch forward boundary = %v, want [2]", res[0].Boundary)
	}
	if !slices.Equal(chainReached(1, res[1].Boundary), []uint32{3}) {
		t.Fatalf("batch backward boundary = %v, want [3]", res[1].Boundary)
	}
}

// TestShardSkipsUnownedSeeds pins the broadcast contract: seeds (and
// targets) are global IDs, a shard silently skips the ones it doesn't
// hold, and Owned reports exactly how many it did — including zero for
// a batch aimed entirely at other partitions or out of range.
func TestShardSkipsUnownedSeeds(t *testing.T) {
	shards, _ := chainFixture(t)

	// Shard 0 owns {0,1}: of seeds {0, 4, 99} it holds only 0, and the
	// target 5 (owned by shard 2) must not count as a local hit.
	res := shards[0].Run([]wire.Task{
		{Kind: wire.Forward, Query: 1, Seeds: []int32{0, 4, 99}, Targets: []int32{5}},
	})
	if res[0].Owned != 1 {
		t.Fatalf("Owned = %d, want 1", res[0].Owned)
	}
	if res[0].Hit {
		t.Fatal("unowned target counted as local hit")
	}
	if !slices.Equal(chainReached(0, res[0].Boundary), []uint32{1}) {
		t.Fatalf("boundary = %v, want [1]", res[0].Boundary)
	}

	// A batch aimed entirely elsewhere: Owned 0, empty search.
	res = shards[1].Run([]wire.Task{
		{Kind: wire.Forward, Query: 2, Seeds: []int32{0, 5}},
		{Kind: wire.Backward, Query: 3, Seeds: []int32{-1, 100}},
	})
	for i, r := range res {
		if r.Owned != 0 {
			t.Fatalf("task %d: Owned = %d, want 0", i, r.Owned)
		}
		if r.Hit || len(r.Boundary) != 0 {
			t.Fatalf("task %d: empty search produced %+v", i, r)
		}
	}
}

// TestShardSummary pins the boundary summary on the chain fixture:
// boundary vertices in strictly increasing global order, entry->exit
// summary edges, and outgoing cross-partition edges.
func TestShardSummary(t *testing.T) {
	shards, _ := chainFixture(t)

	// Shard 0 ({0,1}): 1 is an exit, nothing is an entry; no internal
	// entry->exit pair; one cross edge 1->2.
	s0 := shards[0].Summary()
	if !slices.Equal(s0.Boundary, []uint32{1}) {
		t.Fatalf("shard 0 boundary = %v, want [1]", s0.Boundary)
	}
	if len(s0.Edges) != 0 {
		t.Fatalf("shard 0 summary edges = %v, want none", s0.Edges)
	}
	if !slices.Equal(s0.Cross, [][2]uint32{{1, 2}}) {
		t.Fatalf("shard 0 cross = %v, want [[1 2]]", s0.Cross)
	}

	// Shard 1 ({2,3}): entry 2, exit 3, summary edge 2->3, cross 3->4.
	s1 := shards[1].Summary()
	if !slices.Equal(s1.Boundary, []uint32{2, 3}) {
		t.Fatalf("shard 1 boundary = %v, want [2 3]", s1.Boundary)
	}
	if !slices.Equal(s1.Edges, [][2]uint32{{2, 3}}) {
		t.Fatalf("shard 1 summary edges = %v, want [[2 3]]", s1.Edges)
	}
	if !slices.Equal(s1.Cross, [][2]uint32{{3, 4}}) {
		t.Fatalf("shard 1 cross = %v, want [[3 4]]", s1.Cross)
	}

	// Shard 2 ({4,5}): entry 4, no exits, no cross edges out.
	s2 := shards[2].Summary()
	if !slices.Equal(s2.Boundary, []uint32{4}) {
		t.Fatalf("shard 2 boundary = %v, want [4]", s2.Boundary)
	}
	if len(s2.Edges) != 0 || len(s2.Cross) != 0 {
		t.Fatalf("shard 2 edges/cross = %v/%v, want none", s2.Edges, s2.Cross)
	}

	// Built once by New: the second call returns the identical slices.
	again := shards[1].Summary()
	if &again.Boundary[0] != &s1.Boundary[0] || &again.Edges[0] != &s1.Edges[0] {
		t.Fatal("Summary rebuilt instead of returning the stored value")
	}
}
