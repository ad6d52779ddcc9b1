package shard

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/scc"
	"dsr/internal/wire"
)

// summaryOf builds one shard per range partition of the n-vertex graph
// with the given edges and returns each one's summary edges.
func summaryOf(t *testing.T, n int, edges [][2]graph.VertexID, k int) [][][2]uint32 {
	t.Helper()
	shards, _ := buildShards(t, n, edges, k)
	out := make([][][2]uint32, len(shards))
	for p, s := range shards {
		out[p] = s.Summary().Edges
	}
	return out
}

func TestSummaryCompression(t *testing.T) {
	// Chain across three range partitions of {0,1},{2,3},{4,5}:
	// 0->1->2->3->4->5. Middle partition: entry 2 reaches exit 3; the
	// first has no entries and the last no exits, so neither has an edge.
	got := summaryOf(t, 6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}, 3)
	for p, want := range [][][2]uint32{nil, {{2, 3}}, nil} {
		if !slices.Equal(got[p], want) {
			t.Fatalf("partition %d summary = %v, want %v", p, got[p], want)
		}
	}
}

func TestSummaryEntryIsExit(t *testing.T) {
	// 0 -> 1 -> 2 with singleton middle partition {1}: vertex 1 is both
	// entry and exit, its one key component holds nothing else and
	// reaches no other, so the skeleton has no edge: the entry→exit pair
	// (1, 1) holds by the closure's reflexivity.
	got := summaryOf(t, 3, [][2]graph.VertexID{{0, 1}, {1, 2}}, 3)[1]
	if len(got) != 0 {
		t.Fatalf("singleton boundary summary = %v, want none", got)
	}
	// With a cycle 2 -> 3 -> 2 in the middle partition {2, 3}, entry 2
	// also an exit and 3 an exit, the key component {2, 3} contributes
	// its cycle and nothing else.
	got = summaryOf(t, 6, [][2]graph.VertexID{{0, 2}, {2, 3}, {3, 2}, {3, 4}, {2, 5}}, 3)[1]
	if want := [][2]uint32{{2, 3}, {3, 2}}; !slices.Equal(got, want) {
		t.Fatalf("two-vertex key component summary = %v, want %v", got, want)
	}
}

func TestSummaryDisconnectedBoundary(t *testing.T) {
	// Middle partition {2,3} of 0->2, 3->4: entry 2 cannot reach exit 3,
	// so no summary edge.
	if got := summaryOf(t, 6, [][2]graph.VertexID{{0, 2}, {3, 4}}, 3)[1]; len(got) != 0 {
		t.Fatalf("disconnected boundary summary = %v, want empty", got)
	}
}

func TestSummaryMultipleExits(t *testing.T) {
	// Middle partition {2,3} with entry 2, internal edge 2->3, and both
	// 2 and 3 exiting: two key components, and the skeleton's one edge
	// is 2's first reach, (2,3).
	got := summaryOf(t, 6, [][2]graph.VertexID{{0, 2}, {2, 3}, {2, 4}, {3, 5}}, 3)[1]
	if want := [][2]uint32{{2, 3}}; !slices.Equal(got, want) {
		t.Fatalf("summary = %v, want %v", got, want)
	}
}

// summaryBFS is the entry→exit summary the skeleton replaced: one
// forward vertex-level BFS per entry over the subgraph's own adjacency,
// O(B·(V+E)) for B entries, each entry's exits sorted by global ID.
func summaryBFS(s *partition.Subgraph) [][2]uint32 {
	isExit := make([]bool, s.NumVertices())
	for _, x := range s.Exits {
		isExit[x] = true
	}
	var pairs [][2]uint32
	for _, e := range s.Entries {
		seen := make([]bool, s.NumVertices())
		seen[e] = true
		var exits []uint32
		for queue := []int32{e}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			if isExit[v] {
				exits = append(exits, s.GlobalID(v))
			}
			for _, w := range s.Out(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(exits)
		for _, x := range exits {
			pairs = append(pairs, [2]uint32{s.GlobalID(e), x})
		}
	}
	return pairs
}

// summaryIndex reads the entry→exit summary off scc's bitset index:
// entries in order, each one's exits in bit order.
func summaryIndex(s *partition.Subgraph) [][2]uint32 {
	ix := scc.BuildIndex(scc.Condense(s, nil), s.Exits)
	var pairs [][2]uint32
	var buf []int32
	for _, e := range s.Entries {
		buf = ix.AppendExitsFrom(e, buf[:0])
		for _, x := range buf {
			pairs = append(pairs, [2]uint32{s.GlobalID(e), s.GlobalID(x)})
		}
	}
	return pairs
}

// randomPartitions calls check on every partition of 220 random graphs
// of up to 120 vertices and mean out-degree 0.5–4, each split 2–5 ways
// by hash or range, and fails unless at least 200 were checked.
func randomPartitions(t *testing.T, seed int64, check func(gi, p int, sub *partition.Subgraph)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for gi := 0; gi < 220; gi++ {
		n := 1 + rng.Intn(120)
		deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		b := graph.NewBuilder(n)
		for i := 0; i < int(float64(n)*deg); i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		strat := []graph.Partitioner{graph.Hash(), graph.Range()}[rng.Intn(2)]
		pt, err := strat.Partition(g, 2+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		subs := partition.Extract(g, pt)
		for p, sub := range subs {
			check(gi, p, sub)
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d partitions checked, want >= 200", checked)
	}
}

// summaryReach is the entry→exit summary read off one component-level
// BFS per entry, which costs each entry its closure and not the
// partition: fit for the benchmark graph's hash partitions, where there
// are tens of thousands of entries.
func summaryReach(s *Shard) [][2]uint32 {
	ref := newReference(s)
	var pairs [][2]uint32
	var q []int32
	for _, e := range s.sub.Entries {
		q = s.bfs([]int32{e}, true, nil, &ref.cvisit, q)
		var exits []uint32
		for _, c := range q {
			for _, v := range ref.members[c] {
				if ref.isExit[v] {
					exits = append(exits, s.sub.GlobalID(v))
				}
			}
		}
		slices.Sort(exits)
		for _, x := range exits {
			pairs = append(pairs, [2]uint32{s.sub.GlobalID(e), x})
		}
	}
	return pairs
}

// checkSkeleton holds s's summary to what the first-boundary skeleton
// must be, given old, the partition's entry→exit summary: strictly
// increasing edges between boundary vertices, each one a local path,
// whose transitive closure over the boundary vertices holds every old
// pair — so the closure lies inside local reachability and contains
// everything the old summary stated.
func checkSkeleton(t testing.TB, name string, s *Shard, old [][2]uint32) {
	t.Helper()
	edges := s.Summary().Edges
	for i := 1; i < len(edges); i++ {
		if cmp.Or(cmp.Compare(edges[i-1][0], edges[i][0]), cmp.Compare(edges[i-1][1], edges[i][1])) >= 0 {
			t.Fatalf("%s: summary edges %v, %v out of order", name, edges[i-1], edges[i])
		}
	}
	sk := skeletonOf(t, s)
	ref := newReference(s)
	var q []int32
	for i := 0; i < len(edges); {
		u := edges[i][0]
		lu, _ := s.sub.Local(u)
		q = s.bfs([]int32{lu}, true, nil, &ref.cvisit, q)
		for ; i < len(edges) && edges[i][0] == u; i++ {
			if lv, _ := s.sub.Local(edges[i][1]); !ref.cvisit.seen(s.cond.Comp[lv]) {
				t.Fatalf("%s: summary edge %v is no local path", name, edges[i])
			}
		}
	}
	list := s.Summary().Boundary
	ord := func(v uint32) int32 { o, _ := slices.BinarySearch(list, v); return int32(o) }
	visit := markSet{at: make([]uint32, len(list))}
	for i := 0; i < len(old); {
		e := old[i][0]
		closure(sk.succ, []int32{ord(e)}, &visit)
		for ; i < len(old) && old[i][0] == e; i++ {
			if !visit.seen(ord(old[i][1])) {
				t.Fatalf("%s: old summary edge %v is not in the skeleton's closure", name, old[i])
			}
		}
	}
}

// TestSummarySweepVsBFSDifferential holds the sweep's skeleton to the
// per-entry BFS's entry→exit summary on random graphs and
// partitionings (checkSkeleton).
func TestSummarySweepVsBFSDifferential(t *testing.T) {
	randomPartitions(t, 20260728, func(gi, p int, sub *partition.Subgraph) {
		checkSkeleton(t, fmt.Sprintf("graph %d partition %d", gi, p), New(p, sub), summaryBFS(sub))
	})
}

// TestSummarySkeletonClosure is checkSkeleton on every partition of the
// sweep's fixtures — the gen families among them — and, outside
// -short, of the benchmark family's graph (200k vertices, instance 4)
// at k = 3 under hash and locality (seed 1) partitioning, against the
// entry→exit summary read off the condensation (summaryReach). The
// benchmark graph's skeletons must also be smaller than that summary.
func TestSummarySkeletonClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for _, fx := range sweepFixtures(t, rng) {
		for p, sub := range partition.Extract(fx.g, fx.pt) {
			s := New(p, sub)
			old := summaryReach(s)
			if want := summaryBFS(sub); !slices.Equal(old, want) {
				t.Fatalf("%s partition %d: summaryReach %v, summaryBFS %v", fx.name, p, old, want)
			}
			checkSkeleton(t, fmt.Sprintf("%s partition %d", fx.name, p), s, old)
		}
	}
	if testing.Short() {
		t.Skip("the benchmark graph's partitions: not under -short")
	}
	g := gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		pt, err := strat.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			s := New(p, partition.ExtractOne(g, pt, p))
			old := summaryReach(s)
			checkSkeleton(t, fmt.Sprintf("%s partition %d", strat.Name(), p), s, old)
			if got := len(s.Summary().Edges); got == 0 || got >= len(old) {
				t.Errorf("%s partition %d: %d skeleton edges for %d entry→exit pairs", strat.Name(), p, got, len(old))
			}
		}
	}
}

// TestSummaryMatchesIndex holds the sweep's skeleton to the bitset
// index's entry→exit summary (checkSkeleton): on random partitions
// and, outside -short, on the benchmark family's graph (200k vertices)
// under hash and locality partitioning. The hash partitions' indexes
// take ~400 MB each, so that half also skips under the race detector,
// whose shadow memory multiplies it.
func TestSummaryMatchesIndex(t *testing.T) {
	randomPartitions(t, 20261015, func(gi, p int, sub *partition.Subgraph) {
		checkSkeleton(t, fmt.Sprintf("graph %d partition %d", gi, p), New(p, sub), summaryIndex(sub))
	})
	if testing.Short() || raceEnabled {
		t.Skip("the benchmark graph's partitions: not under -short or -race")
	}
	g := gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		pt, err := strat.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			sub := partition.ExtractOne(g, pt, p)
			s := New(p, sub)
			checkSkeleton(t, fmt.Sprintf("%s partition %d", strat.Name(), p), s, summaryIndex(sub))
			if len(s.Summary().Edges) == 0 {
				t.Fatalf("%s partition %d: no summary edges", strat.Name(), p)
			}
		}
	}
}

// TestSummaryDigestPinned pins every partition's encoded summary —
// boundary, skeleton edges and cross edges, as the wire carries them
// to the coordinator — on the benchmark family's graph (200k vertices,
// instance 4) at k = 3 under hash and locality (seed 1) partitioning,
// at the digests of the first-boundary skeleton: what a shard ships
// changes only with summary semantics, and a fleet refuses a replica
// that ships another summary (the hello's summary digest).
func TestSummaryDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the benchmark graph's partitions: not under -short")
	}
	g := gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	for _, c := range []struct {
		strat graph.Partitioner
		want  string
	}{
		{graph.Hash(), "0xbe551585e0db0f32"},
		{locality.New(locality.Options{Seed: 1}), "0x8507d88de44eac25"},
	} {
		pt, err := c.strat.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for p := 0; p < 3; p++ {
			h.Write(wire.AppendSummary(nil, New(p, partition.ExtractOne(g, pt, p)).Summary()))
		}
		if got := fmt.Sprintf("%#x", h.Sum64()); got != c.want {
			t.Errorf("%s: summaries digest %s, want %s", c.strat.Name(), got, c.want)
		}
	}
}

// TestSummaryReplicasShareSubgraph builds three shards over one
// subgraph, as R local replicas of a partition are, and reads their
// summaries from three goroutines at once: nothing may be built lazily
// on the shared subgraph (the race detector would see the writes), the
// three must agree, and each summary's cross edges are the subgraph's
// own, not a copy.
func TestSummaryReplicasShareSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	g := gen.Community(rng, 300, 4, 1.6, 0.1, 0.02)
	pt, err := graph.Hash().Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	replicas := []*Shard{New(1, subs[1]), New(1, subs[1]), New(1, subs[1])}
	sums := make([][]byte, len(replicas))
	var wg sync.WaitGroup
	for i, s := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = wire.AppendSummary(nil, s.Summary())
		}()
	}
	wg.Wait()
	for i := range sums {
		if !slices.Equal(sums[i], sums[0]) {
			t.Fatalf("replica %d's summary differs from replica 0's", i)
		}
	}
	if len(replicas[0].Summary().Edges) == 0 || len(subs[1].Cross) == 0 {
		t.Fatal("fixture has no summary edges or no cross edges")
	}
	for i, s := range replicas {
		if cross := s.Summary().Cross; len(cross) != len(subs[1].Cross) || &cross[0] != &subs[1].Cross[0] {
			t.Fatalf("replica %d's summary holds a copy of the subgraph's cross edges", i)
		}
	}
}

// TestShardsShareSubgraph builds four shards over one freshly extracted
// subgraph from four goroutines at once, as a fleet's replica dialers
// may: New only reads the subgraph (the race detector would see any
// write), and the four summaries must be equal.
func TestShardsShareSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	g := gen.Community(rng, 400, 4, 1.6, 0.1, 0.02)
	pt, err := graph.Hash().Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	sub := partition.ExtractOne(g, pt, p)
	sums := make([]wire.Summary, 4)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = New(p, sub).Summary()
		}()
	}
	wg.Wait()
	for i := range sums {
		if !reflect.DeepEqual(sums[i], sums[0]) {
			t.Fatalf("shard %d's summary differs from shard 0's", i)
		}
	}
	if len(sums[0].Edges) == 0 {
		t.Fatal("fixture has no summary edges")
	}
}

// TestSummaryLeavesQueryStateFresh: building the summary runs the query
// walk, and a new shard must not show it — no run statistics, no grown
// result or boundary buffers, no stamp ahead of the counter.
func TestSummaryLeavesQueryStateFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			if s.LastRun() != (RunStats{}) || s.results != nil || s.arena != nil {
				t.Fatalf("%s shard %d: LastRun %+v, %d results, %d arena words after New", fx.name, p, s.LastRun(), len(s.results), len(s.arena))
			}
			checkScratchClean(t, s)
		}
	}
}
