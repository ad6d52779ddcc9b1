package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/snapshot"
	"dsr/internal/wire"
)

// reference runs batches the way the sweep's contract reads, one
// scalar component-level BFS per task over the whole condensation, and
// is what the sweep is checked against. It is a first-boundary search:
// it visits a key component — one on an entry→exit path that holds an
// entry or an exit — seed components included, but goes no further, in
// either direction. (A boundary vertex on no such path is no stop: the
// coordinator's skeleton carries nothing on from it, so a search must
// go on past it.) Hit is a target's component visited, and Boundary the
// entries and exits of every visited component that reaches an exit
// (Forward) or that an entry reaches (Backward), picked out of its
// member list — of a key component only the smallest, its
// representative; the rest the coordinator can do nothing with.
// Its answers owe nothing to the Shard's regions or pruned DAGs: it
// derives what reaches an exit and what an entry reaches itself, with
// one BFS each. It reads the Shard's graph state and owns its own
// scratch, so it can run beside the Shard's Run.
type reference struct {
	s       *Shard
	members [][]int32 // per component, its vertices (memberLists)
	isEntry []bool
	isExit  []bool
	// Per component: it reaches a component holding an exit, an entry's
	// component reaches it (each itself included).
	toExit, fromEntry []bool
	// Per component: it is key — the search visits it, but goes no
	// further, and reports its representative alone.
	stop    []bool
	cvisit  markSet
	cqueue  []int32
	lseeds  []int32
	results []wire.Result
	arena   []uint32
	visited int // components visited, summed over the last run's tasks
	// Those of visited the pruned sweep may expand: not sink side for a
	// Forward task, regionIn for a Backward one.
	expandable int
}

// markSet is the reference's visited set, epoch-stamped so that
// clearing it is O(1).
type markSet struct {
	at    []uint32
	epoch uint32
}

func (m *markSet) reset() { m.epoch++ }

// mark marks v and reports whether this generation had not yet.
func (m *markSet) mark(v int32) bool {
	fresh := m.at[v] != m.epoch
	m.at[v] = m.epoch
	return fresh
}

func (m *markSet) seen(v int32) bool { return m.at[v] == m.epoch }

func newReference(s *Shard) *reference {
	n := s.cond.N
	r := &reference{
		s:         s,
		members:   memberLists(s.cond.Comp, n),
		isEntry:   make([]bool, s.sub.NumVertices()),
		isExit:    make([]bool, s.sub.NumVertices()),
		toExit:    make([]bool, n),
		fromEntry: make([]bool, n),
		stop:      make([]bool, n),
		cvisit:    markSet{at: make([]uint32, n)},
	}
	for _, e := range s.sub.Entries {
		r.isEntry[e] = true
	}
	for _, x := range s.sub.Exits {
		r.isExit[x] = true
	}
	for _, c := range s.bfs(s.sub.Exits, false, nil, &r.cvisit, nil) {
		r.toExit[c] = true
	}
	for _, c := range s.bfs(s.sub.Entries, true, nil, &r.cvisit, nil) {
		r.fromEntry[c] = true
	}
	for _, v := range append(slices.Clone(s.sub.Entries), s.sub.Exits...) {
		c := s.cond.Comp[v]
		r.stop[c] = r.toExit[c] && r.fromEntry[c]
	}
	return r
}

// memberLists reads every component's member list off the
// vertex→component map: row c holds the vertices of component c,
// increasing.
func memberLists(comp []int32, n int) [][]int32 {
	rows := make([][]int32, n)
	for v, c := range comp {
		rows[c] = append(rows[c], int32(v))
	}
	return rows
}

// bfs runs a component-level BFS from the components of the given local
// seed vertices, forward or backward over the condensation DAG, marking
// what it visits in visit and returning the visited components in q. A
// component stop says true of is visited but not expanded; a nil stop
// expands everything.
func (s *Shard) bfs(seeds []int32, forward bool, stop []bool, visit *markSet, q []int32) []int32 {
	visit.reset()
	q = q[:0]
	for _, v := range seeds {
		if c := s.cond.Comp[v]; visit.mark(c) {
			q = append(q, c)
		}
	}
	for head := 0; head < len(q); head++ {
		if stop != nil && stop[q[head]] {
			continue
		}
		nbrs := s.cond.In(q[head])
		if forward {
			nbrs = s.cond.Out(q[head])
		}
		for _, d := range nbrs {
			if visit.mark(d) {
				q = append(q, d)
			}
		}
	}
	return q
}

// run is the reference Run: same contract, except that Boundary holds
// the reported boundary vertices themselves — global IDs, in BFS order
// — where Run reports their ordinals.
func (r *reference) run(tasks []wire.Task) []wire.Result {
	s := r.s
	res, arena := r.results[:0], r.arena[:0]
	r.visited, r.expandable = 0, 0
	for i := range tasks {
		t := &tasks[i]
		out := wire.Result{Kind: t.Kind, Query: t.Query}
		lseeds := r.lseeds[:0]
		for _, v := range t.Seeds {
			if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
				lseeds = append(lseeds, lv)
			}
		}
		r.lseeds = lseeds
		out.Owned = uint32(len(lseeds))
		forward := t.Kind == wire.Forward
		useful := r.fromEntry
		if forward {
			useful = r.toExit
		}
		r.cqueue = s.bfs(lseeds, forward, r.stop, &r.cvisit, r.cqueue)
		r.visited += len(r.cqueue)
		for _, c := range r.cqueue {
			if reg := s.region[c] & regionBits; forward && reg != regionSink || !forward && reg&regionIn != 0 {
				r.expandable++
			}
		}
		if forward {
			for _, v := range t.Targets {
				if lv, ok := s.sub.Local(graph.VertexID(v)); ok && r.cvisit.seen(s.cond.Comp[lv]) {
					out.Hit = true
					break
				}
			}
		}
		start := len(arena)
		for _, c := range r.cqueue {
			if !useful[c] {
				continue
			}
			for _, v := range r.members[c] {
				if r.isEntry[v] || r.isExit[v] {
					arena = append(arena, s.sub.GlobalID(v))
					if r.stop[c] {
						break
					}
				}
			}
		}
		out.Boundary = arena[start:len(arena):len(arena)]
		res = append(res, out)
	}
	r.results, r.arena = res, arena
	return res
}

// reached translates a result's Boundary — ordinals into the shard's
// boundary list, the one its summary ships — into the vertices they
// stand for.
func reached(t testing.TB, s *Shard, r wire.Result) []uint32 {
	t.Helper()
	list := s.Summary().Boundary
	verts := make([]uint32, len(r.Boundary))
	for i, ord := range r.Boundary {
		if int(ord) >= len(list) {
			t.Fatalf("shard %d: result %+v reports ordinal %d of a %d-vertex boundary", s.id, r, ord, len(list))
		}
		verts[i] = list[ord]
	}
	return verts
}

// checkScratchClean asserts what every sweep relies on finding: the
// task masks and the target marks, the two frontiers' bitmaps, the
// per-bit cursors, the chunk and the parked, aims and marked lists all
// zero.
func checkScratchClean(t testing.TB, s *Shard) {
	t.Helper()
	for name, words := range map[string][]uint64{
		"mask": s.mask, "todo.active": s.todo.active, "todo.top": s.todo.top,
		"tmask": s.tmask, "marks.active": s.marks.active, "marks.top": s.marks.top,
	} {
		for i, w := range words {
			if w != 0 {
				t.Fatalf("shard %d: %s[%d] = %#x after Run", s.id, name, i, w)
			}
		}
	}
	if s.cursor != [sweepChunk]int{} || len(s.chunk)+len(s.parked)+len(s.aims)+len(s.marked) != 0 {
		t.Fatalf("shard %d: cursor %v / chunk %v / parked %v / aims %v / marked %v not reset after Run",
			s.id, s.cursor, s.chunk, s.parked, s.aims, s.marked)
	}
}

// checkAgainstReference runs the batch through the sweep and through
// the reference and compares task by task: Kind, Query, Hit and Owned
// exactly, Boundary — the sweep's translated from ordinals — as a set
// (the two order it differently; neither may repeat a vertex). It also checks LastRun against what the reference
// saw, and that the scratch is clean afterwards.
func checkAgainstReference(t testing.TB, s *Shard, ref *reference, tasks []wire.Task) []wire.Result {
	t.Helper()
	got, want := s.Run(tasks), ref.run(tasks)
	if len(got) != len(tasks) || len(want) != len(tasks) {
		t.Fatalf("shard %d: %d tasks, %d results, reference %d", s.id, len(tasks), len(got), len(want))
	}
	unowned := 0
	for i := range tasks {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Query != w.Query || g.Hit != w.Hit || g.Owned != w.Owned {
			t.Fatalf("shard %d task %d %+v:\nsweep     %+v\nreference %+v", s.id, i, tasks[i], g, w)
		}
		gb, wb := reached(t, s, g), slices.Clone(w.Boundary)
		slices.Sort(gb)
		slices.Sort(wb)
		if !slices.Equal(gb, wb) {
			t.Fatalf("shard %d task %d %+v: boundary\nsweep     %v\nreference %v", s.id, i, tasks[i], gb, wb)
		}
		if w.Owned == 0 {
			unowned++
		}
	}
	st := s.LastRun()
	if st.Unowned != unowned {
		t.Fatalf("shard %d: LastRun %+v, want %d of %d tasks unowned", s.id, st, unowned, len(tasks))
	}
	// Sharing and pruning can only save expansions — a batch may expand
	// nothing where the reference visits its seeds — and what is expanded
	// is never a component the direction prunes: of the reference's
	// closures only the expandable part counts, each component at most
	// once per task, and at least once if there is any.
	if st.Components > ref.expandable || ref.expandable > ref.visited || (st.Components == 0) != (ref.expandable == 0) {
		t.Fatalf("shard %d: swept %d components, the reference visited %d of which %d survive pruning",
			s.id, st.Components, ref.visited, ref.expandable)
	}
	checkScratchClean(t, s)
	return got
}

// sweepFixture is one partitioned graph the sweep is exercised on.
type sweepFixture struct {
	name string
	g    *graph.Graph
	pt   *graph.Partitioning
}

// The gap graph: partition 0 (vertices 0-12) holds components of all
// four regions, wired so that the only path from the source-region
// component {0,1} down to the sink side runs source → interior → sink,
// crossing the cut the forward sweep stops at one edge above vertex 6;
// partition 1 (13, 14) is the outside world.
//
//	{0,1} source   → 2 (exit, source), → 3
//	3     interior → 4 (interior), → {6,7}
//	5     entry, sink side → {6,7}
//	{6,7} sink side → 8 (sink side)
//	9     entry, on a path → 10 (exit, on a path) → 8
//	11    interior, isolated
//	12    source → 10
var (
	gapEdges = [][2]int{
		{0, 1}, {1, 0}, {0, 2}, {0, 3}, {3, 4}, {3, 6}, {5, 6}, {6, 7}, {7, 6}, {7, 8},
		{9, 10}, {10, 8}, {12, 10},
		{2, 13}, {10, 13}, {14, 5}, {14, 9}, {13, 14},
	}
	gapPart    = []int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	gapRegions = Regions{Path: 2, Sink: 3, Source: 3, Interior: 3}
)

// gapFixture builds the gap graph.
func gapFixture(t testing.TB) sweepFixture {
	t.Helper()
	b := graph.NewBuilder(len(gapPart))
	for _, e := range gapEdges {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	g := b.Build()
	pt, err := graph.PartitionWith(g, 2, func(v graph.VertexID, _, _ int) int32 { return gapPart[v] })
	if err != nil {
		t.Fatal(err)
	}
	return sweepFixture{"gap/by-hand/k=2", g, pt}
}

// sweepFixtures fabricates partitions of every shape the sweep must
// handle: one giant component, no cycle at all, one long path, no edge
// at all, no boundary at all, the mostly acyclic community graph under
// each partitioner, and the three shapes pruning could get wrong — a
// partition with entries and no exit (nothing reaches an exit, so a
// forward sweep serves Hit alone), one with exits and no entry (no
// backward sweep expands anything), and the gap graph.
func sweepFixtures(t testing.TB, rng *rand.Rand) []sweepFixture {
	t.Helper()
	const n = 400
	build := func(edges [][2]int) *graph.Graph {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
		}
		return b.Build()
	}
	with := func(name string, g *graph.Graph, strat graph.Partitioner, k int) sweepFixture {
		pt, err := strat.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		return sweepFixture{fmt.Sprintf("%s/%s/k=%d", name, strat.Name(), k), g, pt}
	}

	planted, _, err := gen.Planted(gen.PlantedConfig{N: n, K: 3, IntraDeg: 3, InterDeg: 0.5, Seed: 7, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	// A DAG whose topological order is a random relabelling, so vertex
	// ids say nothing about component ids.
	label := rng.Perm(n)
	var dag, chain [][2]int
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			dag = append(dag, [2]int{label[min(u, v)], label[max(u, v)]})
		}
	}
	for v := 0; v+1 < n; v++ {
		chain = append(chain, [2]int{v, v + 1})
	}
	community := gen.Community(rng, n, 4, 1.6, 0.1, 0.02)
	// The community graph with every edge between the two halves of the
	// vertex range pointing from the low half to the high one: the low
	// partition has no entry, the high one no exit.
	var oneWay [][2]int
	community.Edges(func(u, v graph.VertexID) {
		if (u < n/2) != (v < n/2) {
			u, v = min(u, v), max(u, v)
		}
		oneWay = append(oneWay, [2]int{int(u), int(v)})
	})

	return []sweepFixture{
		with("giant-scc", planted, graph.Hash(), 3),
		with("giant-scc", planted, graph.Range(), 1), // one partition: no exit, no entry
		with("dag", build(dag), graph.Hash(), 3),
		with("dag", build(dag), graph.Range(), 1),
		with("chain", build(chain), graph.Range(), 3), // two cut edges in all
		with("chain", build(chain), graph.Hash(), 3),  // nearly every vertex both entry and exit
		with("isolated", build(nil), graph.Hash(), 3),
		with("community", community, graph.Hash(), 3),
		with("community", community, graph.Range(), 3),
		with("community", community, locality.New(locality.Options{Seed: 3}), 3),
		with("one-way", build(oneWay), graph.Range(), 2),
		gapFixture(t),
	}
}

// sweepBatch builds a batch of perDir forward and perDir backward tasks
// for shard s, shuffled so the directions interleave arbitrarily. Seeds
// are mostly the shard's own vertices, the rest anything from below 0
// to past n; some tasks have none, some repeat one, many share the hot
// seed, and some aim at a seed's own vertex (a Hit without expanding
// anything). With everyOwned each task holds at least one owned seed,
// so the shard sweeps exactly perDir bits per direction.
func sweepBatch(rng *rand.Rand, s *Shard, n, perDir int, everyOwned bool) []wire.Task {
	own := func() int32 { return int32(s.sub.GlobalID(int32(rng.Intn(s.sub.NumVertices())))) }
	hot := own()
	pick := func() int32 {
		switch r := rng.Intn(10); {
		case r < 6:
			return own()
		case r < 8:
			return hot
		default:
			return int32(rng.Intn(n+5)) - 2
		}
	}
	tasks := make([]wire.Task, 0, 2*perDir)
	for i := 0; i < 2*perDir; i++ {
		t := wire.Task{Kind: wire.TaskKind(i % 2), Query: uint32(i / 2)}
		for j := rng.Intn(5); j > 0; j-- {
			t.Seeds = append(t.Seeds, pick())
		}
		if everyOwned {
			t.Seeds = append(t.Seeds, own())
		}
		if len(t.Seeds) > 0 && rng.Intn(3) == 0 {
			t.Seeds = append(t.Seeds, t.Seeds[0])
		}
		if t.Kind == wire.Forward {
			for j := rng.Intn(4); j > 0; j-- {
				t.Targets = append(t.Targets, pick())
			}
			if len(t.Seeds) > 0 && rng.Intn(4) == 0 {
				t.Targets = append(t.Targets, t.Seeds[rng.Intn(len(t.Seeds))])
			}
		}
		tasks = append(tasks, t)
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return tasks
}

// restored sends s through an encoded snapshot and back.
func restored(t testing.TB, s *Shard, fx sweepFixture) *Shard {
	t.Helper()
	buf, err := snapshot.Encode(s.Snapshot(fx.pt.K, fx.g.NumVertices(), fx.g.Fingerprint(), fx.pt.Digest()))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snapshot.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return FromSnapshot(sn)
}

// TestShardRunSweepDifferential checks the batched sweep against the
// scalar reference on every fixture, with batches that sit on, just
// under and just over the chunk size and well past it, and pins what
// replication relies on: the answer bytes depend on nothing but the
// shard's state and the batch.
func TestShardRunSweepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	bothWays := false // some fixture has an exit that is also an entry
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			ref := newReference(s)
			twin := restored(t, s, fx)
			for _, x := range sub.Exits {
				bothWays = bothWays || ref.isEntry[x]
			}
			for _, perDir := range []int{1, 63, 64, 65, 200} {
				for _, everyOwned := range []bool{true, false} {
					tasks := sweepBatch(rng, s, fx.g.NumVertices(), perDir, everyOwned)
					res := checkAgainstReference(t, s, ref, tasks)
					first := wire.AppendResults(nil, 9, false, res)
					if again := wire.AppendResults(nil, 9, false, s.Run(tasks)); !bytes.Equal(first, again) {
						t.Fatalf("%s shard %d, %d per direction: the same batch answered differently the second time", fx.name, p, perDir)
					}
					if snap := wire.AppendResults(nil, 9, false, twin.Run(tasks)); !bytes.Equal(first, snap) {
						t.Fatalf("%s shard %d, %d per direction: a snapshot-restored shard answered differently", fx.name, p, perDir)
					}
					checkScratchClean(t, twin)
				}
			}
		}
	}
	if !bothWays {
		t.Error("no fixture has an exit that is also an entry")
	}
}

// TestShardRunBoundaryOrder pins the documented order of a result's
// Boundary — sweep order of the components, increasing ordinal and so
// increasing global ID inside one — and that it does not depend on the
// rest of the batch.
func TestShardRunBoundaryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	g := gen.Community(rng, 400, 4, 1.6, 0.1, 0.02)
	pt, err := graph.HashPartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	s := New(0, subs[0])
	tasks := sweepBatch(rng, s, g.NumVertices(), 100, true)
	type key struct {
		comp int32
		v    uint32
	}
	inSweepOrder := func(a, b key) int {
		if a.comp != b.comp {
			return int(a.comp - b.comp)
		}
		return int(int64(a.v) - int64(b.v))
	}
	var full []wire.Result // a copy: the results alias buffers the next Run rewrites
	for _, r := range s.Run(tasks) {
		r.Boundary = slices.Clone(r.Boundary)
		full = append(full, r)
	}
	for i, r := range full {
		keys := make([]key, len(r.Boundary))
		for j, v := range reached(t, s, r) {
			lv, ok := s.sub.Local(v)
			if !ok {
				t.Fatalf("task %d reports boundary vertex %d, which the shard does not own", i, v)
			}
			keys[j] = key{s.cond.Comp[lv], v}
			if r.Kind == wire.Forward {
				keys[j].comp = -keys[j].comp
			}
		}
		if !slices.IsSortedFunc(keys, inSweepOrder) {
			t.Fatalf("task %d (kind %d): boundary %v is not in sweep order", i, r.Kind, r.Boundary)
		}
		if alone := s.Run(tasks[i : i+1])[0]; !slices.Equal(alone.Boundary, r.Boundary) {
			t.Fatalf("task %d: boundary %v alone, %v inside the batch", i, alone.Boundary, r.Boundary)
		}
	}
}

// TestShardBoundaryOrdinals pins what the coordinator relies on when it
// indexes instead of searching. On every fixture the boundary list is
// strictly increasing and is exactly the entries and exits; every
// Boundary value is an ordinal into it, strictly increasing inside a
// component; translated, a result is exactly the vertices the scalar
// reference reports, in the documented order — components as the sweep
// expands them, increasing global ID inside one; and a shard rebuilt
// from the graph or restored from a snapshot answers byte-identically,
// so an ordinal means the same vertex on every replica.
func TestShardBoundaryOrdinals(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			ref := newReference(s)
			list := s.Summary().Boundary
			var want []uint32
			for lv := int32(0); lv < int32(sub.NumVertices()); lv++ {
				if ref.isEntry[lv] || ref.isExit[lv] {
					want = append(want, sub.GlobalID(lv))
				}
			}
			if !slices.Equal(list, want) {
				t.Fatalf("%s shard %d: boundary list %v, want entries ∪ exits %v", fx.name, p, list, want)
			}
			for _, ord := range s.boundAt {
				if int(ord) >= len(list) {
					t.Fatalf("%s shard %d: ordinal %d in a component's boundary row, the list has %d", fx.name, p, ord, len(list))
				}
			}

			tasks := sweepBatch(rng, s, fx.g.NumVertices(), 70, false)
			got := s.Run(tasks)
			first := wire.AppendResults(nil, 1, false, got)
			for i, w := range ref.run(tasks) {
				// The reference's vertices, put in the documented order.
				sign := int32(1)
				if w.Kind == wire.Forward {
					sign = -1
				}
				comp := func(v uint32) int32 {
					lv, _ := sub.Local(v)
					return sign * s.cond.Comp[lv]
				}
				ordered := slices.Clone(w.Boundary)
				slices.SortFunc(ordered, func(a, b uint32) int {
					if ca, cb := comp(a), comp(b); ca != cb {
						return int(ca - cb)
					}
					return int(int64(a) - int64(b))
				})
				if verts := reached(t, s, got[i]); !slices.Equal(verts, ordered) {
					t.Fatalf("%s shard %d task %d %+v: ordinals %v stand for %v, the reference reached %v",
						fx.name, p, i, tasks[i], got[i].Boundary, verts, ordered)
				}
			}
			rebuilt := New(p, partition.ExtractOne(fx.g, fx.pt, p))
			for name, twin := range map[string]*Shard{"rebuilt": rebuilt, "snapshot-restored": restored(t, s, fx)} {
				if !slices.Equal(twin.Summary().Boundary, list) {
					t.Fatalf("%s shard %d: a %s shard lists a different boundary", fx.name, p, name)
				}
				if again := wire.AppendResults(nil, 1, false, twin.Run(tasks)); !bytes.Equal(first, again) {
					t.Fatalf("%s shard %d: a %s shard answered differently", fx.name, p, name)
				}
			}
		}
	}
}

// skeleton is a shard's summary edges as adjacency over ordinals,
// forward (succ) and reversed (pred).
type skeleton struct{ succ, pred [][]int32 }

func skeletonOf(t testing.TB, s *Shard) skeleton {
	t.Helper()
	sum := s.Summary()
	sk := skeleton{make([][]int32, len(sum.Boundary)), make([][]int32, len(sum.Boundary))}
	ord := func(v uint32) int32 {
		i, ok := slices.BinarySearch(sum.Boundary, v)
		if !ok {
			t.Fatalf("shard %d: summary edge end %d is not a boundary vertex", s.id, v)
		}
		return int32(i)
	}
	for _, e := range sum.Edges {
		u, v := ord(e[0]), ord(e[1])
		sk.succ[u] = append(sk.succ[u], v)
		sk.pred[v] = append(sk.pred[v], u)
	}
	return sk
}

// closure marks in visit every ordinal adj leads to from from, from
// included, and returns them.
func closure(adj [][]int32, from []int32, visit *markSet) []int32 {
	visit.reset()
	var q []int32
	for _, o := range from {
		if visit.mark(o) {
			q = append(q, o)
		}
	}
	for head := 0; head < len(q); head++ {
		for _, o := range adj[q[head]] {
			if visit.mark(o) {
				q = append(q, o)
			}
		}
	}
	return q
}

// checkClosesOverSummary runs the batch through s and checks every
// result, closed over the skeleton the coordinator holds, against the
// full closure — the reference's BFS with no stop: a Forward task's
// closure exits are exactly the exits its reported vertices reach in
// the skeleton, a Backward task's closure entries exactly the entries
// that reach one of its reported vertices there (reported vertices
// included either way). It returns how many boundary vertices the
// results reported and the closures held.
func checkClosesOverSummary(t testing.TB, s *Shard, ref *reference, tasks []wire.Task) (reported, closed int) {
	t.Helper()
	sk := skeletonOf(t, s)
	list := s.Summary().Boundary
	visit := markSet{at: make([]uint32, len(list))}
	var q []int32
	for i, r := range s.Run(tasks) {
		task := &tasks[i]
		var lseeds []int32
		for _, v := range task.Seeds {
			if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
				lseeds = append(lseeds, lv)
			}
		}
		forward := task.Kind == wire.Forward
		q = s.bfs(lseeds, forward, nil, &ref.cvisit, q)
		var want []uint32
		for _, c := range q {
			for _, v := range ref.members[c] {
				if forward && ref.isExit[v] || !forward && ref.isEntry[v] {
					want = append(want, s.sub.GlobalID(v))
				}
			}
		}
		from := make([]int32, len(r.Boundary))
		for j, o := range r.Boundary {
			from[j] = int32(o)
		}
		adj := sk.pred
		if forward {
			adj = sk.succ
		}
		var have []uint32
		for _, o := range closure(adj, from, &visit) {
			lv, _ := s.sub.Local(list[o])
			if forward && ref.isExit[lv] || !forward && ref.isEntry[lv] {
				have = append(have, list[o])
			}
		}
		slices.Sort(have)
		slices.Sort(want)
		if !slices.Equal(have, want) {
			t.Fatalf("shard %d task %d %+v: reported %v closes over the skeleton to %v, the full closure holds %v",
				s.id, i, *task, reached(t, s, r), have, want)
		}
		reported += len(r.Boundary)
		closed += len(want)
	}
	return reported, closed
}

// TestShardResultsCloseOverSummary checks that stopping at the first
// key component loses nothing the coordinator needs: on every
// fixture, and outside -short on the benchmark family's graph (200k
// vertices, instance 4) at k = 3 under hash and locality (seed 1)
// partitioning, every result closes over the partition's skeleton to
// the whole closure. The benchmark graph's batches must also report
// fewer boundary vertices than their closures hold.
func TestShardResultsCloseOverSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			ref := newReference(s)
			for _, perDir := range []int{1, 64, 200} {
				checkClosesOverSummary(t, s, ref, sweepBatch(rng, s, fx.g.NumVertices(), perDir, false))
			}
		}
	}
	if testing.Short() {
		t.Skip("the benchmark graph's partitions: not under -short")
	}
	const n = 200_000
	g := gen.Community(rand.New(rand.NewSource(4)), n, 16, 2.5, 0.05, 0.01)
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		pt, err := strat.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			s := New(p, partition.ExtractOne(g, pt, p))
			ref := newReference(s)
			reported, closed := 0, 0
			for _, tasks := range benchRounds(rand.New(rand.NewSource(int64(p))), n, 64, 2) {
				r, c := checkClosesOverSummary(t, s, ref, tasks)
				reported += r
				closed += c
			}
			if reported >= closed {
				t.Errorf("%s partition %d: %d boundary vertices reported, the closures hold %d", strat.Name(), p, reported, closed)
			}
		}
	}
}

// TestShardRegions checks the classification against its definition,
// one reference BFS per component and direction, on every fixture; that
// the fixtures between them hold every region, a partition with no
// regionOut component and one with no regionIn component; and the gap
// graph's census.
func TestShardRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var all Regions
	noOut, noIn := false, false
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			ref := newReference(s)
			holds := func(comps []int32, boundary []bool) bool {
				for _, c := range comps {
					for _, v := range ref.members[c] {
						if boundary[v] {
							return true
						}
					}
				}
				return false
			}
			for c := int32(0); c < int32(s.cond.N); c++ {
				seed := ref.members[c][:1]
				var want uint8
				if holds(s.bfs(seed, true, nil, &ref.cvisit, nil), ref.isExit) {
					want |= regionOut
				}
				if holds(s.bfs(seed, false, nil, &ref.cvisit, nil), ref.isEntry) {
					want |= regionIn
				}
				if s.region[c]&regionBits != want {
					t.Fatalf("%s shard %d: component %d classified %02b, want %02b", fx.name, p, c, s.region[c], want)
				}
			}
			r := s.Regions()
			if r.Path+r.Sink+r.Source+r.Interior != s.cond.N {
				t.Fatalf("%s shard %d: regions %+v do not add up to %d components", fx.name, p, r, s.cond.N)
			}
			all.Path += r.Path
			all.Sink += r.Sink
			all.Source += r.Source
			all.Interior += r.Interior
			noOut = noOut || r.Sink > 0 && r.Path+r.Source == 0
			noIn = noIn || r.Source > 0 && r.Path+r.Sink == 0
			if fx.name == "gap/by-hand/k=2" && p == 0 && r != gapRegions {
				t.Fatalf("gap partition: regions %+v, want %+v", r, gapRegions)
			}
		}
	}
	if all.Path == 0 || all.Sink == 0 || all.Source == 0 || all.Interior == 0 || !noOut || !noIn {
		t.Errorf("fixtures miss a shape: regions %+v, a partition with entries and no exit %v, one with exits and no entry %v", all, noOut, noIn)
	}
}

// TestShardSweepStaysInRegion looks at what a sweep expanded, not at
// what it answered: on every fixture, no Forward sweep expands a
// sink-side component and no Backward sweep one that no entry reaches.
func TestShardSweepStaysInRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for _, fx := range sweepFixtures(t, rng) {
		subs := partition.Extract(fx.g, fx.pt)
		for p, sub := range subs {
			s := New(p, sub)
			for _, kind := range []wire.TaskKind{wire.Forward, wire.Backward} {
				var tasks []wire.Task // one chunk's worth, so touched is the whole Run's
				for _, task := range sweepBatch(rng, s, fx.g.NumVertices(), sweepChunk, false) {
					if task.Kind == kind {
						tasks = append(tasks, task)
					}
				}
				s.Run(tasks)
				if s.LastRun().Components != len(s.touched) {
					t.Fatalf("%s shard %d kind %d: %d components counted, %d expanded", fx.name, p, kind, s.LastRun().Components, len(s.touched))
				}
				for _, c := range s.touched {
					if r := s.region[c] & regionBits; kind == wire.Forward && r == regionSink || kind == wire.Backward && r&regionIn == 0 {
						t.Fatalf("%s shard %d kind %d: expanded component %d of region %02b", fx.name, p, kind, c, r)
					}
				}
			}
		}
	}
}

// TestShardRunGapExhaustive puts the seed and the target of a Forward
// task on every pair of vertices of the gap partition in turn, and a
// Backward seed on every vertex: seed and target in one sink-side
// component, a target exactly one edge below the last component the
// forward sweep expands, a target in an interior component reached
// without touching anything an entry reaches, and every other
// combination of regions, in batches that fill and overflow a chunk
// and alone.
func TestShardRunGapExhaustive(t *testing.T) {
	fx := gapFixture(t)
	subs := partition.Extract(fx.g, fx.pt)
	s := New(0, subs[0])
	ref := newReference(s)
	n := int32(fx.g.NumVertices()) // the other partition's vertices too: unowned seeds and targets
	var tasks []wire.Task
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			tasks = append(tasks, wire.Task{Kind: wire.Forward, Query: uint32(len(tasks)), Seeds: []int32{u}, Targets: []int32{v}})
		}
		tasks = append(tasks, wire.Task{Kind: wire.Backward, Query: uint32(len(tasks)), Seeds: []int32{u}})
	}
	hits := 0
	for _, r := range checkAgainstReference(t, s, ref, tasks) {
		if r.Hit {
			hits++
		}
	}
	// Counted by hand: how many of partition 0's vertices each of its
	// vertices 0..12 reaches without crossing a key component, itself
	// included. Entry 9 reaches exit 10, so both are key: each hits only
	// itself, and 12 stops at 10; entry 5 reaches no exit and is not key.
	want := 0
	for _, reach := range []int{8, 8, 1, 5, 1, 4, 3, 3, 1, 1, 1, 1, 2} {
		want += reach
	}
	if hits != want {
		t.Errorf("%d of the gap partition's vertex pairs hit, want %d", hits, want)
	}
	for i := range tasks {
		checkAgainstReference(t, s, ref, tasks[i:i+1])
	}
	// The path the fixture is named for, end to end: 0 reaches 8 only
	// through interior 3 and sink-side {6,7}.
	far := []wire.Task{{Kind: wire.Forward, Seeds: []int32{0}, Targets: []int32{8}}}
	if res := s.Run(far); !res[0].Hit || !slices.Equal(reached(t, s, res[0]), []uint32{2}) {
		t.Errorf("0 ⇝ 8 across the gap: %+v, want a hit and exit 2", res[0])
	}
	if got := s.LastRun().Components; got != 4 { // {0,1}, 2, 3, 4 — never {6,7} or 8
		t.Errorf("0 ⇝ 8 expanded %d components, want 4", got)
	}
}

// fuzzShard decodes a partitioned graph of at most 64 vertices and a
// task batch from fuzz bytes: vertex and partition counts, an edge
// count, one partition byte per vertex, two bytes per edge, then tasks
// to the end of the input — a byte of kind, seed count and target
// count, then that many vertex bytes, each mapped onto [-1, n] so
// unowned and out-of-range ids occur.
func fuzzShard(data []byte) (g *graph.Graph, part []int32, k int, tasks []wire.Task) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%64
	k = 1 + next()%4
	edges := next()
	part = make([]int32, n)
	for v := range part {
		part[v] = int32(next() % k)
	}
	b := graph.NewBuilder(n)
	for ; edges > 0; edges-- {
		b.AddEdge(graph.VertexID(next()%n), graph.VertexID(next()%n))
	}
	ids := func(count int) []int32 {
		var out []int32
		for ; count > 0; count-- {
			out = append(out, int32(next()%(n+2))-1)
		}
		return out
	}
	for len(data) > 0 {
		h := next()
		t := wire.Task{Kind: wire.TaskKind(h & 1), Query: uint32(len(tasks))}
		t.Seeds = ids(h >> 1 & 3)
		if t.Kind == wire.Forward {
			t.Targets = ids(h >> 3 & 3)
		}
		tasks = append(tasks, t)
	}
	return b.Build(), part, k, tasks
}

// FuzzShardRun drives the sweep and the reference with whatever graph,
// partitioning and batch the fuzz bytes decode to, on every partition,
// and checks each shard's skeleton — the same sweep over its key
// components — against the per-entry BFS's entry→exit summary.
func FuzzShardRun(f *testing.F) {
	// The committed corpus (testdata/fuzz) holds the small shapes, the
	// gap graph (gapEdges, with seeds and targets in every region) among
	// them; this seed has more owned tasks per direction and partition than a
	// chunk holds: two four-vertex paths joined into one cycle, every
	// vertex the seed of forward and backward tasks alike.
	big := []byte{7, 1, 8, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0}
	for i := 0; i < 300; i++ {
		big = append(big, byte(2+i%2), byte(1+i/2%8))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, part, k, tasks := fuzzShard(data)
		pt, err := graph.PartitionWith(g, k, func(v graph.VertexID, _, _ int) int32 { return part[v] })
		if err != nil {
			t.Fatal(err)
		}
		subs := partition.Extract(g, pt)
		for p, sub := range subs {
			s := New(p, sub)
			checkSkeleton(t, fmt.Sprintf("shard %d", p), s, summaryBFS(sub))
			checkAgainstReference(t, s, newReference(s), tasks)
		}
	})
}

// benchFleet is one fleet BenchmarkShardRun runs on: the benchmark
// harness's graph family on n vertices, split three ways by strat.
type benchFleet struct {
	name    string
	strat   graph.Partitioner
	n       int
	batches []int
}

// benchFleets lists the fleets. The first two sit at a quarter of the
// harness's size, under the partitioning that leaves partition
// interiors nearly edgeless and the one that keeps searches long and
// overlapping: there a closure is ~100 components and resolving seeds
// dominates a Run. The other two are the harness's own size, where a
// locality closure is ~1,000 components and what a sweep expands is
// what a Run costs — the rows that see pruning — and where hash, with
// nothing to prune, shows what classifying seeds and marking targets
// costs a fleet that gains nothing from it.
func benchFleets() []benchFleet {
	loc := locality.New(locality.Options{Seed: 1})
	return []benchFleet{
		{"hash", graph.Hash(), 50_000, []int{1, 8, 64}},
		{"locality", loc, 50_000, []int{1, 8, 64}},
		{"hash200k", graph.Hash(), 200_000, []int{1, 64}},
		{"locality200k", loc, 200_000, []int{1, 64}},
	}
}

// benchShardCache holds every fleet already built, so the sweep's and
// the reference's benchmarks build each once per process.
var benchShardCache = map[string][]*Shard{}

// benchShards builds (or returns the cached) three shards of f.
func benchShards(b *testing.B, f benchFleet) []*Shard {
	b.Helper()
	if shards, ok := benchShardCache[f.name]; ok {
		return shards
	}
	g := gen.Community(rand.New(rand.NewSource(4)), f.n, 16, 2.5, 0.05, 0.01)
	pt, err := f.strat.Partition(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	shards := make([]*Shard, len(subs))
	for p := range shards {
		shards[p] = New(p, subs[p])
	}
	benchShardCache[f.name] = shards
	return shards
}

// benchRounds fabricates task batches the way the engine lays them out:
// per query a forward task carrying S and T and a backward one carrying
// T, |S| and |T| in [1,16].
func benchRounds(rng *rand.Rand, n, batch, rounds int) [][]wire.Task {
	set := func() []int32 {
		out := make([]int32, 1+rng.Intn(16))
		for i := range out {
			out[i] = int32(rng.Intn(n))
		}
		return out
	}
	out := make([][]wire.Task, rounds)
	for r := range out {
		for q := 0; q < batch; q++ {
			s, t := set(), set()
			out[r] = append(out[r],
				wire.Task{Kind: wire.Forward, Query: uint32(q), Seeds: s, Targets: t},
				wire.Task{Kind: wire.Backward, Query: uint32(q), Seeds: t})
		}
	}
	return out
}

var benchSink int

// benchShardRun times run — a Run implementation bound to one shard —
// on every partition of every fleet running the same broadcast batch,
// as a round does. b.N counts batches; ns/task divides by the batch's
// tasks.
func benchShardRun(b *testing.B, bind func(*Shard) func([]wire.Task) []wire.Result) {
	for _, f := range benchFleets() {
		shards := benchShards(b, f)
		runs := make([]func([]wire.Task) []wire.Result, len(shards))
		for p, s := range shards {
			runs[p] = bind(s)
		}
		for _, batch := range f.batches {
			rounds := benchRounds(rand.New(rand.NewSource(int64(batch))), f.n, batch, 16)
			b.Run(fmt.Sprintf("%s/batch=%d", f.name, batch), func(b *testing.B) {
				round := func(i int) {
					for _, run := range runs {
						benchSink += len(run(rounds[i%len(rounds)]))
					}
				}
				for i := range rounds { // grow every buffer to its steady size
					round(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round(i)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*batch), "ns/task")
			})
		}
	}
}

// BenchmarkShardRun times the local search alone.
func BenchmarkShardRun(b *testing.B) {
	benchShardRun(b, func(s *Shard) func([]wire.Task) []wire.Result { return s.Run })
}

// BenchmarkShardRunReference runs the scalar reference on the same
// batches: what sharing a sweep buys at batch=64, and the bar at
// batch=1, where the sweep must stay within 1.15x of it — a lone query
// pays nothing for the batching.
func BenchmarkShardRunReference(b *testing.B) {
	benchShardRun(b, func(s *Shard) func([]wire.Task) []wire.Result { return newReference(s).run })
}
