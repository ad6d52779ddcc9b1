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

// reference runs batches the way this package did before the sweep —
// one scalar component-level BFS per task, boundary vertices picked out
// of every visited component's member list — and is what the sweep is
// checked against. It reads the Shard's graph state and owns its own
// scratch, so it can run beside the Shard's Run.
type reference struct {
	s       *Shard
	isEntry []bool
	isExit  []bool
	cvisit  *partition.Marks
	cqueue  []int32
	lseeds  []int32
	results []wire.Result
	arena   []uint32
	visited int // components visited, summed over the last run's tasks
}

func newReference(s *Shard) *reference {
	r := &reference{
		s:       s,
		isEntry: make([]bool, s.sub.NumVertices()),
		isExit:  make([]bool, s.sub.NumVertices()),
		cvisit:  partition.NewMarks(s.cond.N),
	}
	for _, e := range s.sub.Entries {
		r.isEntry[e] = true
	}
	for _, x := range s.sub.Exits {
		r.isExit[x] = true
	}
	return r
}

// bfs runs a component-level BFS from the components of the given local
// seed vertices, forward or backward over the condensation DAG, marking
// what it visits in visit and returning the visited components in q.
func (s *Shard) bfs(seeds []int32, forward bool, visit *partition.Marks, q []int32) []int32 {
	visit.Reset()
	q = q[:0]
	for _, v := range seeds {
		if c := s.cond.Comp[v]; visit.Mark(c) {
			q = append(q, c)
		}
	}
	for head := 0; head < len(q); head++ {
		nbrs := s.cond.In(q[head])
		if forward {
			nbrs = s.cond.Out(q[head])
		}
		for _, d := range nbrs {
			if visit.Mark(d) {
				q = append(q, d)
			}
		}
	}
	return q
}

// run is the reference Run: same contract, Boundary in BFS order.
func (r *reference) run(tasks []wire.Task) []wire.Result {
	s := r.s
	res, arena := r.results[:0], r.arena[:0]
	r.visited = 0
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
		r.cqueue = s.bfs(lseeds, forward, r.cvisit, r.cqueue)
		r.visited += len(r.cqueue)
		rim := r.isEntry
		if forward {
			rim = r.isExit
			for _, v := range t.Targets {
				if lv, ok := s.sub.Local(graph.VertexID(v)); ok && r.cvisit.Seen(s.cond.Comp[lv]) {
					out.Hit = true
					break
				}
			}
		}
		start := len(arena)
		for _, c := range r.cqueue {
			for _, v := range s.cond.Members(c) {
				if rim[v] {
					arena = append(arena, s.sub.GlobalID(v))
				}
			}
		}
		out.Boundary = arena[start:len(arena):len(arena)]
		res = append(res, out)
	}
	r.results, r.arena = res, arena
	return res
}

// checkScratchClean asserts what every sweep relies on finding: mask,
// both bitmaps, the per-bit cursors and the chunk all zero.
func checkScratchClean(t testing.TB, s *Shard) {
	t.Helper()
	for c, m := range s.mask {
		if m != 0 {
			t.Fatalf("shard %d: mask[%d] = %#x after Run", s.id, c, m)
		}
	}
	for w := range s.active {
		if s.active[w] != 0 {
			t.Fatalf("shard %d: active[%d] = %#x after Run", s.id, w, s.active[w])
		}
	}
	for w := range s.top {
		if s.top[w] != 0 {
			t.Fatalf("shard %d: top[%d] = %#x after Run", s.id, w, s.top[w])
		}
	}
	if s.cursor != [sweepChunk]int{} || len(s.chunk) != 0 {
		t.Fatalf("shard %d: cursor %v / chunk %v not reset after Run", s.id, s.cursor, s.chunk)
	}
}

// checkAgainstReference runs the batch through the sweep and through
// the reference and compares task by task: Kind, Query, Hit and Owned
// exactly, Boundary as a set (the two order it differently; neither may
// repeat a vertex). It also checks LastRun against what the reference
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
		gb, wb := slices.Clone(g.Boundary), slices.Clone(w.Boundary)
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
	// Sharing can only save expansions, and saves none without it.
	if st.Components > ref.visited || (st.Components == 0) != (ref.visited == 0) {
		t.Fatalf("shard %d: swept %d components, the reference visited %d", s.id, st.Components, ref.visited)
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

// sweepFixtures fabricates partitions of every shape the sweep must
// handle: one giant component, no cycle at all, one long path, no edge
// at all, no boundary at all, and the mostly acyclic community graph
// under each partitioner.
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
		subs, _ := partition.Extract(fx.g, fx.pt)
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
// Boundary — sweep order of the components, increasing global ID inside
// one — and that it does not depend on the rest of the batch.
func TestShardRunBoundaryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	g := gen.Community(rng, 400, 4, 1.6, 0.1, 0.02)
	pt, err := graph.HashPartition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := partition.Extract(g, pt)
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
		for j, v := range r.Boundary {
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
// partitioning and batch the fuzz bytes decode to, on every partition.
func FuzzShardRun(f *testing.F) {
	// The committed corpus (testdata/fuzz) holds the small shapes; this
	// seed has more owned tasks per direction and partition than a
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
		subs, _ := partition.Extract(g, pt)
		for p, sub := range subs {
			s := New(p, sub)
			checkAgainstReference(t, s, newReference(s), tasks)
		}
	})
}

// benchShards builds the three shards of the benchmark harness's graph
// family, at a quarter of its size, under the given partitioner.
func benchShards(b *testing.B, strat graph.Partitioner) ([]*Shard, int) {
	b.Helper()
	const n, k = 50_000, 3
	g := gen.Community(rand.New(rand.NewSource(4)), n, 16, 2.5, 0.05, 0.01)
	pt, err := strat.Partition(g, k)
	if err != nil {
		b.Fatal(err)
	}
	subs, _ := partition.Extract(g, pt)
	shards := make([]*Shard, k)
	for p := range shards {
		shards[p] = New(p, subs[p])
	}
	return shards, n
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
// on every partition running the same broadcast batch, as a round does,
// under the partitioning that leaves partition interiors nearly
// edgeless and the one that keeps searches long and overlapping. b.N
// counts batches; ns/task divides by the batch's tasks.
func benchShardRun(b *testing.B, bind func(*Shard) func([]wire.Task) []wire.Result) {
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		shards, n := benchShards(b, strat)
		runs := make([]func([]wire.Task) []wire.Result, len(shards))
		for p, s := range shards {
			runs[p] = bind(s)
		}
		for _, batch := range []int{1, 8, 64} {
			rounds := benchRounds(rand.New(rand.NewSource(int64(batch))), n, batch, 16)
			b.Run(fmt.Sprintf("%s/batch=%d", strat.Name(), batch), func(b *testing.B) {
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
