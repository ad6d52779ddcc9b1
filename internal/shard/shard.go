// Package shard is the DSR execution runtime: a Shard executes local
// searches over one partition's subgraph — each stopping at the first
// key component on its way, the coordinator's skeleton of summary edges
// carrying the rest — and a Transport carries task batches from the
// coordinator to shards. There is one transport, Replicated — a set of
// interchangeable replicas per partition — and two kinds of Replica
// under it: an in-process worker (NewLoopback) and a TCP connection to
// a Server speaking the internal/wire protocol (Dial, DialReplicated).
// The coordinator in internal/dsr only ever speaks Transport — one
// Reply per Submit; failover and redials happen behind it — so the
// single-process engine is literally the distributed one running over
// in-process replicas.
package shard

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/scc"
	"dsr/internal/wire"
)

// sweepChunk is how many tasks one sweep answers: one bit of a machine
// word each.
const sweepChunk = 64

// Shard executes local-search tasks against one partition. Searches run
// over the partition's SCC condensation, not its vertices, and a batch's
// searches share the traversal: up to sweepChunk tasks of one direction
// each own one bit of a machine word and one sweep of the component DAG
// answers them all, expanding every component any of them reaches once
// — so a partition that is one big cycle costs O(1) work instead of
// O(V), and a component sixty tasks reach costs one expansion, not
// sixty. Vertex-level answers (local hits, reached boundary vertices)
// are read back through a per-component boundary list.
//
// Vertex IDs cost one table access each way. Seeds and targets arrive
// as global IDs and resolve through the subgraph's rank index
// (partition.Subgraph.Local); reached boundary vertices leave as
// ordinals — positions in the boundary list, which every replica and
// every snapshot-restored copy of the shard derives identically from
// the subgraph and which the coordinator already holds from the
// boundary summary — so no end searches for anything.
//
// Sweeps are boundary-directed. A partition's whole contribution to
// global connectivity is what its entries reach and what reaches its
// exits, so New classifies every component once (see the region bits)
// and a sweep walks a copy of the DAG with everything else cut away: a
// Backward sweep expands only components some entry reaches, a Forward
// one never expands a sink-side component — one an entry reaches but
// that reaches no exit.
//
// A sweep also stops at the first key component on every path, in
// either direction. A key component lies on an entry→exit path and
// holds a boundary vertex, and the summary is the partition's
// first-boundary skeleton (summarize): a cycle through each key
// component's boundary vertices, and an edge from each key component
// to every key component it reaches first. Between them the
// coordinator holds everything that lies past a key component, so a
// sweep pops and reports one — by a single ordinal, its representative,
// which the cycle ties to all the others — but pushes nothing on, seed
// components included. Every reported vertex is still a fact — the seed
// reaches it, or it reaches the target — and nothing is lost: a Forward
// path to an exit either crosses a key component, whose skeleton edges
// lead on, key by key, to the exit's, or it does not, and the exit is
// reported itself; Backward is the mirror image. The one other thing a
// sweep answers — does a Forward task reach one of its targets locally
// — is settled for targets below the pruning by marking upwards from
// them (see markTargets), and is exactly "a target is reached without
// crossing a key component": a path through one becomes, at the
// coordinator, a seed that is also a goal or a skeleton path from one.
//
// All scratch (masks, bitmaps, result and boundary buffers) is owned by
// the Shard, all-zero between sweeps and reused across Run calls, so
// steady-state batches allocate nothing here. A Shard is not safe for
// concurrent Run calls; every Transport serializes them.
type Shard struct {
	id   int
	sub  *partition.Subgraph
	cond *scc.Condensation

	// boundary is the partition's boundary vertices, entries ∪ exits, as
	// strictly increasing global IDs: the Boundary list of the summary,
	// and what a result's ordinals index.
	boundary []uint32

	// The per-component boundary list as a CSR over component ids: what a
	// sweep reports of a popped component — the ordinals of its entries
	// and exits, increasing, or for a key component only the first, its
	// representative.
	boundOff []int32
	boundAt  []uint32

	// region classifies every component (the region and key bits). fwd
	// and bwd are the condensation DAG pruned by it, which is all a sweep
	// walks: fwd holds the forward edges among components that are not
	// sink side, bwd the reverse edges among regionIn components, and the
	// row of a key component is empty in both. Pruning at build time
	// means a pruned edge costs a sweep nothing, not even the test that
	// would skip it.
	region   []uint8
	fwd, bwd csr

	mask    []uint64        // per component: the chunk's tasks known to reach it
	todo    frontier        // components whose mask is still to be pushed on
	touched []int32         // components the current sweep expanded, in sweep order
	rim     []int32         // those of touched that hold boundary vertices
	parked  []int32         // sink-side components holding a Forward seed: mask set, never expanded
	chunk   []int32         // task indexes of the current sweep; bit b is chunk[b]
	cursor  [sweepChunk]int // per bit: boundary count, then write position in arena

	// Where a Forward chunk's targets are: one the sweep can reach is an
	// aim, read off mask afterwards; one on the sink side is a mark, spread
	// upwards before the sweep to where it will pass (markTargets).
	aims   []aim
	tmask  []uint64 // per component: the chunk's tasks with a target mark on it
	marks  frontier // components whose target marks are still to be pushed up
	marked []int32  // components with a non-zero tmask

	results []wire.Result // reused result batch
	arena   []uint32      // reused boundary-vertex storage
	stats   RunStats      // what the last Run did

	sum wire.Summary // built by New, immutable after
}

// Region bits of a component. Both are closed along DAG edges — every
// successor of a regionIn component is regionIn, every predecessor of a
// regionOut one is regionOut — which is what makes pruning exact: a
// path into a regionOut component never leaves regionOut, a path out of
// a regionIn component never leaves regionIn, and on any path the
// sink-side components form a suffix. The key bit marks where every
// sweep stops, in both directions: a path component, never sink side,
// that holds a boundary vertex.
const (
	regionIn  uint8 = 1 << iota // reached from a component holding an entry (itself included)
	regionOut                   // reaches a component holding an exit (itself included)
	key                         // regionIn|regionOut and holds a boundary vertex

	regionBits = regionIn | regionOut
	regionSink = regionIn // sink side: an entry reaches it, it reaches no exit
)

// Regions counts a partition's components by what the boundary can see
// of them: Path components lie on an entry→exit path, Sink ones are
// reached from an entry but reach no exit, Source ones reach an exit
// but no entry reaches them, Interior ones are neither. Forward sweeps
// never expand Sink, Backward sweeps expand only Path and Sink.
type Regions struct{ Path, Sink, Source, Interior int }

// String is the census as dsr-shard's boot line prints it.
func (r Regions) String() string {
	return fmt.Sprintf("%d path, %d sink, %d source, %d interior", r.Path, r.Sink, r.Source, r.Interior)
}

// aim is a Forward task's target in a component the sweep does not
// prune: the task, bit b of its chunk, hits if the swept mask of
// component c holds b.
type aim struct {
	c int32
	b uint8
}

// csr is a compressed adjacency over component ids.
type csr struct{ off, edges []int32 }

// frontier is a two-level bitmap of components waiting to be popped in
// id order: top holds one bit per non-zero word of active, so finding
// the next component costs a scan of one word per 4096 components.
type frontier struct{ active, top []uint64 }

func newFrontier(n int) frontier {
	words := (n + 63) / 64
	return frontier{make([]uint64, words), make([]uint64, (words+63)/64)}
}

// push queues component c.
func (f *frontier) push(c int32) {
	w := c >> 6
	f.active[w] |= 1 << (c & 63)
	f.top[w>>6] |= 1 << (w & 63)
}

// RunStats counts what one Run did, for the serving layer's waste and
// sharing metrics.
type RunStats struct {
	Unowned    int // tasks of the batch none of whose seeds this shard owns
	Components int // components expanded (after pruning), summed over the batch's sweeps
}

// New builds a Shard over one partition's subgraph: it condenses the
// subgraph into SCCs (scc.Condense), then classifies the components,
// prunes the DAG for the two sweep directions and sweeps the key
// components for the boundary summary (summarize) — linear passes and
// filtered copies, never persisted: a snapshot-restored shard rebuilds
// them in FromSnapshot. New only reads sub, so replicas may share one
// subgraph.
func New(id int, sub *partition.Subgraph) *Shard { return build(id, sub, scc.Condense(sub, nil)) }

// build is New over a subgraph whose condensation is already at hand.
func build(id int, sub *partition.Subgraph, cond *scc.Condensation) *Shard {
	s := &Shard{
		id:    id,
		sub:   sub,
		cond:  cond,
		mask:  make([]uint64, cond.N),
		todo:  newFrontier(cond.N),
		tmask: make([]uint64, cond.N),
		marks: newFrontier(cond.N),
		chunk: make([]int32, 0, sweepChunk),
	}
	s.boundOff, s.boundAt = s.boundaryList(s.mergeBoundary())
	s.classify()
	cycles := s.keepReps()
	dag := cond.Data()
	roff, redges := cond.Reverse()
	s.bwd = prune(csr{roff, redges}, s.region, func(r uint8) bool { return r&regionIn != 0 })
	s.fwd = prune(csr{dag.FOff, dag.FEdges}, s.region, func(r uint8) bool { return r&regionBits != regionSink })
	s.sum = wire.Summary{Boundary: s.boundary, Edges: s.summarize(cycles), Cross: sub.Cross}
	return s
}

// summarize computes the partition's summary edges, its first-boundary
// skeleton: keepReps' cycles, passed in, and one edge rep(C) → rep(D)
// for every key component D that a key component C reaches first —
// through components that are not key, which on a path out of C are
// all path components holding no boundary vertex. Those are found with
// the query sweep itself, sweepChunk key components per sweep, each
// seeded at its successors on a path: a Forward sweep pops and reports
// key components by their representatives and goes no further, so C's
// result is exactly the representatives it reaches first. Every edge
// is a local path, and a chain of them covers every entry ⇝ exit path
// of the partition, key component by key component. The edges are
// sorted, so replicas ship identical bytes. The scratch the sweeps grew
// is released and the run statistics cleared: a new shard's first query
// starts from what it would have without this.
func (s *Shard) summarize(edges [][2]uint32) [][2]uint32 {
	var keys []int32
	for c, r := range s.region {
		if r&key != 0 {
			keys = append(keys, int32(c))
		}
	}
	s.results = make([]wire.Result, len(keys))
	for i, c := range keys {
		bit := uint64(1) << len(s.chunk)
		for _, d := range s.cond.Out(c) {
			if s.region[d]&regionOut != 0 {
				s.mask[d] |= bit
				s.todo.push(d)
			}
		}
		if s.chunk = append(s.chunk, int32(i)); len(s.chunk) == sweepChunk || i == len(keys)-1 {
			s.sweep(true)
		}
	}
	for i, c := range keys {
		from := s.boundary[s.boundAt[s.boundOff[c]]]
		for _, o := range s.results[i].Boundary {
			edges = append(edges, [2]uint32{from, s.boundary[o]})
		}
	}
	slices.SortFunc(edges, func(a, b [2]uint32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	s.results, s.arena, s.stats = nil, nil, RunStats{}
	return edges
}

// keepReps cuts the boundary row of every key component down to its
// first ordinal, the component's representative, in place, and returns
// the edges of a cycle through the whole row — in increasing ordinal
// order and back to the first — wherever it held more than one: what
// lets a sweep report the representative alone.
func (s *Shard) keepReps() (cycles [][2]uint32) {
	off, at := s.boundOff, s.boundAt
	n := int32(0)
	for c, r := range s.region {
		lo, hi := off[c], off[c+1]
		off[c] = n
		if r&key != 0 {
			row := at[lo:hi]
			for i := 1; i < len(row); i++ {
				cycles = append(cycles, [2]uint32{s.boundary[row[i-1]], s.boundary[row[i]]})
			}
			if len(row) > 1 {
				cycles = append(cycles, [2]uint32{s.boundary[row[len(row)-1]], s.boundary[row[0]]})
			}
			hi = lo + 1
		}
		n += int32(copy(at[n:], at[lo:hi]))
	}
	off[len(s.region)] = n
	s.boundAt = at[:n:n]
	return cycles
}

// classify fills region. scc numbers components in reverse topological
// order, so every DAG edge points at a smaller id: one increasing pass
// sees a component after all its successors (regionOut), one decreasing
// pass after all its predecessors (regionIn), and then knows whether it
// is key.
func (s *Shard) classify() {
	n := int32(s.cond.N)
	s.region = make([]uint8, n)
	for _, e := range s.sub.Entries {
		s.region[s.cond.Comp[e]] |= regionIn
	}
	for _, x := range s.sub.Exits {
		s.region[s.cond.Comp[x]] |= regionOut
	}
	for c := int32(0); c < n; c++ {
		for _, d := range s.cond.Out(c) {
			s.region[c] |= s.region[d] & regionOut
		}
	}
	for c := n - 1; c >= 0; c-- {
		for _, p := range s.cond.In(c) {
			s.region[c] |= s.region[p] & regionIn
		}
		if s.region[c]&regionBits == regionBits && s.boundOff[c+1] > s.boundOff[c] {
			s.region[c] |= key
		}
	}
}

// prune copies g keeping the edges both of whose ends keep admits by
// region; the row of a component it rejects, and of a key component — a
// sweep pops and reports one, but pushes nothing on — is empty.
func prune(g csr, region []uint8, keep func(uint8) bool) csr {
	out := csr{off: make([]int32, len(g.off))}
	for c, r := range region {
		if keep(r) && r&key == 0 {
			for _, d := range g.edges[g.off[c]:g.off[c+1]] {
				if keep(region[d]) {
					out.edges = append(out.edges, d)
				}
			}
		}
		out.off[c+1] = int32(len(out.edges))
	}
	return out
}

// Regions reports how the partition's components split by region.
func (s *Shard) Regions() Regions {
	var r Regions
	for _, b := range s.region {
		switch b & regionBits {
		case regionIn | regionOut:
			r.Path++
		case regionSink:
			r.Sink++
		case regionOut:
			r.Source++
		default:
			r.Interior++
		}
	}
	return r
}

// mergeBoundary fills boundary by merging the entry and exit lists —
// both increasing in local and so in global ID, a vertex that is both
// listed once — and returns the local id of every ordinal.
func (s *Shard) mergeBoundary() (local []int32) {
	en, ex := s.sub.Entries, s.sub.Exits
	local = make([]int32, 0, len(en)+len(ex))
	for len(en) > 0 || len(ex) > 0 {
		var lv int32
		switch {
		case len(ex) == 0 || len(en) > 0 && en[0] < ex[0]:
			lv, en = en[0], en[1:]
		case len(en) == 0 || ex[0] < en[0]:
			lv, ex = ex[0], ex[1:]
		default: // an entry that is also an exit
			lv, en, ex = en[0], en[1:], ex[1:]
		}
		local = append(local, lv)
		s.boundary = append(s.boundary, s.sub.GlobalID(lv))
	}
	return local
}

// boundaryList groups the boundary vertices (local ids, listed by
// ordinal) by component: row c of the returned CSR holds the ordinals
// of the ones in component c, still increasing.
func (s *Shard) boundaryList(local []int32) (off []int32, at []uint32) {
	n := s.cond.N
	off = make([]int32, n+1)
	for _, v := range local {
		off[s.cond.Comp[v]+1]++
	}
	for c := 1; c <= n; c++ {
		off[c] += off[c-1]
	}
	// off[c] is the fill cursor of row c and ends at the start of row
	// c+1: shifting the array up by one restores the offsets.
	at = make([]uint32, len(local))
	for ord, v := range local {
		c := s.cond.Comp[v]
		at[off[c]] = uint32(ord)
		off[c]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, at
}

// ID returns the shard's partition index.
func (s *Shard) ID() int { return s.id }

// NumVertices returns the partition's vertex count.
func (s *Shard) NumVertices() int { return s.sub.NumVertices() }

// LastRun reports what the most recent Run did. Like Run itself it must
// not race with one.
func (s *Shard) LastRun() RunStats { return s.stats }

// Run executes every task in the batch and returns one result per task,
// in task order. The returned slice and the Boundary slices inside it
// alias Shard-owned buffers: they are valid until the next Run.
//
// Seeds and targets are global vertex IDs: the coordinator broadcasts
// the same batch to every shard, and each shard resolves ownership for
// itself (partition.Subgraph.Local, one table access), silently
// skipping seeds it does not hold. The per-task Owned count reports how
// many seeds this shard did hold, which is how a placement-free
// coordinator knows the fleet collectively covered every seed.
//
// A result's Boundary holds the boundary vertices — entries and exits
// alike, of a key component its representative alone — of every
// component the task's sweep pops: for Forward, those its seeds reach
// before crossing a key component, for Backward those that reach one of
// its seeds after the last. A Forward sweep pops only components that
// reach an exit, a Backward one only components an entry reaches. Hit
// is set when a target is reached before crossing a key component.
// Boundary holds ordinals into
// Summary().Boundary, not vertex IDs, and is a function of the shard
// and the task alone — not of the rest of the batch — so replicas and
// snapshot-restored shards answer byte-identically: components in the
// order the sweep expands them (decreasing component id for Forward,
// increasing for Backward), and within a component increasing ordinal,
// which is increasing global ID.
func (s *Shard) Run(tasks []wire.Task) []wire.Result {
	s.results = slices.Grow(s.results[:0], len(tasks))[:len(tasks)]
	for i := range tasks {
		s.results[i] = wire.Result{Kind: tasks[i].Kind, Query: tasks[i].Query}
	}
	s.arena = s.arena[:0]
	s.stats = RunStats{}
	s.runKind(tasks, wire.Forward)
	s.runKind(tasks, wire.Backward)
	return s.results
}

// runKind answers the batch's tasks of one direction, sweepChunk at a
// time. Only a task that owns a seed takes a bit: for the rest, which
// the broadcast delivers all the same, the zero result already stands.
//
// A seed the direction's pruned DAG leaves out counts towards Owned and
// is not expanded. A Backward seed no entry reaches reaches back to no
// entry. A Forward seed on the sink side reaches no exit, but may reach
// a target: its bit is parked in its component's mask for the target
// marks to meet.
func (s *Shard) runKind(tasks []wire.Task, kind wire.TaskKind) {
	forward := kind == wire.Forward
	for i := range tasks {
		t := &tasks[i]
		if t.Kind != kind {
			continue
		}
		bit := uint64(1) << len(s.chunk)
		owned := uint32(0)
		for _, v := range t.Seeds {
			lv, ok := s.sub.Local(graph.VertexID(v))
			if !ok {
				continue
			}
			owned++
			c := s.cond.Comp[lv]
			switch r := s.region[c] & regionBits; {
			case forward && r == regionSink:
				if s.mask[c] == 0 {
					s.parked = append(s.parked, c)
				}
				s.mask[c] |= bit
			case forward || r&regionIn != 0:
				s.mask[c] |= bit
				s.todo.push(c)
			}
		}
		if owned == 0 {
			s.stats.Unowned++
			continue
		}
		if forward {
			for _, v := range t.Targets {
				lv, ok := s.sub.Local(graph.VertexID(v))
				if !ok {
					continue
				}
				if c := s.cond.Comp[lv]; s.region[c]&regionBits == regionSink {
					s.tmask[c] |= bit
					s.marks.push(c)
				} else {
					s.aims = append(s.aims, aim{c, uint8(len(s.chunk))})
				}
			}
		}
		s.results[i].Owned = owned
		s.chunk = append(s.chunk, int32(i))
		if len(s.chunk) == sweepChunk {
			s.sweep(forward)
		}
	}
	if len(s.chunk) > 0 {
		s.sweep(forward)
	}
}

// markTargets spreads a Forward chunk's target marks — its targets on
// the sink side, where the sweep does not go — to where the sweep can
// meet them, leaving marks all-zero and every marked component in
// marked. A mark climbs the reverse edges through sink-side components
// — whose successors are all sink side and none of which is key, so
// there tmask[c] is exactly the tasks with a target c reaches — and one
// edge further, onto the last component before the sink side, where it
// stops; a key component there pushes nothing on, so it takes no mark. On any
// seed ⇝ target path the sink-side components are a suffix: either
// there is none and the target is an aim, or the sweep reaches the
// component before the suffix through no key component exactly when it finds the
// mark there, or the seed is itself sink side and parked on a component
// whose marks are exact. So Hit is mask & tmask on some marked
// component, or an aim met, and nothing else.
func (s *Shard) markTargets() {
	tmask, active, top := s.tmask, s.marks.active, s.marks.top
	marked := s.marked[:0]
	for tw := range top {
		for top[tw] != 0 {
			w := tw<<6 + bits.TrailingZeros64(top[tw])
			for active[w] != 0 {
				b := bits.TrailingZeros64(active[w])
				active[w] &^= 1 << b
				c := int32(w<<6 + b)
				// Predecessors have larger ids: c's marks are final.
				marked = append(marked, c)
				if s.region[c]&regionBits != regionSink {
					continue
				}
				for _, p := range s.cond.In(c) {
					if s.region[p]&key == 0 {
						tmask[p] |= tmask[c]
						s.marks.push(p)
					}
				}
			}
			top[tw] &^= 1 << (w & 63)
		}
	}
	s.marked = marked
}

// sweep answers the chunk's tasks — Hit and Boundary of their results —
// and empties the chunk, leaving every mask and bitmap all-zero again.
//
// Every DAG edge points at a smaller id: a forward sweep pops the
// frontier from the top down, a backward one (over the reverse edges)
// from the bottom up, and either way a component is popped once, after
// every component that pushes into it, when its mask is final. The
// inner loop knows nothing of regions — it walks fwd or bwd, which hold
// no pruned edge — so a sweep costs the unpruned components and edges
// its tasks reach, in word operations, the boundary vertices it
// reports, and a scan of the top-level bitmap (one word per 4096
// components) — never the partition's size or its boundary's.
func (s *Shard) sweep(forward bool) {
	g, off, at := s.bwd, s.boundOff, s.boundAt
	mask, active, top := s.mask, s.todo.active, s.todo.top
	tw, step := 0, 1
	if forward {
		s.markTargets()
		g = s.fwd
		tw, step = len(top)-1, -1
	}
	touched, rim := s.touched[:0], s.rim[:0]
	for ; tw >= 0 && tw < len(top); tw += step {
		for top[tw] != 0 {
			w := tw<<6 + nextBit(top[tw], forward)
			for active[w] != 0 {
				b := nextBit(active[w], forward)
				active[w] &^= 1 << b
				c := w<<6 + b
				// c's mask is final: count its boundary vertices towards
				// every task in it and push the mask on (a key
				// component's row is empty).
				m := mask[c]
				touched = append(touched, int32(c))
				if n := int(off[c+1] - off[c]); n != 0 {
					rim = append(rim, int32(c))
					for r := m; r != 0; r &= r - 1 {
						s.cursor[bits.TrailingZeros64(r)] += n
					}
				}
				for _, d := range g.edges[g.off[c]:g.off[c+1]] {
					mask[d] |= m
					active[d>>6] |= 1 << (d & 63)
					top[d>>12] |= 1 << (d >> 6 & 63)
				}
			}
			top[tw] &^= 1 << (w & 63)
		}
	}
	s.touched, s.rim = touched, rim
	s.stats.Components += len(touched)

	if forward {
		var hit uint64
		for _, a := range s.aims {
			hit |= mask[a.c] & (1 << a.b)
		}
		for _, c := range s.marked {
			hit |= mask[c] & s.tmask[c]
			s.tmask[c] = 0
		}
		for ; hit != 0; hit &= hit - 1 {
			s.results[s.chunk[bits.TrailingZeros64(hit)]].Hit = true
		}
		for _, c := range s.parked {
			mask[c] = 0
		}
		s.aims, s.marked, s.parked = s.aims[:0], s.marked[:0], s.parked[:0]
	}

	// Lay the chunk's boundaries out back to back in the arena, one
	// contiguous run per task, and fill them from the rim components:
	// cursor[b] turns from task b's count into its write position, and
	// ends as the end of its run.
	cursor := s.cursor[:len(s.chunk)]
	start := len(s.arena)
	end := start
	for b, n := range cursor {
		cursor[b] = end
		end += n
	}
	s.arena = slices.Grow(s.arena, end-start)[:end]
	for _, c := range rim {
		row := at[off[c]:off[c+1]]
		for m := mask[c]; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			for _, v := range row { // rows are short: a loop beats copy
				s.arena[cursor[b]] = v
				cursor[b]++
			}
		}
	}
	for b, ti := range s.chunk {
		s.results[ti].Boundary = s.arena[start:cursor[b]:cursor[b]]
		start = cursor[b]
		cursor[b] = 0
	}
	for _, c := range touched {
		mask[c] = 0
	}
	s.chunk = s.chunk[:0]
}

// nextBit returns the position of the set bit of x a sweep takes
// next: the highest going forward, the lowest going backward.
func nextBit(x uint64, forward bool) int {
	if forward {
		return bits.Len64(x) - 1
	}
	return bits.TrailingZeros64(x)
}

// Summary returns the shard's boundary summary — its boundary-vertex
// set, first-boundary skeleton edges, and outgoing cross-partition edges,
// all as global IDs, the boundary list in the strictly increasing order
// DecodeSummary enforces. This is everything a graph-free coordinator
// needs from this partition to stitch the global boundary graph. New
// builds it; Summary is free and safe concurrently with anything.
func (s *Shard) Summary() wire.Summary { return s.sum }
