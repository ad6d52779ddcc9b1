// Package shard is the DSR execution runtime: a Shard executes local
// searches over one partition's subgraph, and a Transport carries task
// batches from the coordinator to shards — in-process (Loopback) or
// over TCP (Client/Server) with the internal/wire protocol. The
// coordinator in internal/dsr only ever speaks Transport, so the
// single-process engine is literally the distributed one running over
// Loopback.
package shard

import (
	"math/bits"
	"slices"
	"sync"

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
// are read back through per-component boundary lists.
//
// All scratch (masks, bitmaps, result and boundary buffers) is owned by
// the Shard, all-zero between sweeps and reused across Run calls, so
// steady-state batches allocate nothing here. A Shard is not safe for
// concurrent Run calls; every Transport serializes them.
type Shard struct {
	id   int
	sub  *partition.Subgraph
	cond *scc.Condensation

	// Per-component boundary lists as CSRs over component ids: the
	// global IDs of a component's exits and of its entries, increasing
	// within a component.
	exitOff, entryOff []int32
	exitAt, entryAt   []uint32

	mask    []uint64        // per component: the chunk's tasks known to reach it
	active  []uint64        // bitmap of components whose mask is still to be pushed on
	top     []uint64        // bitmap of the non-zero words of active
	touched []int32         // components the current sweep expanded, in sweep order
	rim     []int32         // those of touched that hold boundary vertices
	chunk   []int32         // task indexes of the current sweep; bit b is chunk[b]
	cursor  [sweepChunk]int // per bit: boundary count, then write position in arena

	results []wire.Result // reused result batch
	arena   []uint32      // reused boundary-vertex storage
	stats   RunStats      // what the last Run did

	sumOnce sync.Once // guards the lazily built boundary summary
	sum     wire.Summary
}

// RunStats counts what one Run did, for the serving layer's waste and
// sharing metrics.
type RunStats struct {
	Unowned    int // tasks of the batch none of whose seeds this shard owns
	Components int // components expanded, summed over the batch's sweeps
}

// New builds a Shard over one partition's subgraph, building (or
// reusing the cached) SCC condensation.
func New(id int, sub *partition.Subgraph) *Shard {
	cond := sub.Condensation(nil)
	words := (cond.N + 63) / 64
	s := &Shard{
		id:     id,
		sub:    sub,
		cond:   cond,
		mask:   make([]uint64, cond.N),
		active: make([]uint64, words),
		top:    make([]uint64, (words+63)/64),
		chunk:  make([]int32, 0, sweepChunk),
	}
	s.exitOff, s.exitAt = s.boundaryLists(sub.Exits)
	s.entryOff, s.entryAt = s.boundaryLists(sub.Entries)
	return s
}

// boundaryLists groups boundary vertices (local ids, increasing) by
// component: row c of the returned CSR holds the global IDs of the ones
// in component c, still increasing.
func (s *Shard) boundaryLists(verts []int32) (off []int32, at []uint32) {
	n := s.cond.N
	off = make([]int32, n+1)
	for _, v := range verts {
		off[s.cond.Comp[v]+1]++
	}
	for c := 1; c <= n; c++ {
		off[c] += off[c-1]
	}
	// off[c] is the fill cursor of row c and ends at the start of row
	// c+1: shifting the array up by one restores the offsets.
	at = make([]uint32, len(verts))
	for _, v := range verts {
		c := s.cond.Comp[v]
		at[off[c]] = s.sub.GlobalID(v)
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
// itself (binary search over its sorted local→global map), silently
// skipping seeds it does not hold. The per-task Owned count reports how
// many seeds this shard did hold, which is how a placement-free
// coordinator knows the fleet collectively covered every seed.
//
// A result's Boundary is a function of the shard and the task alone —
// not of the rest of the batch — so replicas and snapshot-restored
// shards answer byte-identically: components in the order the sweep
// expands them (decreasing component id for Forward, increasing for
// Backward), and within a component increasing global ID.
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
func (s *Shard) runKind(tasks []wire.Task, kind wire.TaskKind) {
	for i := range tasks {
		t := &tasks[i]
		if t.Kind != kind {
			continue
		}
		bit := uint64(1) << len(s.chunk)
		owned := uint32(0)
		for _, v := range t.Seeds {
			if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
				owned++
				c := s.cond.Comp[lv]
				s.mask[c] |= bit
				s.activate(c)
			}
		}
		if owned == 0 {
			s.stats.Unowned++
			continue
		}
		s.results[i].Owned = owned
		s.chunk = append(s.chunk, int32(i))
		if len(s.chunk) == sweepChunk {
			s.sweep(tasks, kind == wire.Forward)
		}
	}
	if len(s.chunk) > 0 {
		s.sweep(tasks, kind == wire.Forward)
	}
}

// activate queues component c for expansion.
func (s *Shard) activate(c int32) {
	w := c >> 6
	s.active[w] |= 1 << (c & 63)
	s.top[w>>6] |= 1 << (w & 63)
}

// sweep answers the chunk's tasks — Hit and Boundary of their results —
// and empties the chunk, leaving mask, active and top all-zero again.
//
// scc numbers components in reverse topological order, so every DAG
// edge points at a smaller id: a forward sweep pops the active bitmap
// from the top down, a backward one (over the reverse edges) from the
// bottom up, and either way a component is popped once, after every
// component that pushes into it, when its mask is final. A sweep costs
// the components and DAG edges its tasks reach, in word operations, the
// boundary vertices it reports, and a scan of the top-level bitmap (one
// word per 4096 components) — never the partition's size or its
// boundary's.
func (s *Shard) sweep(tasks []wire.Task, forward bool) {
	dag := s.cond.Data()
	edgeOff, edges, off, at := dag.ROff, dag.REdges, s.entryOff, s.entryAt
	tw, step := 0, 1
	if forward {
		edgeOff, edges, off, at = dag.FOff, dag.FEdges, s.exitOff, s.exitAt
		tw, step = len(s.top)-1, -1
	}
	mask, active, top := s.mask, s.active, s.top
	touched, rim := s.touched[:0], s.rim[:0]
	for ; tw >= 0 && tw < len(top); tw += step {
		for top[tw] != 0 {
			w := tw<<6 + nextBit(top[tw], forward)
			for active[w] != 0 {
				b := nextBit(active[w], forward)
				active[w] &^= 1 << b
				c := w<<6 + b
				// c's mask is final: count its boundary vertices towards
				// every task in it and push the mask on.
				m := mask[c]
				touched = append(touched, int32(c))
				if n := int(off[c+1] - off[c]); n != 0 {
					rim = append(rim, int32(c))
					for r := m; r != 0; r &= r - 1 {
						s.cursor[bits.TrailingZeros64(r)] += n
					}
				}
				for _, d := range edges[edgeOff[c]:edgeOff[c+1]] {
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
		for b, ti := range s.chunk {
			for _, v := range tasks[ti].Targets {
				if lv, ok := s.sub.Local(graph.VertexID(v)); ok && s.mask[s.cond.Comp[lv]]>>b&1 != 0 {
					s.results[ti].Hit = true
					break
				}
			}
		}
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
// set, entry→exit summary edges, and outgoing cross-partition edges,
// all as global IDs. This is everything a graph-free coordinator needs
// from this partition to stitch the global boundary graph. Built once
// (the first call builds the SCC reachability index) and cached;
// subsequent calls are free and safe concurrently with each other.
func (s *Shard) Summary() wire.Summary {
	s.sumOnce.Do(func() { s.sum = s.summaryWith(s.sub.Summary(nil)) })
	return s.sum
}

// summaryWith assembles the boundary summary around the given
// entry→exit edges: the boundary vertices — the union of the entry and
// exit lists, both increasing in local and so in global ID, merged into
// the strictly increasing order DecodeSummary enforces — and a copy of
// the cross edges.
func (s *Shard) summaryWith(edges [][2]uint32) wire.Summary {
	en, ex := s.sub.Entries, s.sub.Exits
	sum := wire.Summary{Edges: edges, Cross: slices.Clone(s.sub.Cross)}
	for len(en) > 0 || len(ex) > 0 {
		var lv int32
		switch {
		case len(ex) == 0 || len(en) > 0 && en[0] < ex[0]:
			lv, en = en[0], en[1:]
		case len(en) == 0 || ex[0] < en[0]:
			lv, ex = ex[0], ex[1:]
		default: // an entry that is also an exit, listed once
			lv, en, ex = en[0], en[1:], ex[1:]
		}
		sum.Boundary = append(sum.Boundary, s.sub.GlobalID(lv))
	}
	return sum
}
