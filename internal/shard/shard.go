// Package shard is the DSR execution runtime: a Shard executes local
// searches over one partition's subgraph — one walk of its SCC
// condensation per task, each stopping at the first key component on
// its way, the coordinator's skeleton of summary edges carrying the
// rest — and a Transport carries task batches from the
// coordinator to shards. There is one transport, Replicated — a set of
// interchangeable replicas per partition, owned by one goroutine that
// serves the partition's calls one at a time, as the engine makes them
// — and two kinds of Replica under it, both synchronous: an in-process
// Shard (NewLoopback) and a TCP connection to a Server speaking the
// internal/wire protocol (Dial, DialReplicated). The coordinator in
// internal/dsr only ever speaks Transport — one Reply per Submit;
// failover and redials happen behind it — so the single-process engine
// is literally the distributed one running over in-process replicas.
package shard

import (
	"cmp"
	"fmt"
	"slices"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/scc"
	"dsr/internal/wire"
)

// Shard executes local-search tasks against one partition. A search
// runs over the partition's SCC condensation, not its vertices — so a
// partition that is one big cycle costs O(1) work instead of O(V) — and
// each task that owns a seed gets one walk of its own: a queue of
// components and a generation-stamped visited array. Vertex-level
// answers (local hits, reached boundary vertices) are read back through
// a per-component boundary list.
//
// Vertex IDs cost one table access each way. Seeds and targets arrive
// as global IDs and resolve through the subgraph's rank index
// (partition.Subgraph.Local); reached boundary vertices leave as
// ordinals — positions in the boundary list, which every replica and
// every snapshot-restored copy of the shard derives identically from
// the subgraph and which the coordinator already holds from the
// boundary summary — so no end searches for anything.
//
// Walks are boundary-directed. A partition's whole contribution to
// global connectivity is what its entries reach and what reaches its
// exits, so New classifies every component once (see the region bits)
// and a walk follows a copy of the DAG with everything else cut away: a
// Backward walk expands only components some entry reaches, a Forward
// one never expands a sink-side component — one an entry reaches but
// that reaches no exit.
//
// A walk also stops at the first key component on every path, in
// either direction. A key component lies on an entry→exit path and
// holds a boundary vertex, and the summary is the partition's
// first-boundary skeleton (summarize): a cycle through each key
// component's boundary vertices, and an edge from each key component
// to every key component it reaches first. Between them the
// coordinator holds everything that lies past a key component, so a
// walk visits and reports one — by a single ordinal, its representative,
// which the cycle ties to all the others — but goes no further, seed
// components included. Every reported vertex is still a fact — the seed
// reaches it, or it reaches the target — and nothing is lost: a Forward
// path to an exit either crosses a key component, whose skeleton edges
// lead on, key by key, to the exit's, or it does not, and the exit is
// reported itself; Backward is the mirror image. The one other thing a
// walk answers — does a Forward task reach one of its targets locally
// — is settled for targets below the pruning by climbing upwards from
// them (see climbs), and is exactly "a target is reached without
// crossing a key component": a path through one becomes, at the
// coordinator, a seed that is also a goal or a skeleton path from one.
//
// All scratch (stamps, queues, result and boundary buffers) is owned by
// the Shard and reused across Run calls, so steady-state batches
// allocate nothing here. A Shard is not safe for concurrent Run calls;
// every Transport serializes them.
type Shard struct {
	id   int
	sub  *partition.Subgraph
	cond *scc.Condensation

	// boundary is the partition's boundary vertices, entries ∪ exits, as
	// strictly increasing global IDs: the Boundary list of the summary,
	// and what a result's ordinals index.
	boundary []uint32

	// The per-component boundary list as a CSR over component ids: what a
	// walk reports of a visited component — the ordinals of its entries
	// and exits, increasing, or for a key component only the first, its
	// representative.
	boundOff []int32
	boundAt  []uint32

	// region classifies every component (the region and key bits). fwd
	// and bwd are the condensation DAG pruned by it, which is all a walk
	// follows: fwd holds the forward edges among components that are not
	// sink side, bwd the reverse edges among regionIn components, and the
	// row of a key component is empty in both. Pruning at build time
	// means a pruned edge costs a walk nothing, not even the test that
	// would skip it.
	region   []uint8
	fwd, bwd csr

	// The current walk: a component is visited when seen holds gen, and
	// on a target's climb when climb does. Each walk takes the next gen,
	// so neither array is ever cleared but when gen wraps (next).
	seen, climb []uint32
	gen         uint32
	queue       []int32 // components the walk expanded, in visit order
	rim         []int32 // those of queue that hold boundary vertices
	up          []int32 // the climb's stack

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
// walk stops, in both directions: a path component, never sink side,
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
// but no entry reaches them, Interior ones are neither. Forward walks
// never expand Sink, Backward walks expand only Path and Sink.
type Regions struct{ Path, Sink, Source, Interior int }

// String is the census as dsr-shard's boot line prints it.
func (r Regions) String() string {
	return fmt.Sprintf("%d path, %d sink, %d source, %d interior", r.Path, r.Sink, r.Source, r.Interior)
}

// csr is a compressed adjacency over component ids.
type csr struct{ off, edges []int32 }

// RunStats counts what one Run did, for the serving layer's waste and
// sharing metrics.
type RunStats struct {
	Unowned    int // tasks of the batch none of whose seeds this shard owns
	Components int // components expanded (after pruning), summed over the batch's walks
}

// New builds a Shard over one partition's subgraph: it condenses the
// subgraph into SCCs (scc.Condense), then classifies the components,
// prunes the DAG for the two walk directions and walks from the key
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
		seen:  make([]uint32, cond.N),
		climb: make([]uint32, cond.N),
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
// the query walk itself, one per key component, seeded at its
// successors on a path: a Forward walk visits and reports key
// components by their representatives and goes no further, so C's
// walk reports exactly the representatives it reaches first. Every
// edge is a local path, and a chain of them covers every entry ⇝ exit
// path of the partition, key component by key component. The edges are
// sorted, so replicas ship identical bytes. The scratch the walks grew
// is released and the run statistics cleared: a new shard's first query
// starts from what it would have without this.
func (s *Shard) summarize(edges [][2]uint32) [][2]uint32 {
	for c, r := range s.region {
		if r&key == 0 {
			continue
		}
		s.next()
		for _, d := range s.cond.Out(int32(c)) {
			if s.region[d]&regionOut != 0 {
				s.seed(d, true)
			}
		}
		from := s.boundary[s.boundAt[s.boundOff[c]]]
		for _, o := range s.walk(true) {
			edges = append(edges, [2]uint32{from, s.boundary[o]})
		}
		s.arena = s.arena[:0]
	}
	slices.SortFunc(edges, func(a, b [2]uint32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	s.queue, s.rim, s.arena, s.stats = nil, nil, nil, RunStats{}
	return edges
}

// keepReps cuts the boundary row of every key component down to its
// first ordinal, the component's representative, in place, and returns
// the edges of a cycle through the whole row — in increasing ordinal
// order and back to the first — wherever it held more than one: what
// lets a walk report the representative alone.
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
// walk visits and reports one, but goes no further — is empty.
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
// coordinator knows the fleet collectively covered every seed. Only a
// task that owns a seed is walked: for the rest, which the broadcast
// delivers all the same, the zero result stands.
//
// A result's Boundary holds the boundary vertices — entries and exits
// alike, of a key component its representative alone — of every
// component the task's walk expands: for Forward, those its seeds reach
// before crossing a key component, for Backward those that reach one of
// its seeds after the last. A Forward walk expands only components that
// are not sink side, a Backward one only components an entry reaches.
// Hit is set when a target is reached before crossing a key component.
// Boundary holds ordinals into Summary().Boundary, not vertex IDs, and
// is a function of the shard and the task alone — not of the rest of
// the batch — so replicas and snapshot-restored shards answer
// byte-identically: components in decreasing id for Forward and
// increasing for Backward — the direction's topological order — and
// within a component increasing ordinal, which is increasing global ID.
func (s *Shard) Run(tasks []wire.Task) []wire.Result {
	s.results = slices.Grow(s.results[:0], len(tasks))[:len(tasks)]
	s.arena = s.arena[:0]
	s.stats = RunStats{}
	for i := range tasks {
		t, r := &tasks[i], &s.results[i]
		*r = wire.Result{Kind: t.Kind, Query: t.Query}
		forward := t.Kind == wire.Forward
		s.next()
		for _, v := range t.Seeds {
			if lv, ok := s.sub.Local(graph.VertexID(v)); ok {
				r.Owned++
				s.seed(s.cond.Comp[lv], forward)
			}
		}
		if r.Owned == 0 {
			s.stats.Unowned++
			continue
		}
		r.Boundary = s.walk(forward)
		r.Hit = forward && s.hit(t.Targets)
	}
	return s.results
}

// next starts a walk: a new generation, so nothing is seen or climbed
// yet, and an empty queue. When gen wraps, both stamp arrays are cleared
// instead.
func (s *Shard) next() {
	if s.gen++; s.gen == 0 {
		clear(s.seen)
		clear(s.climb)
		s.gen = 1
	}
	s.queue = s.queue[:0]
}

// seed puts the component of a seed the task owns into its walk. A
// seed the direction's pruned DAG leaves out is not expanded. A
// Backward seed no entry reaches reaches back to no entry and is
// dropped. A Forward seed on the sink side reaches no exit, but may
// reach a target: it is stamped seen, for a target's climb to meet, and
// not queued.
func (s *Shard) seed(c int32, forward bool) {
	switch r := s.region[c] & regionBits; {
	case forward && r == regionSink:
		s.seen[c] = s.gen
	case (forward || r&regionIn != 0) && s.seen[c] != s.gen:
		s.seen[c] = s.gen
		s.queue = append(s.queue, c)
	}
}

// walk expands the queued components over fwd or bwd — which hold no
// pruned edge, so the loop knows nothing of regions — until the queue
// is exhausted, and appends the rows of the expanded components that
// hold boundary vertices to the arena, in the documented order. It
// returns them. A walk costs the unpruned components and edges its task
// reaches and the boundary vertices it reports — never the partition's
// size or its boundary's.
func (s *Shard) walk(forward bool) []uint32 {
	g, off, seen, gen := s.bwd, s.boundOff, s.seen, s.gen
	if forward {
		g = s.fwd
	}
	rim := s.rim[:0]
	for head := 0; head < len(s.queue); head++ {
		c := s.queue[head]
		if off[c+1] > off[c] {
			rim = append(rim, c)
		}
		for _, d := range g.edges[g.off[c]:g.off[c+1]] {
			if seen[d] != gen {
				seen[d] = gen
				s.queue = append(s.queue, d)
			}
		}
	}
	s.stats.Components += len(s.queue)
	slices.Sort(rim)
	if forward {
		slices.Reverse(rim)
	}
	start := len(s.arena)
	for _, c := range rim {
		s.arena = append(s.arena, s.boundAt[off[c]:off[c+1]]...)
	}
	s.rim = rim
	return s.arena[start:len(s.arena):len(s.arena)]
}

// hit reports whether the Forward walk just made reaches one of the
// targets: a target in a component the walk stamped, or on the sink
// side, where the walk does not go, one whose climb meets a stamp.
func (s *Shard) hit(targets []int32) bool {
	for _, v := range targets {
		lv, ok := s.sub.Local(graph.VertexID(v))
		if !ok {
			continue
		}
		c := s.cond.Comp[lv]
		if s.seen[c] == s.gen || s.region[c]&regionBits == regionSink && s.climbs(c) {
			return true
		}
	}
	return false
}

// climbs reports whether some component stamped by the current walk
// reaches sink-side component c. The climb follows the reverse edges
// through sink-side components — whose successors are all sink side
// and none of which is key — and one edge further, onto the last
// component before the sink side, where it stops; a key component there
// leads nowhere on a walk, so it is not climbed onto. On any seed ⇝
// target path the sink-side components are a suffix: either the walk
// expands the component before the suffix through no key component, and
// the climb meets its stamp there, or the seed is itself sink side, and
// the climb meets the stamp seed put on it. climb stamps what the climb
// has been on, so the targets of one task share it.
func (s *Shard) climbs(c int32) bool {
	s.climb[c] = s.gen
	s.up = append(s.up[:0], c)
	for len(s.up) > 0 {
		c, s.up = s.up[len(s.up)-1], s.up[:len(s.up)-1]
		if s.seen[c] == s.gen {
			return true
		}
		if s.region[c]&regionBits != regionSink {
			continue
		}
		for _, p := range s.cond.In(c) {
			if s.region[p]&key == 0 && s.climb[p] != s.gen {
				s.climb[p] = s.gen
				s.up = append(s.up, p)
			}
		}
	}
	return false
}

// Summary returns the shard's boundary summary — its boundary-vertex
// set, first-boundary skeleton edges, and outgoing cross-partition edges,
// all as global IDs, the boundary list in the strictly increasing order
// DecodeSummary enforces. This is everything a graph-free coordinator
// needs from this partition to stitch the global boundary graph. New
// builds it; Summary is free and safe concurrently with anything.
func (s *Shard) Summary() wire.Summary { return s.sum }
