package dsr

import (
	"fmt"
	"math"
	"math/bits"

	"dsr/internal/scc"
	"dsr/internal/wire"
)

// boundaryGraph is the compressed global view stitched from the shards'
// boundary summaries: vertices are the boundary vertices of the
// partitioned graph, edges are the per-partition summary edges — each
// partition's first-boundary skeleton — plus the raw cross-partition
// edges. It is retained in condensed form
// only — the strongly connected components of that graph and the DAG
// between them — because the finish asks nothing but "which components
// does this set of components reach". Components are numbered in
// reverse topological order (scc.Decompose): every DAG edge points at a
// smaller number, so a pass in decreasing order sees each component
// after all its predecessors, and a pass in increasing order over the
// transpose — kept beside the DAG, as scc.Condense builds both — sees
// each after all its successors. The sweep runs one of each.
//
// The DAG and its transpose are read by the sweep and by the label
// build (labels.go) only: once the engine installs labels it drops them
// (dropDAG), and the finish reads the labels instead.
//
// No vertex ID survives the stitch. A shard names a boundary vertex by
// its ordinal in the boundary list of the shard's own summary, so all
// the coordinator keeps per vertex is compOf: per partition, ordinal ->
// component. Absorbing a reply is an index into it.
//
// The stitch itself holds nothing of size n either: it merges the k
// sorted boundary lists into one, noting each vertex's partition, and
// resolves every edge end through a bucketed index over that list (about
// one bucket per boundary vertex, a binary search inside the bucket), all
// dropped once the graph is condensed.
type boundaryGraph struct {
	nverts int       // boundary vertices, over all partitions
	ncomps int       // components
	compOf [][]int32 // per partition: ordinal in its boundary list -> component
	off    []int32   // component-DAG CSR offsets into succ, ncomp+1
	succ   []int32   // successor components, deduped per row
	poff   []int32   // the DAG's transpose: offsets into pred, ncomp+1
	pred   []int32   // predecessor components, deduped per row
}

// ncomp is the number of components.
func (bg *boundaryGraph) ncomp() int { return bg.ncomps }

// residentBytes is the memory footprint of the stitched boundary graph
// — with the finish's state, the only per-graph state the coordinator
// retains: compOf, and the DAG in both directions until dropDAG.
func (bg *boundaryGraph) residentBytes() int {
	return 4 * (bg.nverts + len(bg.off) + len(bg.succ) + len(bg.poff) + len(bg.pred))
}

// dropDAG releases the component DAG and its transpose, which nothing
// reads once labels answer the finish.
func (bg *boundaryGraph) dropDAG() { bg.off, bg.succ, bg.poff, bg.pred = nil, nil, nil, nil }

// csr is the vertex-level boundary graph as stitchBoundary lays it out,
// alive only long enough to be condensed.
type csr struct {
	off []int64
	adj []int32
}

func (g *csr) NumVertices() int    { return len(g.off) - 1 }
func (g *csr) Out(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// stitchBoundary builds the global boundary graph from the k shards'
// boundary summaries — nothing else. n is the global vertex count, used
// only to range-check the summaries; the full graph is never consulted.
func stitchBoundary(n int, sums []wire.Summary) (*boundaryGraph, error) {
	owner, g, err := stitchRows(n, sums)
	if err != nil {
		return nil, err
	}
	return condense(owner, sums, g), nil
}

// stitchRows validates the summaries and lays their edges out as the
// vertex-level boundary graph over dense ids — positions in the merged,
// sorted list of every shard's boundary vertices. owner[d] is the
// partition whose boundary list holds dense id d.
//
// The heavy phases are parallel over shards, which is safe because each
// adjacency row is owned by exactly one shard: every stitched edge is
// keyed by its source vertex, and the validation pass proves each
// shard's edge sources lie in that shard's own boundary set before any
// row is touched. The boundary sets themselves cannot overlap — a
// duplicate across shards is rejected as a fleet inconsistency — and
// each is strictly increasing, which is what gives its ordinals their
// meaning.
func stitchRows(n int, sums []wire.Summary) (owner []int32, g *csr, err error) {
	k := len(sums)
	total := 0
	for p := range sums {
		b := sums[p].Boundary
		for i := 1; i < len(b); i++ {
			if b[i-1] >= b[i] {
				return nil, nil, fmt.Errorf("dsr: shard %d boundary list is not strictly increasing at %d", p, i)
			}
		}
		total += len(b)
	}
	verts, owner, err := mergeBoundaries(sums, total)
	if err != nil {
		return nil, nil, err
	}
	if len(verts) > 0 && int64(verts[len(verts)-1]) >= int64(n) {
		return nil, nil, fmt.Errorf("dsr: boundary vertex %d out of range (graph has %d vertices)", verts[len(verts)-1], n)
	}
	nb := len(verts)
	ix := newVertIndex(verts)

	// Validation before any stitching: each shard's edge sources must be
	// its own boundary vertices (row ownership — the parallel count and
	// fill below stay race-free even against a buggy or hostile shard)
	// and each target must resolve to some shard's boundary vertex. This
	// is the only pass that looks vertices up: it leaves every edge
	// behind as a (source, target) pair of dense ids in ends[p] for the
	// passes below. Summaries list an entry's edges consecutively, so a
	// repeated source reuses the previous resolution.
	ends := make([][]int32, k)
	errs := make([]error, k)
	parallelParts(k, func(p int) {
		s := &sums[p]
		pairs := make([]int32, 0, 2*(len(s.Edges)+len(s.Cross)))
		var src uint32
		d := int32(-1) // dense id of src, -1 before the first edge
		resolve := func(edges [][2]uint32, what string) error {
			for _, pr := range edges {
				if d < 0 || pr[0] != src {
					i, ok := ix.find(pr[0])
					if !ok || owner[i] != int32(p) {
						return fmt.Errorf("dsr: shard %d %s edge %d->%d: source is not one of its boundary vertices", p, what, pr[0], pr[1])
					}
					src, d = pr[0], i
				}
				t, ok := ix.find(pr[1])
				if !ok {
					return fmt.Errorf("dsr: shard %d %s edge %d->%d: target is not a boundary vertex of any shard", p, what, pr[0], pr[1])
				}
				pairs = append(pairs, d, t)
			}
			return nil
		}
		if errs[p] = resolve(s.Edges, "summary"); errs[p] == nil {
			errs[p] = resolve(s.Cross, "cross")
		}
		ends[p] = pairs
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Count per-row degrees, lay out the CSR, fill rows (deg doubles as
	// the per-row cursor). Multi-edges and entry==exit self-pairs stay
	// in: the decomposition tolerates them and the DAG build dedupes.
	g = &csr{off: make([]int64, nb+1)}
	deg := make([]int32, nb)
	parallelParts(k, func(p int) {
		for i := 0; i < len(ends[p]); i += 2 {
			deg[ends[p][i]]++
		}
	})
	for i := 0; i < nb; i++ {
		g.off[i+1] = g.off[i] + int64(deg[i])
	}
	if g.off[nb] > math.MaxInt32 {
		return nil, nil, fmt.Errorf("dsr: the summaries carry %d edges, more than the condensation's 32-bit offsets address", g.off[nb])
	}
	g.adj = make([]int32, g.off[nb])
	clear(deg)
	parallelParts(k, func(p int) {
		for i := 0; i < len(ends[p]); i += 2 {
			d := ends[p][i]
			g.adj[g.off[d]+int64(deg[d])] = ends[p][i+1]
			deg[d]++
		}
	})
	return owner, g, nil
}

// mergeBoundaries merges the k strictly increasing boundary lists into
// one sorted list of total vertices, through a min-heap of the lists'
// heads, and records beside each vertex the partition that listed it. A
// vertex two shards list comes out as adjacent equal entries, so the
// first such pair is the smallest vertex claimed twice.
func mergeBoundaries(sums []wire.Summary, total int) (verts []uint32, owner []int32, err error) {
	verts = make([]uint32, 0, total)
	owner = make([]int32, 0, total)
	pos := make([]int, len(sums))
	head := func(p int32) uint32 { return sums[p].Boundary[pos[p]] }
	heap := make([]int32, 0, len(sums)) // partitions with vertices left, keyed by head
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heap) && head(heap[c]) < head(heap[m]) {
					m = c
				}
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for p := range sums {
		if len(sums[p].Boundary) > 0 {
			heap = append(heap, int32(p))
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		p := heap[0]
		v := head(p)
		if len(verts) > 0 && verts[len(verts)-1] == v {
			return nil, nil, fmt.Errorf("dsr: boundary vertex %d claimed by two shards — the fleet was not built from one partitioning", v)
		}
		verts = append(verts, v)
		owner = append(owner, p)
		if pos[p]++; pos[p] == len(sums[p].Boundary) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return verts, owner, nil
}

// vertIndex finds a boundary vertex's dense id — its position in the
// sorted verts — through buckets of 2^shift consecutive vertex IDs:
// start[b] is the first position whose ID is at least b<<shift, so a
// lookup binary-searches only its own bucket. There are about as many
// buckets as vertices, so on spread-out IDs a bucket holds a vertex or
// two and a lookup is O(1); on clustered ones it is never worse than a
// binary search of the whole list. The index is O(boundary), like
// everything else the coordinator holds, and lives only for the stitch.
type vertIndex struct {
	verts []uint32
	start []int32 // per bucket, plus an end sentinel
	shift uint
}

func newVertIndex(verts []uint32) vertIndex {
	ix := vertIndex{verts: verts}
	if len(verts) == 0 {
		return ix
	}
	// The smallest shift that leaves no more buckets than vertices:
	// top < 2^shift * len(verts).
	top := verts[len(verts)-1]
	ix.shift = uint(bits.Len64(uint64(top) / uint64(len(verts))))
	nbuckets := int(top>>ix.shift) + 1
	ix.start = make([]int32, nbuckets+1)
	b := 0
	for i, v := range verts {
		for ; b <= int(v>>ix.shift); b++ {
			ix.start[b] = int32(i)
		}
	}
	ix.start[nbuckets] = int32(len(verts))
	return ix
}

// find returns v's dense id and whether v is a boundary vertex at all.
func (ix *vertIndex) find(v uint32) (int32, bool) {
	b := int(v >> ix.shift)
	if b >= len(ix.start)-1 {
		return -1, false
	}
	lo, hi := ix.start[b], ix.start[b+1]
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if ix.verts[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < ix.start[b+1] && ix.verts[lo] == v
}

// condense reduces the vertex-level graph g to what the coordinator
// retains of it: the component DAG in both directions, and each
// vertex's component filed under the name its shard will call it by —
// partition and ordinal. Dense ids run through every partition's
// boundary list in increasing order, so one pass over them through
// owner hands each partition its components in ordinal order. The
// dense-id component map and owner are dropped with g.
func condense(owner []int32, sums []wire.Summary, g *csr) *boundaryGraph {
	cond := scc.Condense(g, nil)
	d := cond.Data()
	poff, pred := cond.Reverse()
	bg := &boundaryGraph{nverts: len(owner), ncomps: len(d.FOff) - 1, compOf: make([][]int32, len(sums)),
		off: d.FOff, succ: d.FEdges, poff: poff, pred: pred}
	for p := range sums {
		bg.compOf[p] = make([]int32, 0, len(sums[p].Boundary))
	}
	for dense, p := range owner {
		bg.compOf[p] = append(bg.compOf[p], d.Comp[dense])
	}
	return bg
}

// finishChunk is how many undecided queries one sweep answers: one bit
// of a machine word each.
const finishChunk = 64

// cursor is one direction of a sweep: the forward one walks the
// component DAG down from the seeds, the backward one its transpose up
// from the goals. Words of active outside [lo, hi] are zero; the end of
// that range a cursor pops from is its position in the sweep.
type cursor struct {
	down   bool     // forward: edges point at smaller numbers, so it pops from the top
	mask   []uint64 // per component: queries whose seeds reach it (forward), whose goals it reaches (backward)
	active []uint64 // bitmap of components with a non-zero mask not popped yet
	lo, hi int      // words of active that may hold set bits
	pops   int      // components popped this sweep
	edges  int      // DAG edges pushed along this sweep
}

// finisher is the per-round state of the boundary finish — the
// coordinator's last step, deciding every query the local searches left
// open: does any component a query's forward searches reached (its
// seeds) lead to a component from which its backward searches were
// reached (its goals)?
//
// It answers in one of two ways. Once labels are installed (install),
// each query is one lookup in the 2-hop cover: the hubs of its seeds'
// out-labels are stamped, and a goal whose in-label holds a stamped hub
// is reached. Until then — while the engine builds the labels, or for
// good if the build gave up — up to finishChunk queries share one sweep
// of the component DAG, each owning one bit of every mask word. Both
// cursors' mask and active are all-zero between sweeps.
type finisher struct {
	fwd, bwd cursor
	chunk    []int32 // batch indexes of the queries in the current sweep; bit b is chunk[b]

	lab   *hubLabels // the installed cover; nil while the sweep answers
	stamp []uint32   // per hub rank: the last query whose seeds reach the hub
	gen   uint32     // the current query's stamp
	read  int        // label entries read, over the finisher's life
}

func newFinisher(ncomp int) *finisher {
	words := (ncomp + 63) / 64
	return &finisher{
		fwd:   cursor{down: true, mask: make([]uint64, ncomp), active: make([]uint64, words)},
		bwd:   cursor{mask: make([]uint64, ncomp), active: make([]uint64, words)},
		chunk: make([]int32, 0, finishChunk),
	}
}

// install hands every later query to l and releases the sweep's masks
// and bitmaps.
func (f *finisher) install(l *hubLabels) {
	f.lab, f.stamp, f.gen = l, make([]uint32, len(l.outOff)-1), 0
	f.fwd.mask, f.fwd.active, f.bwd.mask, f.bwd.active = nil, nil, nil, nil
}

// residentBytes is the footprint of the finish's state sized to the
// graph: the sweep's scratch, or the labels and their stamps.
func (f *finisher) residentBytes() int {
	b := 8*(len(f.fwd.mask)+len(f.fwd.active)+len(f.bwd.mask)+len(f.bwd.active)) + 4*len(f.stamp)
	if f.lab != nil {
		b += f.lab.residentBytes()
	}
	return b
}

// run settles every query of the round the local searches left open:
// a local hit is an answer, and the rest — those with both seeds and
// goals — are looked up in the labels one by one or, without labels, go
// through the sweep finishChunk at a time. It returns how many queries
// were swept or looked up, and how many components the sweeps popped.
func (f *finisher) run(bg *boundaryGraph, qs []qstate) (swept, popped int) {
	for i := range qs {
		st := &qs[i]
		switch {
		case st.done:
		case st.hit:
			st.ans = true
		case len(st.seeds) > 0 && len(st.goals) > 0:
			swept++
			if f.lab != nil {
				st.ans = f.reach(st.seeds, st.goals)
				continue
			}
			if len(f.chunk) == finishChunk {
				popped += f.sweep(bg, qs)
			}
			f.chunk = append(f.chunk, int32(i))
		}
	}
	if len(f.chunk) > 0 {
		popped += f.sweep(bg, qs)
	}
	return swept, popped
}

// reach answers one query from the labels: some seed reaches some goal
// exactly when a hub in a seed's out-label is in a goal's in-label. A
// fresh stamp per query leaves the previous query's hubs behind; the
// stamps are cleared only when the counter wraps.
func (f *finisher) reach(seeds, goals []int32) bool {
	if f.gen++; f.gen == 0 {
		clear(f.stamp)
		f.gen = 1
	}
	l := f.lab
	for _, s := range seeds {
		row := l.outHub[l.outOff[s]:l.outOff[s+1]]
		f.read += len(row)
		for _, h := range row {
			f.stamp[h] = f.gen
		}
	}
	for _, g := range goals {
		row := l.inHub[l.inOff[g]:l.inOff[g+1]]
		for i, h := range row {
			if f.stamp[h] == f.gen {
				f.read += i + 1
				return true
			}
		}
		f.read += len(row)
	}
	return false
}

// sweep answers the chunk's queries — qs[i].ans is set for every one
// whose seeds reach a goal — empties the chunk and returns how many
// components it popped.
//
// Two cursors share the walk. The forward one pops components in
// decreasing order, so each is popped after every predecessor has
// pushed into its mask, and pushes the mask on to the successors; the
// backward one does the same in increasing order over the transpose.
// Each step advances, by one bitmap word, the cursor that has done less
// work so far, and the sweep ends when the cursors cross or no query is
// pending: a word is popped by at most one cursor, and the seam falls
// where the two sides' work balances, wherever the round's seeds and
// goals put that.
//
// Every pop tests the popped mask against the other direction's mask on
// the same component and retires the hits. That finds every answer:
// component numbers strictly decrease along a seed→goal path, so either
// the path has an edge u→v whose ends were popped by different cursors
// — forward pushed the query onto v's forward mask when it popped u,
// backward onto u's backward mask when it popped v, and whichever pop
// came later saw the other's push — or one cursor walked the whole
// path, onto a component carrying the other direction's seed bit. What
// the loop leaves behind — seeds and goals beyond the seam, pushes that
// crossed it, everything once nothing is pending — is never popped and
// is zeroed by wipe.
func (f *finisher) sweep(bg *boundaryGraph, qs []qstate) int {
	fwd, bwd := &f.fwd, &f.bwd
	fwd.reset()
	bwd.reset()
	for b, qi := range f.chunk {
		st := &qs[qi]
		bit := uint64(1) << b
		for _, c := range st.seeds {
			fwd.seed(c, bit)
		}
		for _, c := range st.goals {
			bwd.seed(c, bit)
		}
	}
	pending := ^uint64(0) >> (64 - len(f.chunk))
	for fwd.hi >= bwd.lo && pending != 0 {
		var hit uint64
		if fwd.pops+fwd.edges <= bwd.pops+bwd.edges {
			hit = fwd.pop(fwd.hi, bwd, bg.off, bg.succ, pending)
			fwd.hi--
		} else {
			hit = bwd.pop(bwd.lo, fwd, bg.poff, bg.pred, pending)
			bwd.lo++
		}
		pending &^= hit
		for ; hit != 0; hit &= hit - 1 {
			qs[f.chunk[bits.TrailingZeros64(hit)]].ans = true
		}
	}
	fwd.wipe()
	bwd.wipe()
	f.chunk = f.chunk[:0]
	return fwd.pops + bwd.pops
}

// reset readies the cursor for a sweep: nothing active, no work done.
func (cu *cursor) reset() {
	cu.lo, cu.hi, cu.pops, cu.edges = len(cu.active), -1, 0, 0
}

// seed adds the queries in bit to component c and activates it.
func (cu *cursor) seed(c int32, bit uint64) {
	cu.mask[c] |= bit
	w := int(c >> 6)
	cu.active[w] |= 1 << (c & 63)
	cu.lo, cu.hi = min(cu.lo, w), max(cu.hi, w)
}

// pop expands every active component of bitmap word w along the
// cursor's edges (off, adj) — in the direction they point, so a push
// inside the word lands ahead of the scan and is popped by the same
// call — and returns the pending queries that met the other cursor's
// mask on a popped component.
func (cu *cursor) pop(w int, other *cursor, off, adj []int32, pending uint64) (hits uint64) {
	for cu.active[w] != 0 {
		i := bits.TrailingZeros64(cu.active[w])
		if cu.down {
			i = bits.Len64(cu.active[w]) - 1
		}
		cu.active[w] &^= 1 << i
		c := w<<6 + i
		m := cu.mask[c] & pending
		cu.mask[c] = 0
		cu.pops++
		if hit := m & other.mask[c]; hit != 0 {
			hits |= hit
			pending &^= hit
			m &^= hit
		}
		if m == 0 {
			continue
		}
		row := adj[off[c]:off[c+1]]
		cu.edges += len(row)
		for _, d := range row {
			cu.seed(d, m)
		}
	}
	return hits
}

// wipe zeroes the masks of the components still active and the bitmap.
func (cu *cursor) wipe() {
	for w := cu.lo; w <= cu.hi; w++ {
		for a := cu.active[w]; a != 0; a &= a - 1 {
			cu.mask[w<<6+bits.TrailingZeros64(a)] = 0
		}
		cu.active[w] = 0
	}
}
