package dsr

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dsr/internal/scc"
	"dsr/internal/wire"
)

// boundaryGraph is the compressed global view stitched from the shards'
// boundary summaries: vertices are the boundary vertices of the
// partitioned graph, edges are the per-partition entry->exit summaries
// plus the raw cross-partition edges. It is retained in condensed form
// only — the strongly connected components of that graph and the DAG
// between them — because the finish asks nothing but "which components
// does this set of components reach". Components are numbered in
// reverse topological order (scc.Decompose): every DAG edge points at a
// smaller number, so one pass in decreasing order sees each component
// after all its predecessors.
//
// No vertex ID survives the stitch. A shard names a boundary vertex by
// its ordinal in the boundary list of the shard's own summary, so all
// the coordinator keeps per vertex is compOf: per partition, ordinal ->
// component. Absorbing a reply is an index into it.
type boundaryGraph struct {
	nverts int       // boundary vertices, over all partitions
	compOf [][]int32 // per partition: ordinal in its boundary list -> component
	off    []int32   // component-DAG CSR offsets into succ, ncomp+1
	succ   []int32   // successor components, deduped per row
}

// ncomp is the number of components.
func (bg *boundaryGraph) ncomp() int { return len(bg.off) - 1 }

// residentBytes is the memory footprint of the stitched boundary graph
// — the only per-graph state the coordinator retains besides the
// finish scratch sized to it.
func (bg *boundaryGraph) residentBytes() int {
	return 4 * (bg.nverts + len(bg.off) + len(bg.succ))
}

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
	verts, g, err := stitchRows(n, sums)
	if err != nil {
		return nil, err
	}
	return condense(verts, sums, g), nil
}

// stitchRows validates the summaries and lays their edges out as the
// vertex-level boundary graph over dense ids (indices into the returned
// sorted vertex list).
//
// The heavy phases are parallel over shards, which is safe because each
// adjacency row is owned by exactly one shard: every stitched edge is
// keyed by its source vertex, and the validation pass proves each
// shard's edge sources lie in that shard's own boundary set before any
// row is touched. The boundary sets themselves cannot overlap — a
// duplicate across shards is rejected as a fleet inconsistency — and
// each is strictly increasing, which is what gives its ordinals their
// meaning.
func stitchRows(n int, sums []wire.Summary) ([]uint32, *csr, error) {
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
	verts := make([]uint32, 0, total)
	for p := range sums {
		verts = append(verts, sums[p].Boundary...)
	}
	slices.Sort(verts)
	for i := 1; i < len(verts); i++ {
		if verts[i] == verts[i-1] {
			return nil, nil, fmt.Errorf("dsr: boundary vertex %d claimed by two shards — the fleet was not built from one partitioning", verts[i])
		}
	}
	if len(verts) > 0 && int64(verts[len(verts)-1]) >= int64(n) {
		return nil, nil, fmt.Errorf("dsr: boundary vertex %d out of range (graph has %d vertices)", verts[len(verts)-1], n)
	}
	nb := len(verts)

	// Validation before any stitching: each shard's edge sources must be
	// its own boundary vertices (row ownership — the parallel count and
	// fill below stay race-free even against a buggy or hostile shard)
	// and each target must resolve to some shard's boundary vertex. This
	// is the only pass that searches: it leaves every edge behind as a
	// (source, target) pair of dense ids in ends[p] for the passes below.
	// Summaries list an entry's edges consecutively, so a repeated source
	// reuses the previous resolution.
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
					if _, ok := slices.BinarySearch(s.Boundary, pr[0]); !ok {
						return fmt.Errorf("dsr: shard %d %s edge %d->%d: source is not one of its boundary vertices", p, what, pr[0], pr[1])
					}
					src = pr[0]
					i, _ := slices.BinarySearch(verts, src)
					d = int32(i)
				}
				t, ok := slices.BinarySearch(verts, pr[1])
				if !ok {
					return fmt.Errorf("dsr: shard %d %s edge %d->%d: target is not a boundary vertex of any shard", p, what, pr[0], pr[1])
				}
				pairs = append(pairs, d, int32(t))
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
	g := &csr{off: make([]int64, nb+1)}
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
	return verts, g, nil
}

// condense reduces the vertex-level graph g over verts to what the
// coordinator retains of it: the forward component DAG, and each
// vertex's component filed under the name its shard will call it by —
// partition and ordinal. Every sums[p].Boundary is a sorted subset of
// the sorted verts, so one merge per partition lines ordinals up with
// dense ids. The rest of the condensation (reverse edges, member lists)
// and the vertex IDs themselves are dropped with g.
func condense(verts []uint32, sums []wire.Summary, g *csr) *boundaryGraph {
	d := scc.Condense(g, nil).Data()
	bg := &boundaryGraph{nverts: len(verts), compOf: make([][]int32, len(sums)), off: d.FOff, succ: d.FEdges}
	for p := range sums {
		tab := make([]int32, len(sums[p].Boundary))
		dense := 0
		for ord, v := range sums[p].Boundary {
			for verts[dense] != v {
				dense++
			}
			tab[ord] = d.Comp[dense]
		}
		bg.compOf[p] = tab
	}
	return bg
}

// finishChunk is how many undecided queries one sweep answers: one bit
// of a machine word each.
const finishChunk = 64

// goalTable maps a component to the queries of the current sweep with a
// goal in it. Goals are few next to the components a sweep walks, so
// the table is open-addressed and sized to them, not to the graph.
type goalTable struct {
	comp []int32 // -1 marks an empty slot
	bits []uint64
}

// reset empties the table and sizes it for n distinct components at a
// load factor of at most 1/2.
func (t *goalTable) reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if size > cap(t.comp) {
		t.comp = make([]int32, size)
		t.bits = make([]uint64, size)
	}
	t.comp, t.bits = t.comp[:size], t.bits[:size]
	for i := range t.comp {
		t.comp[i] = -1
	}
	clear(t.bits)
}

// slot returns the slot holding c, or the empty one where c belongs.
func (t *goalTable) slot(c int32) int {
	m := uint32(len(t.comp) - 1)
	i := uint32(c) * 2654435761 & m
	for t.comp[i] != c && t.comp[i] != -1 {
		i = (i + 1) & m
	}
	return int(i)
}

// add records that the queries in bits have a goal in component c.
func (t *goalTable) add(c int32, bits uint64) {
	i := t.slot(c)
	t.comp[i] = c
	t.bits[i] |= bits
}

// at returns the queries with a goal in component c, 0 if none.
func (t *goalTable) at(c int32) uint64 { return t.bits[t.slot(c)] }

// finisher is the per-round state of the boundary finish — the
// coordinator's last step, deciding every query the local searches left
// open: does any component a query's forward searches reached (its
// seeds) lead to a component from which its backward searches were
// reached (its goals)? Up to finishChunk queries share one sweep of the
// component DAG, each owning one bit of every mask word. mask, active
// and goalAt are all-zero between sweeps.
type finisher struct {
	mask   []uint64  // per component: queries known to reach it
	active []uint64  // bitmap of components with a non-zero mask still to expand
	goalAt []uint64  // bitmap of components holding a goal: spares most pops the table probe
	goals  goalTable // component -> queries with a goal in it
	chunk  []int32   // batch indexes of the queries in the current sweep; bit b is chunk[b]
}

func newFinisher(ncomp int) *finisher {
	return &finisher{
		mask:   make([]uint64, ncomp),
		active: make([]uint64, (ncomp+63)/64),
		goalAt: make([]uint64, (ncomp+63)/64),
		chunk:  make([]int32, 0, finishChunk),
	}
}

// residentBytes is the footprint of the scratch sized to the graph.
func (f *finisher) residentBytes() int {
	return 8 * (len(f.mask) + len(f.active) + len(f.goalAt))
}

// run settles every query of the round the local searches left open:
// a local hit is an answer, and the rest — those with both seeds and
// goals — go through the sweep, finishChunk at a time. It returns how
// many were swept.
func (f *finisher) run(bg *boundaryGraph, qs []qstate) int {
	swept := 0
	for i := range qs {
		st := &qs[i]
		switch {
		case st.done:
		case st.hit:
			st.ans = true
		case len(st.seeds) > 0 && len(st.goals) > 0:
			if len(f.chunk) == finishChunk {
				f.sweep(bg, qs)
			}
			f.chunk = append(f.chunk, int32(i))
			swept++
		}
	}
	if len(f.chunk) > 0 {
		f.sweep(bg, qs)
	}
	return swept
}

// sweep answers the chunk's queries — qs[i].ans is set for every one
// whose seeds reach a goal — and empties the chunk.
//
// Components are expanded in decreasing (topological) order off the
// active bitmap, so each is popped at most once, after every
// predecessor has pushed into its mask: the mask is final when read. A
// popped component retires the queries whose goal it holds and pushes
// the rest to its successors. Retired bits are masked out at every
// later pop, so once nothing is pending — all answered, or the sweep is
// past the last goal — the remaining pops only zero the arrays behind
// them. A sweep therefore costs the components and DAG edges its
// queries touch, in word operations, plus a scan of the bitmap words
// between the first seed and the last touched component.
func (f *finisher) sweep(bg *boundaryGraph, qs []qstate) {
	ngoals := 0
	for _, qi := range f.chunk {
		ngoals += len(qs[qi].goals)
	}
	f.goals.reset(ngoals)
	hi, lo := -1, len(f.active) // bitmap words that may hold set bits
	last := int32(len(f.mask))  // smallest goal component: nothing below it matters
	for b, qi := range f.chunk {
		st := &qs[qi]
		bit := uint64(1) << b
		for _, c := range st.goals {
			f.goalAt[c>>6] |= 1 << (c & 63)
			f.goals.add(c, bit)
			last = min(last, c)
		}
		for _, c := range st.seeds {
			f.mask[c] |= bit
			w := int(c >> 6)
			f.active[w] |= 1 << (c & 63)
			hi, lo = max(hi, w), min(lo, w)
		}
	}
	pending := ^uint64(0) >> (64 - len(f.chunk))
	for w := hi; w >= lo; w-- {
		for f.active[w] != 0 {
			top := bits.Len64(f.active[w]) - 1
			at := uint64(1) << top
			f.active[w] &^= at
			c := int32(w<<6 + top)
			if c < last {
				pending = 0
			}
			m := f.mask[c] & pending
			f.mask[c] = 0
			if m != 0 && f.goalAt[w]&at != 0 {
				if hit := m & f.goals.at(c); hit != 0 {
					pending &^= hit
					m &^= hit
					for ; hit != 0; hit &= hit - 1 {
						qs[f.chunk[bits.TrailingZeros64(hit)]].ans = true
					}
				}
			}
			if m == 0 {
				continue
			}
			for _, d := range bg.succ[bg.off[c]:bg.off[c+1]] {
				f.mask[d] |= m
				dw := int(d >> 6)
				f.active[dw] |= 1 << (d & 63)
				lo = min(lo, dw)
			}
		}
	}
	for _, qi := range f.chunk {
		for _, c := range qs[qi].goals {
			f.goalAt[c>>6] = 0
		}
	}
	f.chunk = f.chunk[:0]
}
