package dsr

import (
	"math"
	"slices"
	"sync/atomic"
)

// hubLabels is a 2-hop reachability cover of the stitched component DAG,
// built by pruned landmark labelling (Yano et al., CIKM 2013): every
// component is a hub, hubs are ranked, and component c carries an
// out-label — ranks of hubs c reaches — and an in-label — ranks of hubs
// that reach c — such that a ⇝ b exactly when the two share a hub:
// out(a) ∩ in(b) ≠ ∅. Every component is a hub in both of its own
// labels, so the test is reflexive. A set query is one such test over
// all its seeds and goals at once, which is how the finish answers once
// labels are installed (finisher.reach).
//
// Both labels are flat CSRs over components; each row lists ranks in
// increasing order.
type hubLabels struct {
	outOff []int32 // per component: offsets into outHub, ncomp+1
	outHub []int32 // ranks of the hubs a component reaches
	inOff  []int32 // per component: offsets into inHub, ncomp+1
	inHub  []int32 // ranks of the hubs that reach a component
}

// entries is the size of the cover, both directions.
func (l *hubLabels) entries() int { return len(l.outHub) + len(l.inHub) }

// residentBytes is the footprint of the two CSRs.
func (l *hubLabels) residentBytes() int {
	return 4 * (len(l.outOff) + len(l.outHub) + len(l.inOff) + len(l.inHub))
}

// labelCap bounds the cover an engine will build, in entries per
// component over both directions. The benchmark graph's DAG needs
// about 10 under hash partitioning and 3 to 7 under locality; a DAG
// that needs more than a few tens is one the cover does not suit (a
// dense bipartite core, a long chain), and the build gives up and
// leaves the sweep in charge.
const labelCap = 32

// labelRow is one component's label while the build grows it, beside
// what a pass reads of the component before the label: its rank, and
// the last pass that reached it. All of it shares 32 bytes, so a pass
// mostly meets a component in one cache line.
type labelRow struct {
	rank int32 // the component's own rank as a hub
	seen int32 // the gen of the last pass that queued or skipped it
	n    int32
	slot [labelSlots]int32
}

// labelSlots is how many entries of a label the build keeps inline
// before it spills into a per-component slice.
const labelSlots = 5

// labelRows is one direction's labels while the build grows them.
type labelRows struct {
	row  []labelRow
	more [][]int32 // per component: the entries past the inline slots
}

func newLabelRows(nc int) labelRows {
	return labelRows{row: make([]labelRow, nc), more: make([][]int32, nc)}
}

// add appends hub rank r to component c's label.
func (lr *labelRows) add(c, r int32) {
	if row := &lr.row[c]; row.n < labelSlots {
		row.slot[row.n] = r
		row.n++
	} else {
		lr.more[c] = append(lr.more[c], r)
		row.n++
	}
}

// get returns c's label as its inline part and its spill.
func (lr *labelRows) get(c int32) (inline, more []int32) {
	row := &lr.row[c]
	if row.n <= labelSlots {
		return row.slot[:row.n], nil
	}
	return row.slot[:], lr.more[c]
}

// stamp sets mark[r] = gen for every rank r in c's label.
func (lr *labelRows) stamp(c int32, mark []int32, gen int32) {
	inline, more := lr.get(c)
	for _, r := range inline {
		mark[r] = gen
	}
	for _, r := range more {
		mark[r] = gen
	}
}

// meets reports whether some rank in c's label is stamped gen.
func (lr *labelRows) meets(c int32, mark []int32, gen int32) bool {
	inline, more := lr.get(c)
	for _, r := range inline {
		if mark[r] == gen {
			return true
		}
	}
	for _, r := range more {
		if mark[r] == gen {
			return true
		}
	}
	return false
}

// flatten lays the rows out as a CSR.
func (lr *labelRows) flatten(total int) (off, hub []int32) {
	off = make([]int32, len(lr.row)+1)
	hub = make([]int32, 0, total)
	for c := range lr.row {
		inline, more := lr.get(int32(c))
		hub = append(append(hub, inline...), more...)
		off[c+1] = int32(len(hub))
	}
	return off, hub
}

// buildLabels builds the cover of bg's component DAG. Hubs are taken in
// decreasing (out-degree+1)·(in-degree+1) order, ties to the smaller
// component. Hub h of rank r runs one BFS down the DAG from h and one up
// its transpose; each stops at a component that reaches, or is reached
// from, h through a hub ranked before r already — an earlier hub itself
// included — and writes r into the label of every other component it
// visits, h's own two labels first. The build returns nil once its
// entries pass limit (limit < 0: no bound), or if stop is set between
// two hubs; the int is the entries written either way.
func buildLabels(bg *boundaryGraph, limit int, stop *atomic.Bool) (*hubLabels, int) {
	nc := bg.ncomp()
	// One sort key per component: the complement of its weight above
	// (saturated at 32 bits, past 65,535 edges both ways), its id below.
	key := make([]uint64, nc)
	for c := range key {
		w := uint64(bg.off[c+1]-bg.off[c]+1) * uint64(bg.poff[c+1]-bg.poff[c]+1)
		key[c] = uint64(^uint32(min(w, math.MaxUint32)))<<32 | uint64(c)
	}
	slices.Sort(key)
	out, in := newLabelRows(nc), newLabelRows(nc)
	order := make([]int32, nc) // rank -> component
	for r, k := range key {
		order[r] = int32(uint32(k))
		out.row[order[r]].rank, in.row[order[r]].rank = int32(r), int32(r)
	}
	mark := make([]int32, nc) // per rank: stamped with the running pass's gen
	var queue []int32
	entries := 0
	// pass runs one BFS from h of rank r along (off, adj): it stamps
	// h's label in have, and every component it keeps gains r in grow.
	// An earlier hub is never queued.
	pass := func(h, r, gen int32, off, adj []int32, have, grow *labelRows) {
		have.stamp(h, mark, gen)
		queue = append(queue[:0], h)
		for i := 0; i < len(queue); i++ {
			c := queue[i]
			if grow.meets(c, mark, gen) {
				continue
			}
			grow.add(c, r)
			entries++
			for _, d := range adj[off[c]:off[c+1]] {
				if row := &grow.row[d]; row.seen != gen {
					row.seen = gen
					if row.rank > r {
						queue = append(queue, d)
					}
				}
			}
		}
	}
	for r, h := range order {
		if stop != nil && stop.Load() {
			return nil, entries
		}
		gen := 2*int32(r) + 1
		pass(h, int32(r), gen, bg.off, bg.succ, &out, &in)
		pass(h, int32(r), gen+1, bg.poff, bg.pred, &in, &out)
		if limit >= 0 && entries > limit {
			return nil, entries
		}
	}
	l := &hubLabels{}
	nOut := 0
	for _, row := range out.row {
		nOut += int(row.n)
	}
	l.outOff, l.outHub = out.flatten(nOut)
	l.inOff, l.inHub = in.flatten(entries - nOut)
	return l, entries
}
