package scc

import "fmt"

// CondensationData is the raw array content of a Condensation, exposed
// so a persisted snapshot can round-trip the SCC decomposition
// without re-running Tarjan. Data returns live views (no copies);
// CondensationFromData validates and reassembles. The arrays are plain
// fixed-width integers on purpose: they serialize as flat sections of
// an mmap-friendly file.
type CondensationData struct {
	Comp    []int32 // vertex -> component
	FOff    []int32 // forward CSR offsets, len N+1
	FEdges  []int32
	ROff    []int32 // reverse CSR offsets, len N+1
	REdges  []int32
	MOff    []int32 // member-list offsets, len N+1
	Members []int32
}

// Data returns views of the condensation's raw arrays. Callers must
// treat them as read-only: they alias the live condensation.
func (c *Condensation) Data() CondensationData {
	return CondensationData{
		Comp:    c.Comp,
		FOff:    c.foff,
		FEdges:  c.fedges,
		ROff:    c.roff,
		REdges:  c.redges,
		MOff:    c.moff,
		Members: c.members,
	}
}

// checkCSR validates one CSR half: offsets start at 0, never decrease,
// and end exactly at the edge-array length, with every edge target in
// [0, limit).
func checkCSR(name string, off, edges []int32, limit int32) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("scc: %s offsets must start at 0", name)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("scc: %s offsets decrease at %d", name, i)
		}
	}
	if int(off[len(off)-1]) != len(edges) {
		return fmt.Errorf("scc: %s offsets end at %d, want %d", name, off[len(off)-1], len(edges))
	}
	for i, e := range edges {
		if e < 0 || e >= limit {
			return fmt.Errorf("scc: %s edge %d targets %d, want [0,%d)", name, i, e, limit)
		}
	}
	return nil
}

// CondensationFromData validates d and reassembles a Condensation. The
// slices are retained, not copied. Validation covers everything the
// query path relies on: CSR well-formedness, member
// lists that partition the vertex set consistently with Comp, forward
// and reverse adjacency being transposes of each other, and — the
// property every increasing-ID sweep depends on — component IDs in
// reverse topological order (every forward edge points at a smaller
// ID).
func CondensationFromData(d CondensationData) (*Condensation, error) {
	if len(d.MOff) == 0 || len(d.FOff) != len(d.MOff) || len(d.ROff) != len(d.MOff) {
		return nil, fmt.Errorf("scc: offset arrays disagree on component count (%d/%d/%d)",
			len(d.FOff), len(d.ROff), len(d.MOff))
	}
	nc := len(d.MOff) - 1
	n := len(d.Comp)
	if err := checkCSR("forward", d.FOff, d.FEdges, int32(nc)); err != nil {
		return nil, err
	}
	if err := checkCSR("reverse", d.ROff, d.REdges, int32(nc)); err != nil {
		return nil, err
	}
	if err := checkCSR("member", d.MOff, d.Members, int32(n)); err != nil {
		return nil, err
	}
	if len(d.Members) != n {
		return nil, fmt.Errorf("scc: %d members for %d vertices", len(d.Members), n)
	}
	if len(d.FEdges) != len(d.REdges) {
		return nil, fmt.Errorf("scc: %d forward edges vs %d reverse", len(d.FEdges), len(d.REdges))
	}
	// Members must list every vertex exactly once, in its Comp component.
	seen := make([]bool, n)
	for cc := 0; cc < nc; cc++ {
		for _, v := range d.Members[d.MOff[cc]:d.MOff[cc+1]] {
			if seen[v] {
				return nil, fmt.Errorf("scc: vertex %d listed in two components", v)
			}
			seen[v] = true
			if int(d.Comp[v]) != cc {
				return nil, fmt.Errorf("scc: vertex %d in member list of %d but Comp says %d", v, cc, d.Comp[v])
			}
		}
	}
	// Reverse topological numbering: forward edges strictly decrease,
	// reverse edges strictly increase.
	indeg := make([]int32, nc)
	for cc := 0; cc < nc; cc++ {
		for _, dd := range d.FEdges[d.FOff[cc]:d.FOff[cc+1]] {
			if dd >= int32(cc) {
				return nil, fmt.Errorf("scc: forward edge %d->%d breaks reverse topological order", cc, dd)
			}
			indeg[dd]++
		}
	}
	outdeg := make([]int32, nc)
	for cc := 0; cc < nc; cc++ {
		for _, s := range d.REdges[d.ROff[cc]:d.ROff[cc+1]] {
			if s <= int32(cc) {
				return nil, fmt.Errorf("scc: reverse edge %d->%d breaks reverse topological order", cc, s)
			}
			outdeg[s]++
		}
	}
	// Transpose consistency: reverse in/out degrees must mirror forward.
	for cc := 0; cc < nc; cc++ {
		if got := d.ROff[cc+1] - d.ROff[cc]; got != indeg[cc] {
			return nil, fmt.Errorf("scc: component %d has %d reverse edges but forward in-degree %d", cc, got, indeg[cc])
		}
		if got := d.FOff[cc+1] - d.FOff[cc]; got != outdeg[cc] {
			return nil, fmt.Errorf("scc: component %d has %d forward edges but reverse out-degree %d", cc, got, outdeg[cc])
		}
	}
	return &Condensation{
		Comp: d.Comp, N: nc,
		foff: d.FOff, fedges: d.FEdges,
		roff: d.ROff, redges: d.REdges,
		moff: d.MOff, members: d.Members,
	}, nil
}
