package scc

import "fmt"

// CondensationData is the raw array content of a Condensation, exposed
// so a persisted snapshot can round-trip the SCC decomposition
// without re-running Tarjan. Data returns live views (no copies);
// CondensationFromData validates and reassembles. The arrays are plain
// fixed-width integers on purpose: they serialize as flat sections of
// an mmap-friendly file. The reverse DAG is not part of it:
// CondensationFromData derives it from the forward one.
type CondensationData struct {
	Comp   []int32 // vertex -> component
	FOff   []int32 // forward CSR offsets, len N+1
	FEdges []int32
}

// Data returns views of the condensation's raw arrays. Callers must
// treat them as read-only: they alias the live condensation.
func (c *Condensation) Data() CondensationData {
	return CondensationData{
		Comp:   c.Comp,
		FOff:   c.foff,
		FEdges: c.fedges,
	}
}

// CondensationFromData validates d and reassembles a Condensation,
// deriving the reverse DAG with the transpose Condense runs. The slices
// are retained, not copied. Validation covers everything the query path
// relies on: a well-formed forward CSR (offsets from 0, never
// decreasing, ending at the edge count), every vertex mapped to a
// component in [0, N), and — the property every increasing-ID sweep
// depends on — component IDs in reverse topological order (every
// forward edge points at a smaller ID, which also keeps it in range).
func CondensationFromData(d CondensationData) (*Condensation, error) {
	if len(d.FOff) == 0 || d.FOff[0] != 0 {
		return nil, fmt.Errorf("scc: offsets must start at 0")
	}
	nc := len(d.FOff) - 1
	for i := 1; i <= nc; i++ {
		if d.FOff[i] < d.FOff[i-1] {
			return nil, fmt.Errorf("scc: offsets decrease at %d", i)
		}
	}
	if int(d.FOff[nc]) != len(d.FEdges) {
		return nil, fmt.Errorf("scc: offsets end at %d, want %d", d.FOff[nc], len(d.FEdges))
	}
	for v, cc := range d.Comp {
		if cc < 0 || int(cc) >= nc {
			return nil, fmt.Errorf("scc: vertex %d in component %d, want [0,%d)", v, cc, nc)
		}
	}
	for cc := int32(0); cc < int32(nc); cc++ {
		for _, dd := range d.FEdges[d.FOff[cc]:d.FOff[cc+1]] {
			if dd < 0 || dd >= cc {
				return nil, fmt.Errorf("scc: forward edge %d->%d, want a target in [0,%d) (reverse topological order)", cc, dd, cc)
			}
		}
	}
	c := &Condensation{Comp: d.Comp, N: nc, foff: d.FOff, fedges: d.FEdges}
	c.roff, c.redges = transpose(c.foff, c.fedges)
	return c, nil
}
