package scc

import "slices"

// Condensation is the SCC DAG of a graph: one node per component and a
// deduped edge for every pair of components joined by at least one
// original edge, in both forward and reverse CSR form, plus the
// vertex→component map. Component IDs are in reverse topological order
// (see Decompose), which downstream consumers rely on: a single
// increasing-ID sweep visits every component after all of its
// successors.
type Condensation struct {
	Comp []int32 // vertex -> component
	N    int     // component count; IDs are 0..N-1

	foff   []int32
	fedges []int32
	roff   []int32
	redges []int32
}

// Out returns the successor components of c in the DAG.
func (c *Condensation) Out(comp int32) []int32 {
	return c.fedges[c.foff[comp]:c.foff[comp+1]]
}

// In returns the predecessor components of c in the DAG.
func (c *Condensation) In(comp int32) []int32 {
	return c.redges[c.roff[comp]:c.roff[comp+1]]
}

// NumEdges returns the number of deduped DAG edges.
func (c *Condensation) NumEdges() int { return len(c.fedges) }

// Condense decomposes g into SCCs and builds its condensation. ws may
// be nil; when non-nil its transient arrays are reused, and only the
// returned Condensation is freshly allocated.
func Condense(g Adjacency, ws *Workspace) *Condensation {
	if ws == nil {
		ws = &Workspace{}
	}
	comp, nc := Decompose(g, ws)
	n := g.NumVertices()
	c := &Condensation{Comp: comp, N: nc}

	// Member lists, scratch for the edge scan below: counting sort of
	// vertices by component.
	moff := ws.counters(nc + 1)
	for _, cc := range comp {
		moff[cc+1]++
	}
	for i := 1; i <= nc; i++ {
		moff[i] += moff[i-1]
	}
	if cap(ws.members) < n {
		ws.members = make([]int32, n)
	}
	members := ws.members[:n]
	for v := 0; v < n; v++ {
		cc := comp[v]
		members[moff[cc]] = int32(v)
		moff[cc]++
	}

	// Forward DAG rows, deduped per source component and written in
	// member order: members are grouped by ascending component, so each
	// row is complete before the next begins and a seen-mark holding the
	// current source component suffices. Every component has a member,
	// so every offset is set.
	seen := ws.seen[:nc]
	for i := range seen {
		seen[i] = -1
	}
	c.foff = make([]int32, nc+1)
	dag := ws.dag[:0]
	for _, v := range members {
		cc := comp[v]
		for _, w := range g.Out(v) {
			if d := comp[w]; d != cc && seen[d] != cc {
				seen[d] = cc
				dag = append(dag, d)
			}
		}
		c.foff[cc+1] = int32(len(dag))
	}
	ws.dag = dag
	c.fedges = slices.Clone(dag)

	// Reverse rows: one counting scatter from the forward ones, sources
	// in increasing order within every row.
	c.roff = make([]int32, nc+1)
	for _, d := range c.fedges {
		c.roff[d+1]++
	}
	for i := 1; i <= nc; i++ {
		c.roff[i] += c.roff[i-1]
	}
	c.redges = make([]int32, len(c.fedges))
	cur := ws.counters(nc)
	for s := int32(0); s < int32(nc); s++ {
		for _, d := range c.fedges[c.foff[s]:c.foff[s+1]] {
			c.redges[c.roff[d]+cur[d]] = s
			cur[d]++
		}
	}
	return c
}
