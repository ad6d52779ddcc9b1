package scc

import "slices"

// Condensation is the SCC DAG of a graph: one node per component and a
// deduped edge for every pair of components joined by at least one
// original edge, in both forward and reverse CSR form, plus the
// vertex→component map. The reverse form is always the transpose of
// the forward one (transpose), whoever built the forward one. Component IDs are in reverse topological order
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

// Reverse returns the reverse DAG in CSR form: offsets (N+1 entries)
// and predecessor components, each row increasing. Callers must treat
// both as read-only views.
func (c *Condensation) Reverse() (off, edges []int32) { return c.roff, c.redges }

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

	c.roff, c.redges = transpose(c.foff, c.fedges)
	return c
}

// transpose builds the reverse CSR of the forward DAG rows (off,
// edges) with one counting scatter, sources in increasing order within
// every row. It is the one producer of a condensation's reverse half:
// Condense and CondensationFromData both call it.
func transpose(off, edges []int32) (roff, redges []int32) {
	nc := len(off) - 1
	// Target d's count goes to roff[d+2]; after the prefix sum roff[d+1]
	// is where row d starts and serves as d's cursor while filling, so
	// it ends where row d+1 starts: roff[:nc+1] are the row offsets.
	roff = make([]int32, nc+2)
	for _, d := range edges {
		roff[d+2]++
	}
	for i := 2; i <= nc+1; i++ {
		roff[i] += roff[i-1]
	}
	redges = make([]int32, len(edges))
	for s := int32(0); s < int32(nc); s++ {
		for _, d := range edges[off[s]:off[s+1]] {
			redges[roff[d+1]] = s
			roff[d+1]++
		}
	}
	return roff[:nc+1], redges
}
