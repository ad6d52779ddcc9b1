package scc

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

	// DAG edges, deduped per source component: members of a component
	// are scanned contiguously, so a seen-mark holding the current
	// source component suffices.
	seen := ws.seen[:nc]
	for i := range seen {
		seen[i] = -1
	}
	ws.esrc, ws.edst = ws.esrc[:0], ws.edst[:0]
	for _, v := range members {
		cc := comp[v]
		for _, w := range g.Out(v) {
			if d := comp[w]; d != cc && seen[d] != cc {
				seen[d] = cc
				ws.esrc = append(ws.esrc, cc)
				ws.edst = append(ws.edst, d)
			}
		}
	}

	m := len(ws.esrc)
	c.foff = make([]int32, nc+1)
	c.roff = make([]int32, nc+1)
	for i := 0; i < m; i++ {
		c.foff[ws.esrc[i]+1]++
		c.roff[ws.edst[i]+1]++
	}
	for i := 1; i <= nc; i++ {
		c.foff[i] += c.foff[i-1]
		c.roff[i] += c.roff[i-1]
	}
	c.fedges = make([]int32, m)
	c.redges = make([]int32, m)
	cur := ws.counters(nc)
	for i := 0; i < m; i++ {
		s := ws.esrc[i]
		c.fedges[c.foff[s]+cur[s]] = ws.edst[i]
		cur[s]++
	}
	cur = ws.counters(nc)
	for i := 0; i < m; i++ {
		d := ws.edst[i]
		c.redges[c.roff[d]+cur[d]] = ws.esrc[i]
		cur[d]++
	}
	return c
}
