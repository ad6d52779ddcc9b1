package scc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
)

// decomposeReference is Decompose as it was before frames fetched their
// row once per resume: one Out call per edge explored.
func decomposeReference(g Adjacency, ws *Workspace) (comp []int32, ncomp int) {
	n := g.NumVertices()
	ws.grow(n)
	comp = make([]int32, n)
	next := int32(1)
	nc := int32(0)
	for r := 0; r < n; r++ {
		if ws.num[r] != 0 {
			continue
		}
		ws.num[r], ws.low[r] = next, next
		next++
		ws.stack = append(ws.stack, int32(r))
		ws.onStack[r] = true
		ws.frames = append(ws.frames, frame{v: int32(r)})
		for len(ws.frames) > 0 {
			f := &ws.frames[len(ws.frames)-1]
			v := f.v
			if out := g.Out(v); int(f.ei) < len(out) {
				w := out[f.ei]
				f.ei++
				if ws.num[w] == 0 {
					ws.num[w], ws.low[w] = next, next
					next++
					ws.stack = append(ws.stack, w)
					ws.onStack[w] = true
					ws.frames = append(ws.frames, frame{v: w})
				} else if ws.onStack[w] && ws.num[w] < ws.low[v] {
					ws.low[v] = ws.num[w]
				}
				continue
			}
			ws.frames = ws.frames[:len(ws.frames)-1]
			if len(ws.frames) > 0 {
				if p := &ws.frames[len(ws.frames)-1]; ws.low[v] < ws.low[p.v] {
					ws.low[p.v] = ws.low[v]
				}
			}
			if ws.low[v] == ws.num[v] {
				for {
					w := ws.stack[len(ws.stack)-1]
					ws.stack = ws.stack[:len(ws.stack)-1]
					ws.onStack[w] = false
					comp[w] = nc
					if w == v {
						break
					}
				}
				nc++
			}
		}
	}
	return comp, int(nc)
}

// condenseReference is Condense as it was before the forward rows were
// written in member order: every DAG edge staged as a (source, target)
// pair, then both CSRs scattered from the staging.
func condenseReference(g Adjacency) *Condensation {
	ws := &Workspace{}
	comp, nc := decomposeReference(g, ws)
	n := g.NumVertices()
	c := &Condensation{Comp: comp, N: nc}
	moff := make([]int32, nc+1)
	for _, cc := range comp {
		moff[cc+1]++
	}
	for i := 1; i <= nc; i++ {
		moff[i] += moff[i-1]
	}
	members := make([]int32, n)
	for v := 0; v < n; v++ {
		cc := comp[v]
		members[moff[cc]] = int32(v)
		moff[cc]++
	}
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	var esrc, edst []int32
	for _, v := range members {
		cc := comp[v]
		for _, w := range g.Out(v) {
			if d := comp[w]; d != cc && seen[d] != cc {
				seen[d] = cc
				esrc = append(esrc, cc)
				edst = append(edst, d)
			}
		}
	}
	m := len(esrc)
	c.foff = make([]int32, nc+1)
	c.roff = make([]int32, nc+1)
	for i := 0; i < m; i++ {
		c.foff[esrc[i]+1]++
		c.roff[edst[i]+1]++
	}
	for i := 1; i <= nc; i++ {
		c.foff[i] += c.foff[i-1]
		c.roff[i] += c.roff[i-1]
	}
	c.fedges = make([]int32, m)
	c.redges = make([]int32, m)
	cur := make([]int32, nc)
	for i := 0; i < m; i++ {
		s := esrc[i]
		c.fedges[c.foff[s]+cur[s]] = edst[i]
		cur[s]++
	}
	clear(cur)
	for i := 0; i < m; i++ {
		d := edst[i]
		c.redges[c.roff[d]+cur[d]] = esrc[i]
		cur[d]++
	}
	return c
}

// csrAdj is a graph.Graph seen through Adjacency, laid out the way a
// partition.Subgraph is: one offsets array, one edge array.
type csrAdj struct {
	off []int32
	adj []int32
}

func (g *csrAdj) NumVertices() int    { return len(g.off) - 1 }
func (g *csrAdj) Out(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

func csrOf(g *graph.Graph) *csrAdj {
	n := g.NumVertices()
	c := &csrAdj{off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		for _, w := range g.Out(graph.VertexID(v)) {
			c.adj = append(c.adj, int32(w))
		}
		c.off[v+1] = int32(len(c.adj))
	}
	return c
}

// sameCondensation reports the first array on which got and want
// differ, or "" when they are byte-identical.
func sameCondensation(got, want *Condensation) string {
	g, w := got.Data(), want.Data()
	groff, gredges := got.Reverse()
	wroff, wredges := want.Reverse()
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case !slices.Equal(g.Comp, w.Comp):
		return "Comp"
	case !slices.Equal(g.FOff, w.FOff):
		return "FOff"
	case !slices.Equal(g.FEdges, w.FEdges):
		return "FEdges"
	case !slices.Equal(groff, wroff):
		return "reverse offsets"
	case !slices.Equal(gredges, wredges):
		return "reverse edges"
	}
	return ""
}

// TestCondenseMatchesReference holds Condense to its predecessor byte
// for byte — numbering, row order inside every row, both directions —
// on uniform random graphs with self loops and multi-edges (one
// workspace reused across them, shrinking and growing) and on two
// community graphs, the benchmark's family among them.
func TestCondenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	ws := &Workspace{}
	for gi := 0; gi < 400; gi++ {
		n := rng.Intn(300)
		a := randomAdj(rng, max(n, 1), []float64{0, 0.5, 1, 2, 4}[rng.Intn(5)])[:n]
		for u := range a {
			if rng.Intn(8) == 0 && len(a[u]) > 0 {
				a[u] = append(a[u], a[u][0], int32(u)) // a parallel edge and a self loop
			}
		}
		if diff := sameCondensation(Condense(a, ws), condenseReference(a)); diff != "" {
			t.Fatalf("graph %d (%d vertices): %s differs from the reference", gi, n, diff)
		}
	}
	for _, g := range []*graph.Graph{
		gen.Community(rand.New(rand.NewSource(4)), 20_000, 16, 2.5, 0.05, 0.01),
		gen.Community(rand.New(rand.NewSource(5)), 20_000, 4, 1.6, 0.1, 0.02),
	} {
		a := csrOf(g)
		if diff := sameCondensation(Condense(a, ws), condenseReference(a)); diff != "" {
			t.Fatalf("community graph: %s differs from the reference", diff)
		}
	}
}

// BenchmarkCondense times the condensation of the benchmark harness's
// graph family at full size (200k vertices), the whole graph at once:
// Tarjan plus both DAG directions, with a private workspace, as
// shard.New and the coordinator's stitch call it.
func BenchmarkCondense(b *testing.B) {
	a := csrOf(gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01))
	b.ReportAllocs()
	b.ResetTimer()
	var c *Condensation
	for i := 0; i < b.N; i++ {
		c = Condense(a, nil)
	}
	b.ReportMetric(float64(c.N), "components")
	b.ReportMetric(float64(c.NumEdges()), "dag-edges")
}
