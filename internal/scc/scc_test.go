package scc

import (
	"math/rand"
	"slices"
	"testing"
)

// adjList is a minimal Adjacency for tests.
type adjList [][]int32

func (a adjList) NumVertices() int    { return len(a) }
func (a adjList) Out(v int32) []int32 { return a[v] }

func buildAdj(n int, edges [][2]int32) adjList {
	a := make(adjList, n)
	for _, e := range edges {
		a[e[0]] = append(a[e[0]], e[1])
	}
	return a
}

// groups canonicalizes a component labeling: the member sets, each
// sorted, ordered by their smallest vertex.
func groups(comp []int32, ncomp int) [][]int32 {
	g := make([][]int32, ncomp)
	for v, c := range comp {
		g[c] = append(g[c], int32(v))
	}
	for _, m := range g {
		slices.Sort(m)
	}
	slices.SortFunc(g, func(a, b []int32) int { return int(a[0] - b[0]) })
	return g
}

// checkReverseTopo asserts the ordering contract: every cross-component
// edge u->v has comp[u] > comp[v].
func checkReverseTopo(t *testing.T, a adjList, comp []int32) {
	t.Helper()
	for u := range a {
		for _, v := range a[u] {
			if comp[u] != comp[v] && comp[u] < comp[v] {
				t.Errorf("edge %d->%d violates reverse topological order: comp %d < %d",
					u, v, comp[u], comp[v])
			}
		}
	}
}

func TestDecomposeTable(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int32
		want  [][]int32 // component member sets, by smallest vertex
	}{
		{"empty", 0, nil, nil},
		{"isolated vertices", 3, nil, [][]int32{{0}, {1}, {2}}},
		{"self loop", 1, [][2]int32{{0, 0}}, [][]int32{{0}}},
		{"self loops everywhere", 3, [][2]int32{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {1, 2}},
			[][]int32{{0}, {1}, {2}}},
		{"dag chain", 3, [][2]int32{{0, 1}, {1, 2}}, [][]int32{{0}, {1}, {2}}},
		{"diamond dag", 4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			[][]int32{{0}, {1}, {2}, {3}}},
		{"single big cycle", 6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
			[][]int32{{0, 1, 2, 3, 4, 5}}},
		{"two tangent cycles", 5,
			// Cycles 0->1->2->0 and 2->3->4->2 share vertex 2: one SCC.
			[][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}},
			[][]int32{{0, 1, 2, 3, 4}}},
		{"two cycles over a bridge", 4,
			// 0<->1, 2<->3, bridge 1->2: two SCCs, source side ordered after.
			[][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}},
			[][]int32{{0, 1}, {2, 3}}},
		{"cycle with tail", 5,
			[][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}},
			[][]int32{{0, 1, 2}, {3}, {4}}},
	}
	ws := &Workspace{} // shared across cases: reuse must not leak state
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := buildAdj(c.n, c.edges)
			comp, nc := Decompose(a, ws)
			if nc != len(c.want) {
				t.Fatalf("got %d components, want %d (comp=%v)", nc, len(c.want), comp)
			}
			got := groups(comp, nc)
			for i := range got {
				if !slices.Equal(got[i], c.want[i]) {
					t.Fatalf("component sets %v, want %v", got, c.want)
				}
			}
			checkReverseTopo(t, a, comp)
		})
	}
}

// TestDecomposeDeep drives the iterative DFS through a 200k-vertex
// cycle and a 200k-vertex path: a recursive Tarjan would overflow the
// stack here.
func TestDecomposeDeep(t *testing.T) {
	const n = 200_000
	cycle := make(adjList, n)
	for i := range cycle {
		cycle[i] = []int32{int32((i + 1) % n)}
	}
	if _, nc := Decompose(cycle, nil); nc != 1 {
		t.Fatalf("deep cycle: %d components, want 1", nc)
	}
	path := make(adjList, n)
	for i := 0; i < n-1; i++ {
		path[i] = []int32{int32(i + 1)}
	}
	comp, nc := Decompose(path, nil)
	if nc != n {
		t.Fatalf("deep path: %d components, want %d", nc, n)
	}
	for i := 0; i < n-1; i++ {
		if comp[i] <= comp[i+1] {
			t.Fatalf("deep path: comp[%d]=%d not > comp[%d]=%d", i, comp[i], i+1, comp[i+1])
		}
	}
}

// reachMatrix computes all-pairs reachability (reflexive) by BFS from
// every vertex — the oracle for the randomized tests.
func reachMatrix(a adjList) [][]bool {
	n := len(a)
	reach := make([][]bool, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		reach[s][s] = true
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			for _, w := range a[queue[head]] {
				if !reach[s][w] {
					reach[s][w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return reach
}

func randomAdj(rng *rand.Rand, n int, deg float64) adjList {
	a := make(adjList, n)
	for i := 0; i < int(float64(n)*deg); i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		a[u] = append(a[u], v)
	}
	return a
}

// TestDecomposeDifferential checks Decompose against the definition on
// random graphs: u and v share a component iff they reach each other.
func TestDecomposeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := &Workspace{}
	for gi := 0; gi < 150; gi++ {
		n := 1 + rng.Intn(40)
		a := randomAdj(rng, n, []float64{0.5, 1, 2, 4}[rng.Intn(4)])
		comp, nc := Decompose(a, ws)
		if nc < 1 || nc > n {
			t.Fatalf("graph %d: component count %d out of range", gi, nc)
		}
		reach := reachMatrix(a)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					t.Fatalf("graph %d: comp[%d]==comp[%d] is %v but mutual reach is %v",
						gi, u, v, same, mutual)
				}
			}
		}
		checkReverseTopo(t, a, comp)
	}
}

// TestCondenseStructure checks the condensation of a fixed graph: the
// component map, the DAG edges and their dedup.
func TestCondenseStructure(t *testing.T) {
	// Two 2-cycles {0,1} and {2,3} with parallel bridges 0->2 and 1->3,
	// plus a sink 4 fed from 3.
	a := buildAdj(5, [][2]int32{
		{0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 2}, {1, 3}, {3, 4},
	})
	c := Condense(a, nil)
	if c.N != 3 {
		t.Fatalf("got %d components, want 3", c.N)
	}
	// The two bridges collapse to one DAG edge; total edges: {0,1}->{2,3},
	// {2,3}->{4}.
	if c.NumEdges() != 2 {
		t.Fatalf("got %d DAG edges, want 2", c.NumEdges())
	}
	cc01, cc23, cc4 := c.Comp[0], c.Comp[2], c.Comp[4]
	if c.Comp[1] != cc01 || c.Comp[3] != cc23 {
		t.Fatalf("cycle members split across components: %v", c.Comp)
	}
	if !(cc01 > cc23 && cc23 > cc4) {
		t.Fatalf("component order not reverse topological: %v", c.Comp)
	}
	if got := c.Out(cc01); len(got) != 1 || got[0] != cc23 {
		t.Fatalf("Out(%d) = %v, want [%d]", cc01, got, cc23)
	}
	if got := c.In(cc4); len(got) != 1 || got[0] != cc23 {
		t.Fatalf("In(%d) = %v, want [%d]", cc4, got, cc23)
	}
}

// TestCondenseReverseMatchesForward asserts In() is the exact transpose
// of Out() on random graphs.
func TestCondenseReverseMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := &Workspace{}
	for gi := 0; gi < 50; gi++ {
		n := 1 + rng.Intn(50)
		a := randomAdj(rng, n, 2)
		c := Condense(a, ws)
		type edge struct{ u, v int32 }
		var fwd, rev []edge
		for cc := int32(0); cc < int32(c.N); cc++ {
			for _, d := range c.Out(cc) {
				fwd = append(fwd, edge{cc, d})
			}
			for _, p := range c.In(cc) {
				rev = append(rev, edge{p, cc})
			}
		}
		cmp := func(a, b edge) int {
			if a.u != b.u {
				return int(a.u - b.u)
			}
			return int(a.v - b.v)
		}
		slices.SortFunc(fwd, cmp)
		slices.SortFunc(rev, cmp)
		if !slices.Equal(fwd, rev) {
			t.Fatalf("graph %d: forward edges %v != reverse edges %v", gi, fwd, rev)
		}
	}
}

// TestIndexDifferential checks AppendExitsFrom against the reachability
// oracle on random graphs with random exit sets, including exit sets
// past one bitset word.
func TestIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ws := &Workspace{}
	for gi := 0; gi < 150; gi++ {
		n := 1 + rng.Intn(130) // up to 130 exits: exercises multi-word bitsets
		a := randomAdj(rng, n, []float64{0.5, 1, 2, 4}[rng.Intn(4)])
		var exits []int32
		switch rng.Intn(3) {
		case 0: // every vertex is an exit
			for v := 0; v < n; v++ {
				exits = append(exits, int32(v))
			}
		case 1: // random subset
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					exits = append(exits, int32(v))
				}
			}
		case 2: // no exits at all
		}
		ix := BuildIndex(Condense(a, ws), exits)
		if ix.NumExits() != len(exits) {
			t.Fatalf("graph %d: NumExits = %d, want %d", gi, ix.NumExits(), len(exits))
		}
		reach := reachMatrix(a)
		var buf []int32
		for v := 0; v < n; v++ {
			buf = ix.AppendExitsFrom(int32(v), buf[:0])
			var want []int32
			for _, x := range exits {
				if reach[v][x] {
					want = append(want, x)
				}
			}
			got := slices.Clone(buf)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d: exits from %d = %v, want %v", gi, v, got, want)
			}
		}
	}
}

// TestIndexBigCycleAllExits is a deterministic multi-word case: in a
// 200-vertex cycle where every vertex is an exit, every vertex reaches
// all 200 exits.
func TestIndexBigCycleAllExits(t *testing.T) {
	const n = 200
	a := make(adjList, n)
	exits := make([]int32, n)
	for i := range a {
		a[i] = []int32{int32((i + 1) % n)}
		exits[i] = int32(i)
	}
	ix := BuildIndex(Condense(a, nil), exits)
	var buf []int32
	for v := 0; v < n; v++ {
		buf = ix.AppendExitsFrom(int32(v), buf[:0])
		if len(buf) != n {
			t.Fatalf("vertex %d reaches %d exits, want %d", v, len(buf), n)
		}
	}
}
