package dsr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition/locality"
	"dsr/internal/wire"
)

// boundaryReach is the reference the finish is checked against — the
// finish this package once ran: one BFS per query over the
// vertex-level boundary graph, from the seeds until any goal is touched.
func boundaryReach(g *csr, seeds, goals []int32) bool {
	goal := make([]bool, g.NumVertices())
	for _, d := range goals {
		goal[d] = true
	}
	visited := make([]bool, g.NumVertices())
	var queue []int32
	for _, v := range seeds {
		if goal[v] {
			return true
		}
		if !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Out(queue[head]) {
			if !visited[w] {
				if goal[w] {
					return true
				}
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// summariesOf fabricates the two-shard fleet whose stitched boundary
// graph is exactly the given edge list over nb vertices: global IDs are
// spread out (3v+1) so dense ids differ from them, even vertices belong
// to shard 0 and odd ones to shard 1, same-shard edges travel as
// summary edges and the rest as cross edges.
func summariesOf(nb int, edges [][2]int32) (n int, sums []wire.Summary) {
	sums = make([]wire.Summary, 2)
	for v := 0; v < nb; v++ {
		sums[v%2].Boundary = append(sums[v%2].Boundary, uint32(3*v+1))
	}
	for _, e := range edges {
		pr := [2]uint32{uint32(3*e[0] + 1), uint32(3*e[1] + 1)}
		if s := &sums[e[0]%2]; e[0]%2 == e[1]%2 {
			s.Edges = append(s.Edges, pr)
		} else {
			s.Cross = append(s.Cross, pr)
		}
	}
	return 3*nb + 1, sums
}

// compOfDense is the component of a summariesOf fleet's boundary vertex
// d as the coordinator files it: under its shard and its ordinal there.
func (bg *boundaryGraph) compOfDense(d int32) int32 { return bg.compOf[d%2][d/2] }

// shapeVerts is the vertex count of every boundaryShapes graph.
const shapeVerts = 300

// boundaryShape is one fabricated boundary graph, and where on it the
// differential test puts a round's seeds and goals.
type boundaryShape struct {
	name         string
	nb           int // vertices
	edges        [][2]int32
	seeds, goals []int32 // the vertices seeds and goals are drawn from; nil means any
	idle         bool    // every seed lies below every goal in topological order: a walk expands nothing
	waist        bool    // an hourglass: a walk expands its query's own seeds and goals and the waist, not a fan
}

// boundaryShapes are the small boundary graphs the finish is exercised
// on: shapeVerts vertices each, seeds and goals anywhere.
func boundaryShapes(rng *rand.Rand) []boundaryShape {
	const nb = shapeVerts
	random := func(m int) [][2]int32 {
		edges := make([][2]int32, m)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(nb)), int32(rng.Intn(nb))}
		}
		return edges
	}
	ring := make([][2]int32, nb)
	for v := range ring {
		ring[v] = [2]int32{int32(v), int32((v + 1) % nb)}
	}
	// A DAG whose topological order is a random relabelling, so dense
	// ids say nothing about component numbers.
	label := rng.Perm(nb)
	dag := random(3 * nb)
	for i, e := range dag {
		lo, hi := min(e[0], e[1]), max(e[0], e[1])
		dag[i] = [2]int32{int32(label[lo]), int32(label[hi])}
	}
	return []boundaryShape{
		{name: "giant-scc", nb: nb, edges: random(3 * nb)}, // collapses into one big component plus fringe
		{name: "one-ring", nb: nb, edges: ring},            // exactly one component
		{name: "dag", nb: nb, edges: dag},                  // every component a singleton
		{name: "sparse", nb: nb, edges: random(nb / 2)},    // mostly isolated vertices
		{name: "empty", nb: nb},
	}
}

// span is the vertices lo..hi-1.
func span(lo, hi int) []int32 {
	vs := make([]int32, hi-lo)
	for i := range vs {
		vs[i] = int32(lo + i)
	}
	return vs
}

// chainShape is the path 0 -> 1 -> ... -> nb-1: vertex v is component
// nb-1-v.
func chainShape(name string, nb int, seeds, goals []int32, idle bool) boundaryShape {
	edges := make([][2]int32, nb-1)
	for v := range edges {
		edges[v] = [2]int32{int32(v), int32(v + 1)}
	}
	return boundaryShape{name: name, nb: nb, edges: edges, seeds: seeds, goals: goals, idle: idle}
}

// hourglassShape is in sources -> u -> v -> out sinks, seeds among the
// sources and goals among the sinks, so every path runs along the one
// edge u -> v. Whatever order the decomposition visits vertices in, the
// sinks complete first, then v, then u, then the sources: v is
// component `out` and u is `out`+1, which is how a caller places the
// edge in the numbering, and the ratio of in to out is how it weighs
// the walk's two sides against each other.
func hourglassShape(name string, in, out int) boundaryShape {
	u, v := int32(in), int32(in+1)
	edges := [][2]int32{{u, v}}
	for a := 0; a < in; a++ {
		edges = append(edges, [2]int32{int32(a), u})
	}
	for b := 0; b < out; b++ {
		edges = append(edges, [2]int32{v, int32(in + 2 + b)})
	}
	return boundaryShape{name: name, nb: in + out + 2, edges: edges, seeds: span(0, in), goals: span(in+2, in+2+out), waist: true}
}

// seamShapes are long chains and hourglasses of 64*words components,
// words even, with the seeds and goals placed so a walk's two sides
// must meet on a chosen edge, among a few adjacent components, or not
// at all; the names place them against 64-component words, which the
// numbering is checked against (TestSeamShapesAim). The fuzz seeds use
// the same shapes, smaller.
func seamShapes(words int) []boundaryShape {
	n := 64 * words
	return []boundaryShape{
		// Seeds at the head, goals at the tail: every path crosses every word.
		chainShape("chain-down", n, span(0, 70), span(n-70, n), false),
		// The other way round: nothing reaches anything, and nothing is expanded.
		chainShape("chain-up", n, span(n-70, n), span(0, 70), true),
		// Seeds and goals share components 64..127 of many.
		chainShape("chain-one-word", n, span(n-128, n-64), span(n-128, n-64), false),
		// Seeds and goals are the same few components, words apart.
		chainShape("chain-same-components", n, []int32{3, int32(n / 2), int32(n - 3)}, []int32{3, int32(n / 2), int32(n - 3)}, false),
		hourglassShape("hourglass-in-word", n/2, n/2-2),       // u, v = components n/2-1, n/2-2: one word, work balanced
		hourglassShape("hourglass-word-boundary", n/2, n/2-1), // u, v = components n/2, n/2-1: a word apart
		hourglassShape("hourglass-bottom", n, 63),             // the edge straddles words 0|1, all the work above it
		hourglassShape("hourglass-top", 5, n-1),               // the edge straddles two words near the top, all the work below
	}
}

// stitched stitches a shape, returning both the vertex-level graph (the
// reference's input) and its condensation (the finish's).
func (s boundaryShape) stitched(t testing.TB) (*csr, *boundaryGraph) {
	t.Helper()
	n, sums := summariesOf(s.nb, s.edges)
	owner, g, err := stitchRows(n, sums)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return g, condense(owner, sums, g)
}

// TestCondenseInvariants checks what the walk relies on: components
// numbered so every edge points downwards (equal only inside a
// component), DAG rows strictly downward and duplicate-free.
func TestCondenseInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	for _, shape := range boundaryShapes(rng) {
		name := shape.name
		g, bg := shape.stitched(t)
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			for _, v := range g.Out(u) {
				cu, cv := bg.compOfDense(u), bg.compOfDense(v)
				if cu < cv {
					t.Fatalf("%s: edge %d->%d runs up the numbering (%d < %d)", name, u, v, cu, cv)
				}
				if back := boundaryReach(g, []int32{v}, []int32{u}); (cu == cv) != back {
					t.Fatalf("%s: edge %d->%d: same component = %v, but %d reaches %d = %v", name, u, v, cu == cv, v, u, back)
				}
				if cu != cv && !slices.Contains(bg.succ[bg.off[cu]:bg.off[cu+1]], cv) {
					t.Fatalf("%s: edge %d->%d has no DAG edge %d->%d", name, u, v, cu, cv)
				}
			}
		}
		for c := 0; c < bg.ncomp(); c++ {
			row := slices.Clone(bg.succ[bg.off[c]:bg.off[c+1]])
			slices.Sort(row)
			if len(slices.Compact(row)) != len(row) {
				t.Fatalf("%s: component %d has duplicate successors", name, c)
			}
			if len(row) > 0 && row[len(row)-1] >= int32(c) {
				t.Fatalf("%s: component %d has successor %d", name, c, row[len(row)-1])
			}
		}
	}
}

// TestSeamShapesAim checks the seam shapes sit where their names say —
// the component numbering is the decomposition's, not the test's.
func TestSeamShapesAim(t *testing.T) {
	for _, shape := range seamShapes(76) {
		_, bg := shape.stitched(t)
		if bg.ncomp() != shape.nb || bg.ncomp() < 4096 {
			t.Fatalf("%s: %d components from %d vertices, want one each and at least 4096", shape.name, bg.ncomp(), shape.nb)
		}
		e := shape.edges[0] // a chain's head edge, an hourglass's waist
		hi, lo := bg.compOfDense(e[0]), bg.compOfDense(e[1])
		if hi != lo+1 {
			t.Fatalf("%s: edge %v joins components %d and %d, want neighbours", shape.name, e, hi, lo)
		}
		switch shape.name {
		case "chain-one-word":
			for _, v := range slices.Concat(shape.seeds, shape.goals) {
				if bg.compOfDense(v)>>6 != 1 {
					t.Fatalf("%s: vertex %d is component %d, outside word 1", shape.name, v, bg.compOfDense(v))
				}
			}
		case "hourglass-in-word":
			if hi>>6 != lo>>6 {
				t.Fatalf("%s: waist %d -> %d spans two words", shape.name, hi, lo)
			}
		case "hourglass-word-boundary", "hourglass-bottom", "hourglass-top":
			if hi>>6 != lo>>6+1 {
				t.Fatalf("%s: waist %d -> %d does not straddle a word boundary", shape.name, hi, lo)
			}
		}
		if shape.idle {
			top := int32(0)
			for _, v := range shape.seeds {
				top = max(top, bg.compOfDense(v))
			}
			for _, v := range shape.goals {
				if bg.compOfDense(v)>>6 <= top>>6 {
					t.Fatalf("%s: goal component %d is not words above seed component %d", shape.name, bg.compOfDense(v), top)
				}
			}
		}
	}
}

// finishRoundSizes are the rounds the finish tests run: one query up to
// a few hundred, every one answered with stamps the previous left.
var finishRoundSizes = []int{1, 63, 64, 65, 200}

// roundQuery is one fabricated query of a round as the finish meets it:
// seeds and goals in dense vertex ids, already decided (done, with its
// answer), locally hit, or open.
type roundQuery struct {
	seeds, goals   []int32
	done, ans, hit bool
}

// checkRound runs the finish on a fabricated round and checks every
// answer against the per-query BFS and the swept count. It returns the
// components the walks expanded.
func checkRound(t testing.TB, name string, g *csr, bg *boundaryGraph, fin *finisher, round []roundQuery) int {
	t.Helper()
	qs := make([]qstate, len(round))
	want := make([]bool, len(round))
	open := 0
	for i, q := range round {
		for _, d := range q.seeds {
			qs[i].seeds = append(qs[i].seeds, bg.compOfDense(d))
		}
		for _, d := range q.goals {
			qs[i].goals = append(qs[i].goals, bg.compOfDense(d))
		}
		switch {
		case q.done: // decided during assembly: the finish must not touch it
			qs[i].done, qs[i].ans = true, q.ans
			want[i] = q.ans
		case q.hit:
			qs[i].hit = true
			want[i] = true
		default:
			want[i] = boundaryReach(g, q.seeds, q.goals)
			if len(q.seeds) > 0 && len(q.goals) > 0 {
				open++
			}
		}
	}
	swept, expanded := fin.run(bg, qs)
	if swept != open {
		t.Fatalf("%s round of %d: swept %d queries, want %d", name, len(round), swept, open)
	}
	for i := range qs {
		if qs[i].ans != want[i] {
			t.Fatalf("%s round of %d query %d: finish = %v, per-query BFS = %v (seeds %v goals %v)",
				name, len(round), i, qs[i].ans, want[i], qs[i].seeds, qs[i].goals)
		}
	}
	return expanded
}

// labelFinisher is a finisher that answers from bg's label cover, built
// with at most limit entries (limit < 0: no bound); nil if the cover
// needs more.
func labelFinisher(bg *boundaryGraph, limit int) *finisher {
	l, _ := buildLabels(bg, limit, nil)
	if l == nil {
		return nil
	}
	fin := &finisher{}
	fin.install(l)
	return fin
}

// TestFinishSweepDifferential runs the finish on fabricated rounds —
// decided, locally hit and open queries mixed, seed and goal lists that
// may be empty, overlap, or repeat — and checks every answer against
// the per-query BFS. One finisher serves every round of a shape, so
// each query meets the stamps of every query before it. Every round is
// answered from the shape's label cover too, through one finisher whose
// stamps carry across rounds — where the cover fits labelCap, as an
// engine would build it: the long chains' covers do not.
func TestFinishSweepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	for _, shape := range append(boundaryShapes(rng), seamShapes(76)...) {
		g, bg := shape.stitched(t)
		fin, byLabels := newFinisher(bg.ncomp()), labelFinisher(bg, labelCap*bg.ncomp())
		pick := func(from []int32) []int32 {
			vs := make([]int32, rng.Intn(7))
			for i := range vs {
				if from == nil {
					vs[i] = int32(rng.Intn(shape.nb))
				} else {
					vs[i] = from[rng.Intn(len(from))]
				}
			}
			return vs
		}
		for _, size := range append(finishRoundSizes, finishRoundSizes...) {
			round := make([]roundQuery, size)
			for i := range round {
				q := &round[i]
				q.seeds, q.goals = pick(shape.seeds), pick(shape.goals)
				if len(q.seeds) > 0 && rng.Intn(8) == 0 && !shape.idle {
					q.goals = append(q.goals, q.seeds[0]) // seed == goal
				}
				switch rng.Intn(6) {
				case 0:
					q.done, q.ans = true, rng.Intn(2) == 0
				case 1:
					q.hit = true
				}
			}
			expanded := checkRound(t, shape.name, g, bg, fin, round)
			if byLabels != nil {
				if x := checkRound(t, shape.name+"/labels", g, bg, byLabels, round); x != 0 {
					t.Fatalf("%s/labels round of %d: expanded %d components", shape.name, size, x)
				}
			}
			if shape.idle && expanded != 0 {
				t.Fatalf("%s round of %d: expanded %d components with every seed below every goal", shape.name, size, expanded)
			}
			// At most 6 seeds and 7 goals a query, and the waist: a side
			// that ran on past the meet would expand a whole fan, thousands.
			if bound := 13 * size; shape.waist && expanded > bound {
				t.Fatalf("%s round of %d: expanded %d components, more than the %d its seeds, goals and waist account for",
					shape.name, size, expanded, bound)
			}
		}
	}
}

// TestFinishWalkPrunes pins the walk's two pruning rules on one DAG
// where each saves most of the work: a wide seed side above a narrow
// goal side, with a chain hanging below the goal that every seed
// reaches and a chain above the seeds that reaches the goal side. From
// the top down: the chain above (a_dep -> ... -> a_1 -> m_1), the
// seeds s_1..s_wide (s_1 -> m_depth, every seed -> d_depth), the goal
// chain (m_depth -> ... -> m_1 -> goal), and the chain below (d_depth
// -> ... -> d_1). From all seeds to the goal the pruned walk expands
// the goal chain alone, depth+1 components: a backward side that climbs
// the chain above, or a forward side that takes turns with the shorter
// backward queue, expands about twice that. From one seed that reaches
// only the chain below, it expands that seed alone.
func TestFinishWalkPrunes(t *testing.T) {
	const below, depth, wide, above = 32, 16, 32, 32
	// Vertex ids in this order give every block the components it is
	// named for: the decomposition numbers each of these chains and
	// lone vertices as it meets them, counting up.
	d, goal, m, s, a := 0, below, below+1, below+1+depth, below+1+depth+wide
	var edges [][2]int32
	link := func(from, to int) { edges = append(edges, [2]int32{int32(from), int32(to)}) }
	for i := 1; i < below; i++ {
		link(d+i, d+i-1)
	}
	link(m, goal)
	for i := 1; i < depth; i++ {
		link(m+i, m+i-1)
	}
	link(s, m+depth-1)
	for i := range wide {
		link(s+i, d+below-1)
	}
	link(a, m)
	for i := 1; i < above; i++ {
		link(a+i, a+i-1)
	}
	shape := boundaryShape{name: "wide-over-narrow", nb: a + above, edges: edges}
	g, bg := shape.stitched(t)
	for v := int32(0); v < int32(shape.nb); v++ {
		if bg.compOfDense(v) != v {
			t.Fatalf("vertex %d is component %d: the blocks are not where the walk's bounds expect them", v, bg.compOfDense(v))
		}
	}
	for _, c := range []struct {
		name  string
		q     roundQuery
		bound int
	}{
		{"all seeds to the goal", roundQuery{seeds: span(s, s+wide), goals: []int32{int32(goal)}}, depth + 1},
		{"one seed over the chain below", roundQuery{seeds: []int32{int32(s + 1)}, goals: []int32{int32(goal)}}, 1},
	} {
		if x := checkRound(t, c.name, g, bg, newFinisher(bg.ncomp()), []roundQuery{c.q}); x > c.bound {
			t.Errorf("%s: the walk expanded %d components, want at most %d", c.name, x, c.bound)
		}
	}
}

// TestFinishStampWrap runs a finisher's stamp counter across its wrap,
// through the walk and through the labels. The shape is a chain and one
// vertex s off it. A query from the chain's head to its tail stamps
// the chain with some gen g; the counter is then set to its last value,
// so the next query wraps it and the g-th after the jump takes g again.
// A stamp left from before the wrap hides the tail from a walk's
// backward side, so head to tail reads false, and puts the head's hubs
// in the middle's in-label, so s to the middle reads true: every stamp
// array must be cleared on the wrap.
func TestFinishStampWrap(t *testing.T) {
	const m = 40
	chain := chainShape("chain", m, nil, nil, false)
	shape := boundaryShape{name: "chain-and-one", nb: m + 1, edges: chain.edges}
	g, bg := shape.stitched(t)
	down := roundQuery{seeds: []int32{0}, goals: []int32{m - 1}}
	across := roundQuery{seeds: []int32{m}, goals: []int32{m / 2}}
	for name, fin := range map[string]*finisher{"walk": newFinisher(bg.ncomp()), "labels": labelFinisher(bg, -1)} {
		for _, q := range []roundQuery{down, across} {
			checkRound(t, name+" before the wrap", g, bg, fin, []roundQuery{down})
			stale := fin.gen
			fin.gen = math.MaxUint32
			after := make([]roundQuery, stale)
			for i := range after {
				after[i] = q
			}
			checkRound(t, name+" across the wrap", g, bg, fin, after)
			if fin.gen != stale {
				t.Fatalf("%s: stamp counter at %d after the round, want %d: it did not wrap", name, fin.gen, stale)
			}
		}
	}
}

// finishStrategies are the partitioners the engine-level finish tests
// run under.
func finishStrategies() []graph.Partitioner {
	return []graph.Partitioner{graph.Hash(), graph.Range(), locality.New(locality.Options{Seed: 3})}
}

// sweptLastRound reads the last round's finish span: how many queries
// were looked up or walked.
func sweptLastRound(e *Engine) int {
	for _, s := range e.r.trace.Spans() {
		if s.Name == "finish" {
			return s.N
		}
	}
	return 0
}

// TestFinishAgainstOracle drives whole rounds through the engine on a
// cyclic graph (gen.Planted: the boundary graph is one giant component,
// every seed and goal shares it) and a mostly acyclic one, under every
// partitioner, in rounds of one query up to a thousand, against the
// whole-graph oracle.
func TestFinishAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	const n = 600
	planted, _, err := gen.Planted(gen.PlantedConfig{N: n, K: 4, IntraDeg: 2, InterDeg: 0.3, Seed: 5, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"planted":   planted,
		"community": gen.Community(rng, n, 4, 1.6, 0.1, 0.02),
	}
	for gname, g := range graphs {
		for _, strat := range finishStrategies() {
			e, err := Build(g, Options{K: 3, Partitioner: strat})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range append(finishRoundSizes, 1000) {
				queries := make([]Query, size)
				for i := range queries {
					queries[i] = Query{S: randomSet(rng, n+5, 3), T: randomSet(rng, n+5, 3)}
				}
				got := e.QueryBatch(queries)
				for i, q := range queries {
					if want := NaiveReach(g, q.S, q.T); got[i] != want {
						t.Fatalf("%s/%s round of %d query %d: got %v, oracle %v (S=%v T=%v)",
							gname, strat.Name(), size, i, got[i], want, q.S, q.T)
					}
				}
			}
			e.Close()
		}
	}
}

// TestBatchGroupingInvariance is the no-oracle property: a query's
// answer does not depend on which batch it travels in or where in it.
// Every query is answered once in one big round, then again in a
// shuffled order cut into random groups, across all partitioners.
func TestBatchGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	const n, nq = 500, 300
	g := gen.Community(rng, n, 4, 1.6, 0.1, 0.02)
	queries := make([]Query, nq)
	for i := range queries {
		queries[i] = Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)}
	}
	var first []bool // the first partitioner's answers, to compare across partitioners
	for _, strat := range finishStrategies() {
		e, err := Build(g, Options{K: 4, Partitioner: strat})
		if err != nil {
			t.Fatal(err)
		}
		whole := e.QueryBatch(queries)
		if first == nil {
			first = whole
		} else if !slices.Equal(first, whole) {
			t.Fatalf("%s answers differ from %s's", strat.Name(), finishStrategies()[0].Name())
		}
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(nq)
			for at := 0; at < nq; {
				size := min(1+rng.Intn(100), nq-at)
				group := make([]Query, size)
				for i := range group {
					group[i] = queries[perm[at+i]]
				}
				for i, ans := range e.QueryBatch(group) {
					if qi := perm[at+i]; ans != whole[qi] {
						t.Fatalf("%s trial %d: query %d answered %v alone in a group of %d at %d, %v in the whole batch",
							strat.Name(), trial, qi, ans, size, i, whole[qi])
					}
				}
				at += size
			}
		}
		e.Close()
	}
}

// captureRounds runs rounds of `batch` fresh queries through e and
// keeps each round's per-query state as it stood before the finish
// (seeds, goals, flags — the finish only ever writes ans).
func captureRounds(e *Engine, rng *rand.Rand, n, batch, rounds int) [][]qstate {
	out := make([][]qstate, rounds)
	for r := range out {
		queries := make([]Query, batch)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 16), T: randomSet(rng, n, 16)}
		}
		e.QueryBatch(queries)
		out[r] = make([]qstate, batch)
		for i := range out[r] {
			st := e.r.qs[i]
			st.seeds, st.goals = slices.Clone(st.seeds), slices.Clone(st.goals)
			st.ans = st.done && st.ans
			out[r][i] = st
		}
	}
	return out
}

// benchGraph is the graph the finish and stitch benchmarks share: the
// benchmark harness's graph family at a quarter of its size.
func benchGraph() (*graph.Graph, int) {
	const n = 50_000
	return gen.Community(rand.New(rand.NewSource(4)), n, 16, 2.5, 0.05, 0.01), n
}

// fullBenchGraph is the benchmark harness's graph family at full size.
func fullBenchGraph() *graph.Graph {
	return gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
}

// sweepEngine builds a k = 3 in-process engine over g whose labels are
// held back, so its finish state — the DAG and the walk's stamps —
// stays for the finish benchmarks to drive.
func sweepEngine(tb testing.TB, g *graph.Graph, strat graph.Partitioner) *Engine {
	tb.Helper()
	labelsHeld = true
	defer func() { labelsHeld = false }()
	e, err := Build(g, Options{K: 3, Partitioner: strat})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkBoundaryFinish times the coordinator's finish alone — the
// rounds' state is captured up front from real rounds — under the
// partitioning that makes nearly every vertex boundary and the one that
// keeps the boundary small, on the harness's graph at a quarter of its
// size and at full size (the 200k rows). Each row runs the walk, and
// each labels row the same rounds from the DAG's label cover. b.N
// counts rounds; ns/query divides by the batch, as do the exact counts
// beside it: the components the walks expanded (components/query), or
// the label entries the lookups read (entries/query). batch=32 is about
// what a closed-loop dsr-serve round carries.
func BenchmarkBoundaryFinish(b *testing.B) {
	small, _ := benchGraph()
	full := fullBenchGraph()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		strat graph.Partitioner
	}{
		{"hash", small, graph.Hash()},
		{"locality", small, locality.New(locality.Options{Seed: 1})},
		{"hash200k", full, graph.Hash()},
		{"locality200k", full, locality.New(locality.Options{Seed: 1})},
	} {
		e := sweepEngine(b, c.g, c.strat)
		byLabels := labelFinisher(e.bg, -1)
		for _, batch := range []int{1, 8, 32, 64} {
			rounds := captureRounds(e, rand.New(rand.NewSource(int64(batch))), c.g.NumVertices(), batch, 16)
			b.Run(fmt.Sprintf("%s/batch=%d", c.name, batch), func(b *testing.B) {
				benchFinish(b, e.r.fin, e.bg, rounds)
			})
			b.Run(fmt.Sprintf("%s/labels/batch=%d", c.name, batch), func(b *testing.B) {
				benchFinish(b, byLabels, e.bg, rounds)
			})
		}
		e.Close()
	}
}

// benchFinish runs the captured rounds through fin, one a b.N.
func benchFinish(b *testing.B, fin *finisher, bg *boundaryGraph, rounds [][]qstate) {
	expanded := 0
	run := func(i int) {
		qs := rounds[i%len(rounds)]
		for j := range qs {
			qs[j].ans = qs[j].done && qs[j].ans
		}
		_, n := fin.run(bg, qs)
		expanded += n
	}
	for i := range rounds { // fault the scratch in and warm the caches
		run(i)
	}
	expanded, read := 0, fin.read
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	queries := float64(b.N * len(rounds[0]))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
	if fin.lab != nil {
		b.ReportMetric(float64(fin.read-read)/queries, "entries/query")
	} else {
		b.ReportMetric(float64(expanded)/queries, "components/query")
	}
}

// BenchmarkStitchBoundary measures the coordinator's share of engine
// construction — validating and stitching the k shipped summaries and
// condensing the result — and reports the resulting coordinator-resident
// footprint, the headline metric of the graph-free design. hash-200k is
// the benchmark harness's graph at full size under hash (193k boundary
// vertices), where resolving edge ends by binary search once took about
// half the stitch.
func BenchmarkStitchBoundary(b *testing.B) {
	g, _ := benchGraph()
	full := fullBenchGraph()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		strat graph.Partitioner
	}{
		{"hash", g, graph.Hash()},
		{"locality", g, locality.New(locality.Options{Seed: 1})},
		{"hash-200k", full, graph.Hash()},
	} {
		const k = 3
		sums := make([]wire.Summary, k)
		for p, sh := range loopbackShards(b, c.g, c.strat, k) {
			sums[p] = sh.Summary()
		}
		n := c.g.NumVertices()
		b.Run(c.name, func(b *testing.B) {
			var resident int
			for i := 0; i < b.N; i++ {
				bg, err := stitchBoundary(n, sums)
				if err != nil {
					b.Fatal(err)
				}
				resident = bg.residentBytes() + newFinisher(bg.ncomp()).residentBytes()
			}
			b.ReportMetric(float64(resident), "resident-B")
		})
	}
}
