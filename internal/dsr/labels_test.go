package dsr

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/obs"
	"dsr/internal/partition/locality"
)

// withLabelSeam sets one of the label-build seams for the rest of the
// test: engines made meanwhile hold their labels back, or await them.
func withLabelSeam(t testing.TB, seam *bool) {
	*seam = true
	t.Cleanup(func() { *seam = false })
}

// dagReach is the reference the labels are checked against: the
// components one BFS of the component DAG from a reaches, a included.
func dagReach(bg *boundaryGraph, a int32) []bool {
	seen := make([]bool, bg.ncomp())
	seen[a] = true
	for queue := []int32{a}; len(queue) > 0; queue = queue[1:] {
		c := queue[0]
		for _, d := range bg.succ[bg.off[c]:bg.off[c+1]] {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
	return seen
}

// labelShapes are boundaryShapes plus the corner cases of a cover: no
// vertex at all, one component (a vertex with a self-loop), every edge
// several times over, and long chains — the cover's worst case here.
func labelShapes(rng *rand.Rand) []boundaryShape {
	shapes := boundaryShapes(rng)
	dag := shapes[2]
	multi := boundaryShape{name: "multi-edge", nb: dag.nb, edges: slices.Concat(dag.edges, dag.edges, dag.edges[:len(dag.edges)/2])}
	shapes = append(shapes, multi,
		boundaryShape{name: "no-vertex"},
		boundaryShape{name: "one-component", nb: 1, edges: [][2]int32{{0, 0}}},
	)
	for _, s := range seamShapes(8) {
		if strings.HasPrefix(s.name, "chain") || s.name == "hourglass-top" {
			shapes = append(shapes, s)
		}
	}
	return shapes
}

// TestLabelsExact holds the cover to the DAG: for every ordered pair of
// components a ⇝ b exactly when a's out-label and b's in-label share a
// hub — found here by merging the two sorted rows, not by the finish's
// stamps — and every component is a hub in both its labels.
func TestLabelsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	for _, shape := range labelShapes(rng) {
		_, bg := shape.stitched(t)
		l, entries := buildLabels(bg, -1, nil)
		if l == nil || entries != l.entries() {
			t.Fatalf("%s: unbounded build returned %v after %d entries", shape.name, l, entries)
		}
		nc := int32(bg.ncomp())
		if len(l.outOff) != int(nc)+1 || len(l.inOff) != int(nc)+1 {
			t.Fatalf("%s: label offsets for %d and %d components, want %d", shape.name, len(l.outOff)-1, len(l.inOff)-1, nc)
		}
		out := func(c int32) []int32 { return l.outHub[l.outOff[c]:l.outOff[c+1]] }
		in := func(c int32) []int32 { return l.inHub[l.inOff[c]:l.inOff[c+1]] }
		for c := int32(0); c < nc; c++ {
			for _, row := range [][]int32{out(c), in(c)} {
				if !slices.IsSorted(row) || len(slices.Compact(slices.Clone(row))) != len(row) {
					t.Fatalf("%s: component %d has a label %v not strictly increasing", shape.name, c, row)
				}
			}
			both := 0
			for _, r := range out(c) {
				if _, ok := slices.BinarySearch(in(c), r); ok {
					both++
				}
			}
			if both != 1 {
				t.Fatalf("%s: component %d's labels share %d hubs, want exactly its own", shape.name, c, both)
			}
		}
		for a := int32(0); a < nc; a++ {
			reach := dagReach(bg, a)
			for b := int32(0); b < nc; b++ {
				want := reach[b]
				got := false
				for i, j, oa, ib := 0, 0, out(a), in(b); i < len(oa) && j < len(ib); {
					switch {
					case oa[i] < ib[j]:
						i++
					case oa[i] > ib[j]:
						j++
					default:
						got, i = true, len(oa)
					}
				}
				if got != want {
					t.Fatalf("%s: labels say %d ⇝ %d is %v, the DAG %v (out %v, in %v)", shape.name, a, b, got, want, out(a), in(b))
				}
			}
		}
	}
}

// bipartiteShape is every one of `side` sources joined to every one of
// `side` sinks: no hub between them, so any 2-hop cover holds about
// side² entries — side/2 per component, past labelCap for side > 64.
func bipartiteShape(side int) boundaryShape {
	s := boundaryShape{name: "bipartite", nb: 2 * side}
	for a := 0; a < side; a++ {
		for b := side; b < 2*side; b++ {
			s.edges = append(s.edges, [2]int32{int32(a), int32(b)})
		}
	}
	return s
}

// TestLabelCapLeavesSweep plants a DAG whose cover passes labelCap: the
// engine's build gives up, says so in its log, installs nothing, and the
// sweep keeps answering right.
func TestLabelCapLeavesSweep(t *testing.T) {
	shape := bipartiteShape(120)
	g, bg := shape.stitched(t)
	if l, entries := buildLabels(bg, labelCap*bg.ncomp(), nil); l != nil || entries <= labelCap*bg.ncomp() {
		t.Fatalf("capped build returned %v after %d entries, want nil past %d", l, entries, labelCap*bg.ncomp())
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	e := newEngine(3*shape.nb+1, 2, bg, nil, Options{Metrics: reg, Log: obs.NewLogger(&buf, obs.LevelInfo)})
	resident := e.ResidentBytes()
	e.startLabels()
	<-e.labelsDone
	if !strings.Contains(buf.String(), "boundary labels abandoned") {
		t.Errorf("no abandon line in the log:\n%s", buf.String())
	}
	if e.r.fin.lab != nil || e.bg.succ == nil || e.ResidentBytes() != resident || reg.Snapshot().Gauges["dsr_boundary_label_entries"] != 0 {
		t.Fatalf("an abandoned build changed the engine: labels %v, DAG kept %v, resident %d -> %d",
			e.r.fin.lab, e.bg.succ != nil, resident, e.ResidentBytes())
	}
	round := make([]roundQuery, 70)
	for i := range round {
		round[i] = roundQuery{seeds: []int32{int32(i % 120), int32(120 + i)}, goals: []int32{int32(120 + (i*7)%120)}}
	}
	if popped := checkRound(t, shape.name, g, bg, e.r.fin, round); popped == 0 {
		t.Fatal("the sweep popped nothing: it did not answer the round")
	}
}

// TestCloseStopsLabelBuild closes an engine while its labels are being
// built in the background: Close returns with the builder gone and
// nothing installed, as it would from a build minutes long.
func TestCloseStopsLabelBuild(t *testing.T) {
	g, _ := benchGraph()
	e, err := Build(g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.bg.ncomp()+len(e.bg.succ) <= labelInline {
		t.Fatalf("the DAG (%d components) is labelled inline, not in the background", e.bg.ncomp())
	}
	start := time.Now()
	e.Close()
	took := time.Since(start)
	select {
	case <-e.labelsDone:
	default:
		t.Fatal("Close returned before the label build stopped")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.r.fin.lab != nil {
		t.Fatalf("labels installed after Close (Close took %v): the build ran to its end", took)
	}
}

// TestLabelsInstallDuringRounds queries an engine from two goroutines
// while its labels are built in the background and installed between
// two rounds: every answer matches the oracle, whichever finish gave it,
// and the labels end up installed.
func TestLabelsInstallDuringRounds(t *testing.T) {
	g, n := benchGraph()
	e, err := Build(g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for after := 0; after < 3; {
				select {
				case <-e.labelsDone:
					after++
				default:
				}
				queries := make([]Query, 16)
				for i := range queries {
					queries[i] = Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)}
				}
				got, err := e.QueryBatchErr(queries)
				if err != nil {
					t.Error(err)
					return
				}
				for i, q := range queries {
					if want := NaiveReach(g, q.S, q.T); got[i] != want {
						t.Errorf("query %d: got %v, oracle %v", i, got[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.r.fin.lab == nil {
		t.Fatal("no labels installed once the build was done")
	}
}

// TestLabelsAnswerFinish checks the install: an engine that awaits its
// labels answers every round from them — no component popped — with the
// sweep's state and the DAG released, the gauge and ResidentBytes
// telling the new footprint, and the connect log the build's line.
func TestLabelsAnswerFinish(t *testing.T) {
	withLabelSeam(t, &labelsAwaited)
	rng := rand.New(rand.NewSource(20261021))
	const n = 2000
	g := gen.Community(rng, n, 4, 1.6, 0.1, 0.02)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	e, err := Build(g, Options{K: 3, Partitioner: locality.New(locality.Options{Seed: 2}), Metrics: reg, Log: obs.NewLogger(&buf, obs.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	l := e.r.fin.lab
	if l == nil {
		t.Fatal("no labels installed")
	}
	if e.bg.succ != nil || e.bg.pred != nil || e.r.fin.fwd.mask != nil || e.r.fin.bwd.active != nil {
		t.Error("the sweep's scratch or the DAG outlived the install")
	}
	if want := 4*(e.NumBoundary()+len(e.r.fin.stamp)) + l.residentBytes(); e.ResidentBytes() != want {
		t.Errorf("ResidentBytes = %d, want compOf + stamps + labels = %d", e.ResidentBytes(), want)
	}
	snap := reg.Snapshot()
	if snap.Gauges["dsr_boundary_label_entries"] != int64(l.entries()) || snap.Gauges["dsr_resident_bytes"] != int64(e.ResidentBytes()) {
		t.Errorf("gauges label entries %d, resident %d; want %d and %d", snap.Gauges["dsr_boundary_label_entries"],
			snap.Gauges["dsr_resident_bytes"], l.entries(), e.ResidentBytes())
	}
	if !strings.Contains(buf.String(), "boundary labels installed") {
		t.Errorf("no install line in the log:\n%s", buf.String())
	}
	for round := 0; round < 5; round++ {
		queries := make([]Query, 100)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 8), T: randomSet(rng, n, 8)}
		}
		for i, got := range e.QueryBatch(queries) {
			if want := NaiveReach(g, queries[i].S, queries[i].T); got != want {
				t.Fatalf("round %d query %d: got %v, oracle %v", round, i, got, want)
			}
		}
	}
	if h := reg.Snapshot().Histograms["dsr_finish_sweep_components"]; h.Count != 5 || h.Sum != 0 {
		t.Errorf("dsr_finish_sweep_components: %d observations summing to %d, want 5 and 0", h.Count, h.Sum)
	}
}

// TestFinishModes runs the engine-level differential tests with the
// labels held back, so the sweep answers every round, and with them
// awaited, so the labels answer every one.
func TestFinishModes(t *testing.T) {
	for _, mode := range []struct {
		name string
		seam *bool
	}{{"sweep", &labelsHeld}, {"labels", &labelsAwaited}} {
		for name, test := range map[string]func(*testing.T){
			"FinishAgainstOracle":     TestFinishAgainstOracle,
			"FleetMatrixDifferential": TestFleetMatrixDifferential,
		} {
			t.Run(mode.name+"/"+name, func(t *testing.T) {
				withLabelSeam(t, mode.seam)
				test(t)
			})
		}
	}
}

// BenchmarkBoundaryLabels times the label build alone on the DAGs the
// finish benchmarks read, and reports the cover's size: entries over
// both directions, per component, and the CSRs' bytes.
func BenchmarkBoundaryLabels(b *testing.B) {
	small, _ := benchGraph()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		strat graph.Partitioner
	}{
		{"hash", small, graph.Hash()},
		{"locality", small, locality.New(locality.Options{Seed: 1})},
		{"hash200k", fullBenchGraph(), graph.Hash()},
	} {
		e := sweepEngine(b, c.g, c.strat)
		b.Run(c.name, func(b *testing.B) {
			var l *hubLabels
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, _ = buildLabels(e.bg, -1, nil)
			}
			b.ReportMetric(float64(l.entries()), "entries")
			b.ReportMetric(float64(l.entries())/float64(e.bg.ncomp()), "entries/component")
			b.ReportMetric(float64(l.residentBytes()), "label-B")
		})
		e.Close()
	}
}
