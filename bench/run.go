package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dsr/bench/workload"
	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
)

// workloadSpec is one traffic mix. The names are the contract later
// issues refer to; the reasons are in README.md and BENCHMARK.json.
type workloadSpec struct {
	Name  string
	Fleet string
	Shape string // closed, open, zipf
}

var workloads = []workloadSpec{
	{"loc-closed", "loc", "closed"},
	{"hash-closed", "hash", "closed"},
	{"loc-open", "loc", "open"},
	{"loc-zipf", "loc", "zipf"},
}

// workloadIndex returns the workload's position in workloads, -1 if
// there is none of that name.
func workloadIndex(name string) int {
	return slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.Name == name })
}

// graphSeed fixes the graph: it is a constant of the benchmark, like
// its size, and --seed varies everything else (queries, arrival times,
// the verification sample). Two properties of this graph family swing
// 3-10x from one random instance to the next — the boundary the
// locality partitioner finds (12.7k to 101k of 200k vertices over seeds
// 1-12) and the share of reachable queries (0.12 to 0.39; at 1% back
// edges the family sits on the giant-SCC threshold) — and either swing
// would bury every metric. Instance 4 is one where the partitioner
// recovers the communities (boundary 12,700, the small-boundary regime
// the loc fleet stands for) and 39% of queries are reachable.
const graphSeed = 4

const (
	// An end-to-end run boots the fleet cold `boots` times. Each boot is
	// a set-up sample (setup_s is their median), and each booted fleet
	// carries a third of the measured window, after its own warm-up:
	// throughput differs by a few percent from one set of processes to
	// the next, and pooling segments over three sets takes that out.
	boots    = 3
	warmup   = time.Second
	segments = 4 // per gated phase and fleet

	zipfS     = 1.1
	zipfPool  = 16384 // 4× the 4,096-entry result cache
	gatedStep = 1     // the open-loop step whose latency is reported
	p99Limit  = 20.0  // ms: a step "holds" while its p99 stays under this

	closedStride = 64 // closed loops keep 1 answer in 64 for the oracle
	openStride   = 16
	zipfStride   = 8
)

// The open loop's offered rates. Each step runs for the share of the
// measured window given here; the middle step is the gated one and
// gets half of it.
var (
	openRates  = []float64{1000, 2000, 3000}
	openShares = []float64{0.25, 0.5, 0.25}
)

// plan turns a workload shape into a timeline, per-connection sources
// and (open loop) arrival schedules. turn numbers the load runs of one
// invocation, so that each draws fresh streams.
func plan(wl workloadSpec, seed uint64, turn, n int, measure, warm time.Duration) loadSpec {
	ls := loadSpec{seed: seed, sources: make([]workload.Source, numConns)}
	stream := func(c int) int { return turn*numConns + c }
	closedLoop := newTimeline([]phase{{Name: "warm-up", Len: warm, Segs: 1}, {Name: "closed 2x32", Len: measure, Segs: segments}})
	switch wl.Shape {
	case "closed":
		ls.stride, ls.tl = closedStride, closedLoop
		for c := range ls.sources {
			ls.sources[c] = workload.NewSampler(seed, stream(c), n)
		}
	case "zipf":
		ls.stride, ls.tl, ls.poolSize = zipfStride, closedLoop, zipfPool
		pool := workload.NewPool(seed, zipfPool, n)
		for c := range ls.sources {
			ls.sources[c] = pool.Zipf(seed, stream(c), zipfS)
		}
	case "open":
		ls.stride = openStride
		phases := []phase{{Name: "warm-up", Len: warm, Segs: 1, Rate: openRates[0]}}
		steps := []workload.Step{{Rate: openRates[0], Len: warm}}
		for i, rate := range openRates {
			segs := 1
			if i == gatedStep {
				segs = segments
			}
			l := time.Duration(float64(measure) * openShares[i])
			phases = append(phases, phase{Name: fmt.Sprintf("open %.0f/s", rate), Len: l, Segs: segs, Rate: rate})
			steps = append(steps, workload.Step{Rate: rate, Len: l})
		}
		ls.tl = newTimeline(phases)
		ls.arrivals = make([][]time.Duration, numConns)
		for c := range ls.sources {
			ls.sources[c] = workload.NewSampler(seed, stream(c), n)
			ls.arrivals[c], _ = workload.Arrivals(seed, stream(c), numConns, steps)
		}
	}
	return ls
}

// gated returns the index of the phase whose numbers are the
// workload's end-to-end metrics (phase 0 is always warm-up).
func gated(wl workloadSpec) int {
	if wl.Shape == "open" {
		return 1 + gatedStep
	}
	return 1
}

// loadOutcome is a load run reduced to what the reports need.
type loadOutcome struct {
	phases       []phaseStats
	attempted    int
	failed       int
	inconsistent int
	samples      []sample
	lateP50      float64
	lateP99      float64
	queries      []span
}

// add folds another load run's outcome into out; phases are pooled by
// the caller.
func (out *loadOutcome) add(o loadOutcome) {
	out.attempted += o.attempted
	out.failed += o.failed
	out.inconsistent += o.inconsistent
	out.samples = append(out.samples, o.samples...)
	out.lateP50, out.lateP99 = max(out.lateP50, o.lateP50), max(out.lateP99, o.lateP99)
}

func drive(ls loadSpec) (loadOutcome, error) {
	results, err := runLoad(ls)
	if err != nil {
		return loadOutcome{}, err
	}
	var out loadOutcome
	recs := make([]*recorder, len(results))
	var late []float64
	merged := make([]int8, ls.poolSize)
	for c, r := range results {
		recs[c] = r.rec
		out.attempted += r.attempted
		out.failed += r.failed
		out.inconsistent += r.inconsistent
		out.samples = append(out.samples, r.samples...)
		out.queries = append(out.queries, r.spans...)
		late = append(late, r.late...)
		// The two connections must also agree with each other.
		for id, a := range r.first {
			switch {
			case a == 0:
			case merged[id] == 0:
				merged[id] = a
			case merged[id] != a:
				out.inconsistent++
			}
		}
	}
	out.phases = summarize(ls.tl, recs)
	if len(late) > 0 {
		slices.Sort(late)
		out.lateP50, out.lateP99 = percentile(late, 0.5), percentile(late, 0.99)
	}
	return out, nil
}

// verify checks the kept answers against a whole-graph BFS and returns
// the share of them that are true. Any wrong answer fails the run.
func verify(g *graph.Graph, samples []sample, inconsistent int) (float64, error) {
	if inconsistent > 0 {
		return 0, fmt.Errorf("%d repeated queries were answered differently from their first answer", inconsistent)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("no answers were sampled for verification")
	}
	oracle := make([]bool, len(samples))
	for i, s := range samples {
		oracle[i] = dsr.NaiveReach(g, s.Q.S, s.Q.T)
		if oracle[i] != s.Ans {
			return 0, fmt.Errorf("wrong answer: query S=%v T=%v answered %v, oracle says %v", s.Q.S, s.Q.T, s.Ans, oracle[i])
		}
	}
	share := workload.TrueShare(oracle)
	if share < 0.2 || share > 0.8 {
		return share, fmt.Errorf("true_share %.3f outside [0.2, 0.8]: the workload no longer exercises both answers", share)
	}
	return share, nil
}

// makeProbe picks a fixed query and asks the oracle.
func makeProbe(g *graph.Graph, seed uint64) probe {
	q := workload.NewSampler(seed, 1<<20, g.NumVertices()).Next()
	return probe{S: q.S, T: q.T, Want: dsr.NaiveReach(g, q.S, q.T)}
}

// serveDiag pulls the serving layer's own counters out of a registry
// snapshot.
func serveDiag(snap obs.Snapshot) (hitRatio, batchMean float64, shed uint64) {
	hits, misses := snap.Counters["dsr_cache_hits_total"], snap.Counters["dsr_cache_misses_total"]
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	batchMean = snap.Histograms["dsr_serve_batch_size"].Mean
	shed = snap.Counters[obs.Name("dsr_serve_shed_total", "scope", "server")] + snap.Counters[obs.Name("dsr_serve_shed_total", "scope", "client")]
	return
}

// openDiag summarises an open loop's steps: which held, and the highest
// offered rate that did. A step holds when its p99 is within the limit
// and its completions kept up with its arrivals (no growing backlog).
func openDiag(tl *timeline, phases []phaseStats) (steps []map[string]any, maxRateOK float64) {
	for i, st := range phases[1:] {
		offered := st.Offered * tl.phases[i+1].Len.Seconds() * boots
		ok := st.P99 <= p99Limit && float64(st.Samples) >= 0.97*offered
		if ok {
			maxRateOK = max(maxRateOK, st.Offered)
		}
		steps = append(steps, map[string]any{"offered_qps": st.Offered, "qps": st.QPS, "p50_ms": st.P50, "p99_ms": st.P99,
			"samples": st.Samples, "holds": ok})
	}
	return steps, maxRateOK
}

// runEndToEnd is the --trace 0 run: real processes, tracing off.
func runEndToEnd(cfg config, sb *sandbox, wl workloadSpec, rec *record) error {
	spec := fleets[wl.Fleet]
	t0 := time.Now()
	g := workload.Default.Graph(graphSeed)
	graphPath := filepath.Join(sb.dir, "graph.txt")
	if err := writeGraph(graphPath, g); err != nil {
		return err
	}
	pr := makeProbe(g, cfg.seed)
	logf("%s seed %d: graph %d vertices %d edges, generated and written in %.2fs", wl.Name, cfg.seed, g.NumVertices(), g.NumEdges(), time.Since(t0).Seconds())

	var out loadOutcome
	var runs [][]phaseStats
	var f *procFleet
	var snap obs.Snapshot
	var tl *timeline
	setups := make([]float64, boots)
	for i := range setups {
		var d time.Duration
		var err error
		if f, d, err = bootProcs(sb, cfg.binDir, spec, graphPath, pr); err != nil {
			return err
		}
		setups[i] = d.Seconds()
		ls := plan(wl, cfg.seed, i, g.NumVertices(), time.Duration(cfg.seconds)*time.Second/boots, warmup)
		ls.addr, tl = f.Addr(), ls.tl
		o, err := drive(ls)
		if err != nil {
			return err
		}
		if err := f.alive(); err != nil {
			return err
		}
		if snap, err = f.Metrics(); err != nil {
			return fmt.Errorf("scrape dsr-serve /metrics: %w", err)
		}
		if err := f.stop(); err != nil {
			return err
		}
		out.add(o)
		runs = append(runs, o.phases)
	}
	out.phases = pool(runs)
	logf("%s: %d cold boots of %dx%d %s: %.3v s", wl.Name, boots, spec.K, spec.R, spec.Partitioner, setups)
	share, err := verify(g, out.samples, out.inconsistent)
	if err != nil {
		return err
	}

	gp := out.phases[gated(wl)]
	rec.Correct, rec.Attempted, rec.Failed = true, out.attempted, out.failed
	rec.Metrics.set("qps", "1/s", gp.QPS)
	rec.Metrics.set("p50_ms", "ms", gp.P50)
	rec.Metrics.set("setup_s", "s", median(setups))

	hit, batch, shed := serveDiag(snap)
	rec.Diag["graph"] = workload.Default
	rec.Diag["fleet"] = spec
	rec.Diag["serve_args"] = f.serveArgs
	rec.Diag["setup_boots_s"] = setups
	rec.Diag["phases"] = out.phases
	// p99 is printed, not gated: on a shared machine the open loop's
	// tail did not repeat within any admissible bound (README).
	rec.Diag["p99_ms"] = gp.P99
	rec.Diag["fail_share"] = float64(out.failed) / float64(out.attempted)
	rec.Diag["verified"] = len(out.samples)
	rec.Diag["true_share"] = share
	rec.Diag["serve.cache_hit_ratio"] = hit
	rec.Diag["serve.batch_size_mean"] = batch
	rec.Diag["serve.shed_total"] = shed
	rec.Diag["dsr.boundary_vertices"] = snap.Gauges["dsr_boundary_vertices"]
	if wl.Shape == "open" {
		steps, maxOK := openDiag(tl, out.phases)
		rec.Diag["open_steps"] = steps
		rec.Diag["max_rate_ok"] = maxOK
		rec.Diag["generator_late_p50_ms"] = out.lateP50
		rec.Diag["generator_late_p99_ms"] = out.lateP99
	}
	logf("%s: qps %.0f  p50 %.3f ms  p99 %.3f ms  (%d samples in %d segments)  setup %.3f s  failed %d/%d  verified %d (true share %.2f)  cache hit ratio %.3f  batch mean %.1f",
		wl.Name, gp.QPS, gp.P50, gp.P99, gp.Samples, len(gp.SegQPS), median(setups), out.failed, out.attempted, len(out.samples), share, hit, batch)
	return nil
}

// tracedParams sizes a traced run; the smoke test shrinks them.
type tracedParams struct {
	graph  workload.GraphSpec
	fleet  fleetSpec
	window time.Duration // split: 1/4 untraced, 1/2 traced, 1/4 stub
	warm   time.Duration // before each of the three
}

// runTraced is the --trace 1 run: the same deployment inside this
// process, measured once untraced and once traced, then the isolated
// layer timings.
func runTraced(cfg config, sb *sandbox, wl workloadSpec, rec *record) error {
	return tracedRun(cfg, sb, wl, rec, tracedParams{
		graph: workload.Default, fleet: fleets[wl.Fleet],
		window: time.Duration(cfg.seconds) * time.Second, warm: warmup,
	})
}

func tracedRun(cfg config, sb *sandbox, wl workloadSpec, rec *record, tp tracedParams) error {
	spec := tp.fleet
	g := tp.graph.Graph(graphSeed)
	graphPath := filepath.Join(sb.dir, "graph.txt")
	if err := writeGraph(graphPath, g); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	tr := newTracer(spec.K)
	f, err := bootLocal(ctx, g, spec, tr)
	if err != nil {
		return err
	}
	defer f.stop()

	base := plan(wl, cfg.seed, 0, g.NumVertices(), tp.window/4, tp.warm)
	base.addr = f.Addr()
	untraced, err := drive(base)
	if err != nil {
		return err
	}
	ls := plan(wl, cfg.seed, 1, g.NumVertices(), tp.window/2, tp.warm)
	ls.addr = f.Addr()
	ls.tr = tr
	traced, err := drive(ls)
	if err != nil {
		return err
	}
	snap, _ := f.Metrics()
	share, err := verify(g, append(untraced.samples, traced.samples...), untraced.inconsistent+traced.inconsistent)
	if err != nil {
		return err
	}

	report, rounds := tr.analyze(traced.queries)
	report.printStageTable(os.Stderr, wl.Name)
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, traced.queries, rounds); err != nil {
			return err
		}
	}
	m := rec.Metrics
	gpU, gpT := untraced.phases[gated(wl)], traced.phases[gated(wl)]
	m.set("trace.qps", "1/s", gpT.QPS)
	m.set("trace.overhead_share", "ratio", 1-gpT.QPS/gpU.QPS)
	m.set("serve.self_ms", "ms", report.ServeSelfMS)
	m.set("dsr.self_ms", "ms", report.DSRSelfMS)
	m.set("shard.rpc_ms", "ms", report.RPCMS)
	m.set("shard.net_ms", "ms", report.NetMS)
	hit, batch, shed := serveDiag(snap)
	m.set("serve.cache_hit_ratio", "ratio", hit)
	m.set("serve.batch_size_mean", "q/batch", batch)
	m.set("serve.shed_total", "count", float64(shed))

	// The serving layer's ceiling: the same load shape against a
	// serve.Server whose engine answers instantly.
	stub, err := startFront(stubQuerier{}, obs.NewRegistry())
	if err != nil {
		return err
	}
	sl := plan(wl, cfg.seed, 2, g.NumVertices(), tp.window/4, tp.warm)
	sl.addr = stub.Addr()
	stubbed, err := drive(sl)
	stub.stop()
	if err != nil {
		return err
	}
	m.set("serve.stub_qps", "1/s", stubbed.phases[gated(wl)].QPS)

	// Load is over: the fleet's shards are idle and can be replayed on.
	batches := tr.batches()
	if len(batches) == 0 {
		return fmt.Errorf("traced run captured no complete batch")
	}
	blocking := replayLayers(m, batches, f.firstReplicas())
	m.set("trace.accounted_share", "ratio", ms(blocking)/report.RoundMS)
	cacheLayers(m, cfg.seed, g.NumVertices())
	if err := setupLayers(m, g, graphPath, f); err != nil {
		return err
	}

	rec.Correct, rec.Attempted, rec.Failed = true, untraced.attempted+traced.attempted, untraced.failed+traced.failed
	rec.Diag["graph"] = tp.graph
	rec.Diag["fleet"] = spec
	rec.Diag["true_share"] = share
	rec.Diag["trace"] = report
	rec.Diag["untraced_qps"] = gpU.QPS
	rec.Diag["captured_batches"] = len(batches)
	logf("%s traced: qps %.0f traced vs %.0f untraced (tracing overhead %.1f%%); isolated blocking path %.3f ms of a %.3f ms round (accounted share %.2f)",
		wl.Name, gpT.QPS, gpU.QPS, 100*(1-gpT.QPS/gpU.QPS), ms(blocking), report.RoundMS, ms(blocking)/report.RoundMS)
	return nil
}

// runSmoke runs every workload shape for a second against a small
// in-process fleet: untraced, traced, stub, replay and layer timings,
// with every answer sample verified. It exercises the whole harness
// except process management, in a few seconds.
func runSmoke(cfg config, sb *sandbox) error {
	for _, wl := range workloads {
		spec := fleets[wl.Fleet]
		spec.K = 2
		rec := record{Workload: wl.Name, Diag: map[string]any{}}
		rec.Metrics = metrics{}
		err := tracedRun(cfg, sb, wl, &rec, tracedParams{
			graph:  workload.GraphSpec{N: 2000, Communities: 4, IntraDeg: 2.5, UniformDeg: 0.05, BackShare: 0.01},
			fleet:  spec,
			window: 2 * time.Second, warm: 100 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("smoke %s: %w", wl.Name, err)
		}
		if rec.Failed > 0 {
			return fmt.Errorf("smoke %s: %d of %d queries failed", wl.Name, rec.Failed, rec.Attempted)
		}
	}
	logf("smoke: ok")
	return nil
}
