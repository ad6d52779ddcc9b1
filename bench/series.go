package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"dsr/internal/obs"
)

// series is a set of runs of one commit on one machine: the unit the
// repeatability check and parent-vs-change comparisons work on.
// results/BENCH_e2e.json is the first one.
type series struct {
	Env  seriesEnv `json:"env"`
	Runs []record  `json:"runs"`
}

type seriesEnv struct {
	NProc    int    `json:"nproc"`
	Go       string `json:"go"`
	Commit   string `json:"commit"`
	Modified bool   `json:"modified,omitempty"`
	Date     string `json:"date"`
}

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var sp benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(b, &sp)
}

// runSeries runs the workload (or all of them) at n consecutive seeds,
// end to end, plus one traced run per workload at the first seed, and
// writes the series to out.
func runSeries(cfg config, sb *sandbox, n int, out, specPath string) error {
	if out == "" {
		return fmt.Errorf("-repeat needs -out")
	}
	var names []string
	for _, wl := range workloads {
		if cfg.workload == "" || cfg.workload == wl.Name {
			names = append(names, wl.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	bi := obs.Build()
	se := series{Env: seriesEnv{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: bi.Revision, Modified: bi.Modified,
		Date: time.Now().UTC().Format(time.RFC3339)}}
	for i := 0; i < n; i++ {
		for _, name := range names {
			c := cfg
			c.workload, c.seed, c.trace = name, cfg.seed+uint64(i), 0
			rec, err := runOne(c, sb)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, c.seed, err)
			}
			se.Runs = append(se.Runs, rec)
		}
	}
	for _, name := range names {
		c := cfg
		c.workload, c.trace = name, 1
		rec, err := runOne(c, sb)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		se.Runs = append(se.Runs, rec)
	}
	if err := writeJSON(out, se); err != nil {
		return err
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	printSpreads(os.Stderr, sp, se)
	return nil
}

// cell is the runs of one (workload, metric) pair within a series.
type cell struct {
	values []float64
	unit   string
	bySeed map[uint64]float64
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method),
// which is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	vs := slices.Clone(values)
	slices.Sort(vs)
	n := len(vs)
	if n < 2 {
		return math.NaN(), median(vs), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (vs[j-1]*float64(4-delta) + vs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}

// cells groups a series' runs of the given trace mode.
func (se series) cells(trace int) map[[2]string]*cell {
	out := make(map[[2]string]*cell)
	for _, r := range se.Runs {
		if r.Trace != trace {
			continue
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			c := out[k]
			if c == nil {
				c = &cell{unit: m.Unit, bySeed: make(map[uint64]float64)}
				out[k] = c
			}
			c.values = append(c.values, m.Value)
			c.bySeed[r.Seed] = m.Value
		}
	}
	return out
}

func sortedKeys(m map[[2]string]*cell) [][2]string {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return workloadIndex(keys[i][0]) < workloadIndex(keys[j][0])
	})
	return keys
}

// printSpreads shows, for each end-to-end metric and workload of one
// series, the median and the spread against the metric's bound.
func printSpreads(w io.Writer, sp benchSpec, se series) {
	bounds := make(map[string]float64)
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	cells := se.cells(0)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\truns\tmedian\tunit\tspread\tbound\tspread/bound")
	for _, k := range sortedKeys(cells) {
		c := cells[k]
		_, q2, _ := quartiles(c.values)
		s := spread(c.values)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%s\t%.4f\t%.2f\t%.2f\n", k[1], k[0], len(c.values), q2, c.unit, s, bounds[k[1]], s/bounds[k[1]])
	}
	tw.Flush()
}

// compareSeries prints one row per (metric, workload): b's median
// against a's under the metric's bound. "worse" means b is worse than a
// by more than the bound; "unresolved" means either side's own spread
// is wider than the bound, so the comparison says nothing. Per-layer
// metrics with unit count must match exactly at equal seeds. Returns
// the exit code: 1 when any row is worse or any count differs.
func compareSeries(w io.Writer, specPath, pathA, pathB string) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsr-bench: %v\n", err)
		return 2
	}
	var a, b series
	for _, x := range []struct {
		path string
		into *series
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err == nil {
			err = json.Unmarshal(raw, x.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsr-bench: %s: %v\n", x.path, err)
			return 2
		}
	}
	code := 0
	ca, cb := a.cells(0), b.cells(0)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\ta median\tb median\tchange\tbound\ta spread\tb spread\tverdict")
	for _, m := range sp.EndToEnd {
		for _, wl := range workloads {
			k := [2]string{wl.Name, m.Name}
			if ca[k] == nil || cb[k] == nil {
				continue
			}
			_, ma, _ := quartiles(ca[k].values)
			_, mb, _ := quartiles(cb[k].values)
			// change > 0 means b is worse.
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			sa, sb := spread(ca[k].values), spread(cb[k].values)
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				code = 1
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				m.Name, wl.Name, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	tw.Flush()

	ta, tb := a.cells(1), b.cells(1)
	counts, differ := 0, 0
	for _, k := range sortedKeys(ta) {
		if ta[k].unit != "count" || tb[k] == nil {
			continue
		}
		for seed, va := range ta[k].bySeed {
			if vb, ok := tb[k].bySeed[seed]; ok {
				counts++
				if va != vb {
					differ++
					fmt.Fprintf(w, "count differs: %s on %s seed %d: %v vs %v\n", k[1], k[0], seed, va, vb)
				}
			}
		}
	}
	fmt.Fprintf(w, "count metrics: %d compared at equal seeds, %d differ\n", counts, differ)
	if differ > 0 {
		code = 1
	}
	return code
}
