// Command ab runs the repository's benchmark on a parent commit and on
// the working tree in alternating pairs, and prints what the pairs
// show under the bounds of BENCHMARK.json — the evidence a change that
// claims (or disclaims) a performance effect has to bring:
//
//	make ab PARENT=HEAD~1 WORKLOADS="loc-open hash-closed" PAIRS=10 SECONDS=15
//
// The parent is exported with `git archive` into
// .bench_build/ab/<commit>/ (nothing is registered in .git, and nothing
// is written outside .bench_build/); each side is built and run by its
// own bench/run.sh, so each side is measured by its own harness. Pair i
// runs both sides of each workload at one fresh seed, seed+i; which
// side runs first is drawn per (pair, workload) from a generator seeded
// by -seed, so a run's position (say, right after the other side's run
// of a heavier workload) cannot line up with one side. Runs are a
// second of idle apart. Every run's result line, with the side that ran
// first in its pair, is appended to .bench_build/ab/runs.jsonl as it
// arrives.
//
// Per (workload, end-to-end metric) the report gives both sides' median
// and quartiles, the median and quartiles of the per-pair ratio (change
// over parent, pair by pair — the paired statistic, which does not hang
// on a single pair's order the way the win count does), the pairs the
// change won (ties count for neither), and a verdict: "unresolved" when the parent's own interquartile range is
// wider than the metric's bound, "worse" when the change's median is
// worse than the parent's by more than the bound, "better" when the
// change won at least nine pairs in ten and the medians differ by more
// than the parent's interquartile range, "same" otherwise. Failed
// operations are summed per side. Exit status 1 on any "worse", any
// incorrect run, or a larger failed share on the change side.
//
// With -bench the pairs run Go microbenchmarks instead of the
// workloads, which side runs first drawn per pair the same way:
//
//	make ab PARENT=HEAD~1 BENCH=BoundaryFinish PKG=./internal/dsr PAIRS=10 BENCH_TIME=300x
//
// Each side's test binary for the package is built once (under
// .bench_build/ab/, with the build cache bench/run.sh uses) and run
// from its own package directory; every benchmark row both sides print
// is a line of the same table, on ns/op, lower is better. No bound is
// declared for a microbenchmark, so a row is "better" or "same" and is
// only reported: it never fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// defaultSeed is -seed's default: the first pair's seed and the seed of
// the run-order draw.
const defaultSeed = 101

// idle is the pause before each run, so one run's tail (a shard still
// exiting, a page cache still writing back) does not land in the next.
const idle = time.Second

// spec is the part of BENCHMARK.json the report needs.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
}

// side is one checkout and what its runs returned, per workload (or
// benchmark row) in pair order.
type side struct {
	name    string
	root    string
	testBin string // -bench only: the side's compiled test binary
	runs    map[string][]result
}

func main() {
	parent := flag.String("parent", "HEAD", "commit the working tree is compared against")
	workloads := flag.String("workloads", "", "space-separated workloads; empty means every workload of BENCHMARK.json")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seconds := flag.Int("seconds", 15, "measured window of each run (BENCHMARK.json's run_seconds is what the gate uses)")
	seed := flag.Uint64("seed", defaultSeed, "pair i runs both sides at seed+i; also seeds which side runs first")
	bench := flag.String("bench", "", "run the Go benchmarks matching this regexp, in -pkg, instead of the workloads")
	pkg := flag.String("pkg", "./internal/dsr", "package whose benchmarks -bench names")
	benchtime := flag.String("benchtime", "100x", "-test.benchtime of each -bench run")
	flag.Parse()
	var err error
	if *bench != "" {
		err = runBench(*parent, *pkg, *bench, *benchtime, *pairs, *seed)
	} else {
		err = run(*parent, strings.Fields(*workloads), *pairs, *seconds, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// checkouts exports the parent and returns both sides, parent first,
// and the directory the pairs' by-products go under.
func checkouts(parent string) (sides []*side, abDir string, err error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	abDir = filepath.Join(root, ".bench_build", "ab")
	parentRoot, err := export(root, abDir, parent)
	if err != nil {
		return nil, "", err
	}
	return []*side{
		{name: "parent", root: parentRoot, runs: make(map[string][]result)},
		{name: "change", root: root, runs: make(map[string][]result)},
	}, abDir, nil
}

// changeFirst draws, from seed, whether the change runs first in each
// pair (outer) for each of n workloads (inner).
func changeFirst(seed uint64, pairs, n int) [][]bool {
	rng := rand.New(rand.NewPCG(seed, 0))
	first := make([][]bool, pairs)
	for i := range first {
		first[i] = make([]bool, n)
		for w := range first[i] {
			first[i][w] = rng.IntN(2) == 1
		}
	}
	return first
}

// inOrder returns sides (parent, change) in the order one pair runs
// them.
func inOrder(sides []*side, changeFirst bool) []*side {
	if changeFirst {
		return []*side{sides[1], sides[0]}
	}
	return sides
}

func run(parent string, workloads []string, pairs, seconds int, seed uint64) error {
	sides, abDir, err := checkouts(parent)
	if err != nil {
		return err
	}
	var sp spec
	raw, err := os.ReadFile(filepath.Join(sides[1].root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(workloads) == 0 {
		for _, w := range sp.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	log, err := os.OpenFile(filepath.Join(abDir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()

	order := changeFirst(seed, pairs, len(workloads))
	for i := 1; i <= pairs; i++ {
		for w, wl := range workloads {
			sides := inOrder(sides, order[i-1][w])
			for _, s := range sides {
				time.Sleep(idle)
				r, line, err := s.bench(wl, seed+uint64(i), seconds)
				if err != nil {
					return fmt.Errorf("pair %d, %s on %s: %w", i, wl, s.name, err)
				}
				s.runs[wl] = append(s.runs[wl], r)
				fmt.Fprintf(log, `{"pair":%d,"side":%q,"first":%q,"workload":%q,"seed":%d,"result":%s}`+"\n",
					i, s.name, sides[0].name, wl, seed+uint64(i), line)
				fmt.Fprintf(os.Stderr, "pair %d/%d %-12s %-6s %s\n", i, pairs, wl, s.name, line)
			}
		}
	}
	ok := report(os.Stdout, sp.EndToEnd, workloads, sides[0], sides[1])
	if !failedShares(os.Stdout, workloads, sides[0], sides[1]) || !ok {
		return fmt.Errorf("the change is worse than %s", parent)
	}
	return nil
}

// runBench is run for Go microbenchmarks: the rows of the table are the
// benchmarks of pkg matching re that both sides have.
func runBench(parent, pkg, re, benchtime string, pairs int, seed uint64) error {
	sides, abDir, err := checkouts(parent)
	if err != nil {
		return err
	}
	for _, s := range sides {
		if err := s.buildTest(abDir, pkg); err != nil {
			return fmt.Errorf("building %s's %s tests: %w", s.name, pkg, err)
		}
	}
	order := changeFirst(seed, pairs, 1)
	for i := 1; i <= pairs; i++ {
		for _, s := range inOrder(sides, order[i-1][0]) {
			time.Sleep(idle)
			cmd := exec.Command(s.testBin, "-test.run", "^$", "-test.bench", re, "-test.benchtime", benchtime, "-test.timeout", "30m")
			cmd.Dir = filepath.Join(s.root, pkg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pair %d on %s: %w", i, s.name, err)
			}
			for name, ns := range parseBench(string(out)) {
				s.runs[name] = append(s.runs[name], result{Correct: true, Metrics: map[string]struct{ Value float64 }{"ns/op": {ns}}})
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s\n", i, pairs, s.name)
		}
	}
	var rows []string
	for name, runs := range sides[0].runs {
		if len(runs) == pairs && len(sides[1].runs[name]) == pairs {
			rows = append(rows, name)
		}
	}
	slices.Sort(rows)
	report(os.Stdout, []metricSpec{{Name: "ns/op", Unit: "ns", Better: "lower"}}, rows, sides[0], sides[1])
	return nil
}

// buildTest compiles the side's test binary for pkg into dir.
func (s *side) buildTest(dir, pkg string) error {
	s.testBin = filepath.Join(dir, s.name+".test")
	cmd := exec.Command("go", "test", "-c", "-o", s.testBin, pkg)
	cmd.Dir = s.root
	build := filepath.Dir(dir) // .bench_build: the cache and path bench/run.sh builds with
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"), "GOPATH="+filepath.Join(build, "gopath"), "GOTOOLCHAIN=local")
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// parseBench reads ns/op per benchmark off `go test -bench` output.
func parseBench(out string) map[string]float64 {
	rows := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		if ns, err := strconv.ParseFloat(f[2], 64); err == nil {
			rows[f[0]] = ns
		}
	}
	return rows
}

// export unpacks commit ref of the repository at root under dir, once
// per commit, and returns the checkout's path.
func export(root, dir, ref string) (string, error) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse %s: %w", ref, err)
	}
	dst := filepath.Join(dir, strings.TrimSpace(string(out))[:12])
	if _, err := os.Stat(filepath.Join(dst, "bench", "run.sh")); err == nil {
		return dst, nil
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("bash", "-o", "pipefail", "-c", `git -C "$1" archive "$2" | tar -x -C "$3"`, "ab", root, ref, dst)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", ref, err)
	}
	return dst, nil
}

// bench runs one workload through the side's own bench/run.sh and
// parses the result line.
func (s *side) bench(workload string, seed uint64, seconds int) (result, string, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = s.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%w\n%s", err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	line := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return r, line, fmt.Errorf("result line %q: %w", line, err)
	}
	return r, line, nil
}

// quartiles returns Q1, the median and Q3 by the exclusive method
// (Python's statistics.quantiles(values, n=4)), as bench/ does.
func quartiles(values []float64) (q1, q2, q3 float64) {
	vs := slices.Clone(values)
	slices.Sort(vs)
	n := len(vs)
	if n < 2 {
		return math.NaN(), vs[0], math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (vs[j-1]*float64(4-delta) + vs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// pairedRatio returns Q1, the median and Q3 of change[i]/parent[i]
// over the pairs.
func pairedRatio(parent, change []float64) (q1, q2, q3 float64) {
	ratios := make([]float64, len(parent))
	for i, p := range parent {
		ratios[i] = change[i] / p
	}
	return quartiles(ratios)
}

// verdict judges one (workload, metric) cell from both sides' values
// in pair order; wins counts the pairs the change won. A metric with no
// bound (Bound 0) can be neither unresolved nor worse.
func verdict(m metricSpec, parent, change []float64) (wins int, v string) {
	sign := 1.0 // makes larger better
	if m.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		if sign*change[i] > sign*parent[i] {
			wins++
		}
	}
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	iqr, gain := p3-p1, sign*(cm-pm)
	switch {
	case m.Bound > 0 && iqr > m.Bound*math.Abs(pm):
		return wins, "unresolved"
	case m.Bound > 0 && -gain > m.Bound*math.Abs(pm):
		return wins, "worse"
	case 10*wins >= 9*len(parent) && gain > iqr:
		return wins, "better"
	}
	return wins, "same"
}

// report prints the table and returns false when a cell is worse.
func report(w *os.File, metrics []metricSpec, workloads []string, parent, change *side) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tratio median [q1, q3]\tbound\twins\tverdict")
	for _, wl := range workloads {
		for _, m := range metrics {
			pv, cv := values(parent.runs[wl], m.Name), values(change.runs[wl], m.Name)
			wins, v := verdict(m, pv, cv)
			ok = ok && v != "worse"
			p1, pm, p3 := quartiles(pv)
			c1, cm, c3 := quartiles(cv)
			r1, rm, r3 := pairedRatio(pv, cv)
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.3f [%.3f, %.3f]\t%s\t%d/%d\t%s\n",
				wl, m.Name, pm, p1, p3, cm, c1, c3, 100*(cm-pm)/pm, rm, r1, r3, bound, wins, len(pv), v)
		}
	}
	tw.Flush()
	return ok
}

// failedShares prints each workload's failed operations per side and
// returns false when the change may not land for them: a run was
// incorrect, or a larger share of the change's operations failed.
func failedShares(w *os.File, workloads []string, parent, change *side) bool {
	ok := true
	for _, wl := range workloads {
		pf, pa, pc := failures(parent.runs[wl])
		cf, ca, cc := failures(change.runs[wl])
		fmt.Fprintf(w, "%s: failed/attempted parent %d/%d, change %d/%d\n", wl, pf, pa, cf, ca)
		// Cross-multiplied: a larger failed share on the change side.
		ok = ok && pc && cc && cf*pa <= pf*ca
	}
	return ok
}

func values(runs []result, metric string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[metric].Value
	}
	return vs
}

func failures(runs []result) (failed, attempted int, correct bool) {
	correct = true
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
		correct = correct && r.Correct
	}
	return failed, attempted, correct
}
