package main

import (
	"maps"
	"math"
	"slices"
	"testing"
)

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v, want 2.75, 5.5, 8.25", q1, q2, q3)
	}
}

// TestPairedRatio: the ratio is taken pair by pair, not between the
// sides' medians — ratios 0.1 … 1.0 over parents of every size have
// the quartiles of 1 … 10 over ten.
func TestPairedRatio(t *testing.T) {
	r := []float64{0.3, 1.0, 0.1, 0.8, 0.5, 0.2, 0.9, 0.6, 0.4, 0.7}
	parent, change := make([]float64, len(r)), make([]float64, len(r))
	for i := range r {
		parent[i] = float64(50 * (i + 1))
		change[i] = parent[i] * r[i]
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	q1, q2, q3 := pairedRatio(parent, change)
	if !near(q1, 0.275) || !near(q2, 0.55) || !near(q3, 0.825) {
		t.Fatalf("pairedRatio = %v, %v, %v, want 0.275, 0.55, 0.825", q1, q2, q3)
	}
	_, pm, _ := quartiles(parent)
	if _, cm, _ := quartiles(change); near(q2, cm/pm) {
		t.Fatal("the fixture cannot tell a paired ratio from a ratio of medians")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.25}
	unbound := metricSpec{Name: "ns/op", Better: "lower"}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(d float64) []float64 {
		vs := make([]float64, len(tight))
		for i, v := range tight {
			vs[i] = v + d
		}
		return vs
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		wins           int
		want           string
	}{
		{"lower is better, change lower", lower, tight, shifted(-10), 10, "better"},
		{"lower is better, change higher inside the bound", lower, tight, shifted(10), 0, "same"},
		{"lower is better, change past the bound", lower, tight, shifted(30), 0, "worse"},
		{"higher is better, change higher", higher, tight, shifted(10), 10, "better"},
		{"higher is better, change past the bound", higher, tight, shifted(-30), 0, "worse"},
		{"a gain inside the parent's spread", higher, tight, shifted(1), 10, "same"},
		{"ties win nothing", higher, tight, tight, 0, "same"},
		{"parent spread wider than the bound", higher, wide, shifted(-50), 0, "unresolved"},
		{"no bound, change lower", unbound, tight, shifted(-10), 10, "better"},
		{"no bound, change far higher: reported, never worse", unbound, tight, shifted(300), 0, "same"},
		{"no bound, wide parent: never unresolved", unbound, wide, shifted(-20), 7, "same"},
	} {
		wins, got := verdict(c.m, c.parent, c.change)
		if wins != c.wins || got != c.want {
			t.Errorf("%s: %d wins, %q; want %d, %q", c.name, wins, got, c.wins, c.want)
		}
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
pkg: dsr/internal/dsr
BenchmarkBoundaryFinish/hash/batch=1-2         	     300	      8855 ns/op	        114.6 components/query	      8848 ns/query	       0 B/op	       0 allocs/op
BenchmarkBoundaryFinish/hash/batch=64-2        	     300	    133305.5 ns/op	      2083 ns/query
BenchmarkNoTime-2   	     300	      12 widgets/op
--- BENCH: BenchmarkBoundaryFinish
PASS
`
	want := map[string]float64{
		"BenchmarkBoundaryFinish/hash/batch=1-2":  8855,
		"BenchmarkBoundaryFinish/hash/batch=64-2": 133305.5,
	}
	if got := parseBench(out); !maps.Equal(got, want) {
		t.Fatalf("parseBench = %v, want %v", got, want)
	}
}

// TestChangeFirstMixesOrder: with the default seed, 10 pairs of the four
// workloads put each side first at least three times per workload, and
// the workloads do not all run in one order — so a position effect
// spreads over both sides instead of lining up with one.
func TestChangeFirstMixesOrder(t *testing.T) {
	const pairs, workloads = 10, 4
	first := changeFirst(defaultSeed, pairs, workloads)
	for w := 0; w < workloads; w++ {
		change := 0
		for i := range first {
			if first[i][w] {
				change++
			}
		}
		if change < 3 || pairs-change < 3 {
			t.Errorf("workload %d: change first in %d of %d pairs", w, change, pairs)
		}
	}
	shared := true
	for i := range first {
		for w := range first[i] {
			shared = shared && first[i][w] == first[i][0]
		}
	}
	if shared {
		t.Error("every workload runs in the same order in every pair")
	}
	if again := changeFirst(defaultSeed, pairs, workloads); !slices.EqualFunc(first, again, slices.Equal) {
		t.Error("the draw is not reproducible from its seed")
	}
}
