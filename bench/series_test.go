package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seriesOf(qps []float64, p50 []float64, boundary float64) series {
	var se series
	for i := range qps {
		se.Runs = append(se.Runs, record{Workload: "loc-closed", Seed: uint64(i + 1), Trace: 0,
			result: result{Metrics: metrics{"qps": {qps[i], "1/s"}, "p50_ms": {p50[i], "ms"}}}})
	}
	se.Runs = append(se.Runs, record{Workload: "loc-closed", Seed: 1, Trace: 1,
		result: result{Metrics: metrics{"dsr.boundary_vertices": {boundary, "count"}, "dsr.self_ms": {boundary / 7, "ms"}}}})
	return se
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644)
	write := func(name string, se series) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, se); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 60, 100, 150, 70, 100, 130, 80, 100}
	slow := make([]float64, len(steady))
	for i, v := range steady {
		slow[i] = v * 0.8
	}
	base := write("a.json", seriesOf(steady, steady, 500))

	for _, c := range []struct {
		name     string
		b        series
		code     int
		contains []string
	}{
		{"same", seriesOf(steady, steady, 500), 0, []string{"ok", "0 differ"}},
		{"qps down 20%", seriesOf(slow, steady, 500), 1, []string{"worse"}},
		// p50 lower is better: 20% down is a gain, not a regression.
		{"p50 down 20%", seriesOf(steady, slow, 500), 0, []string{"ok"}},
		{"noisy", seriesOf(steady, noisy, 500), 0, []string{"unresolved"}},
		{"count moved", seriesOf(steady, steady, 501), 1, []string{"count differs: dsr.boundary_vertices", "1 differ"}},
	} {
		var out bytes.Buffer
		code := compareSeries(&out, spec, base, write("b.json", c.b))
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		for _, want := range c.contains {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q\n%s", c.name, want, out.String())
			}
		}
		// Times are not counts: dsr.self_ms never takes part.
		if strings.Contains(out.String(), "dsr.self_ms") {
			t.Errorf("%s: a time was compared as a count", c.name)
		}
	}
}
