package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestTimelineSegments(t *testing.T) {
	tl := newTimeline([]phase{{Name: "warm", Len: time.Second, Segs: 1}, {Name: "run", Len: 5 * time.Second, Segs: 10}})
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, -1}, {0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1},
		{1499 * time.Millisecond, 1}, {1500 * time.Millisecond, 2}, {5999 * time.Millisecond, 10}, {6 * time.Second, -1},
	} {
		if got := tl.segment(c.at); got != c.want {
			t.Errorf("segment(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// One disturbed segment must move none of the reported values.
func TestSegmentMediansShrugOffADisturbedSegment(t *testing.T) {
	tl := newTimeline([]phase{{Name: "warm", Len: time.Second, Segs: 1}, {Name: "run", Len: 10 * time.Second, Segs: 10}})
	recs := []*recorder{newRecorder(tl), newRecorder(tl)}
	for seg := 0; seg < 10; seg++ {
		at := time.Second + time.Duration(seg)*time.Second + time.Millisecond
		n, lat := 100, 2*time.Millisecond
		if seg == 4 { // a stall: few completions, all slow
			n, lat = 10, 500*time.Millisecond
		}
		for i := 0; i < n; i++ {
			recs[i%2].observe(at, lat)
		}
	}
	recs[0].observe(10*time.Millisecond, time.Hour) // warm-up: discarded from the run phase
	st := summarize(tl, recs)[1]
	if st.QPS != 100 || st.P50 != 2 || st.P99 != 2 {
		t.Errorf("qps %v p50 %v p99 %v, want 100, 2, 2", st.QPS, st.P50, st.P99)
	}
	if st.Samples != 910 || len(st.SegQPS) != 10 {
		t.Errorf("samples %d segments %d, want 910, 10", st.Samples, len(st.SegQPS))
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4) == [2.0, 4.0, 5.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	if q1 != 2 || q2 != 4 || q3 != 5 {
		t.Errorf("quartiles(pi digits) = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}
