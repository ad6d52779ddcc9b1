package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), leaving vs as it was.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	vs = slices.Clone(vs)
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// phase is one stretch of a load run's timeline, cut into Segs equal
// segments. Every reported value of a phase is the median over its
// segments, so one disturbed segment — a GC pause, a noisy neighbour —
// moves nothing. Rate is the offered load of an open-loop phase; 0 in a
// closed loop.
type phase struct {
	Name string
	Len  time.Duration
	Segs int
	Rate float64
}

// timeline lays phases end to end and maps an instant to its segment.
type timeline struct {
	phases []phase
	first  []int           // first[i] is phase i's first global segment
	starts []time.Duration // starts[i] is phase i's offset
	nseg   int
	total  time.Duration
}

func newTimeline(phases []phase) *timeline {
	tl := &timeline{phases: phases}
	for _, ph := range phases {
		tl.first = append(tl.first, tl.nseg)
		tl.starts = append(tl.starts, tl.total)
		tl.nseg += ph.Segs
		tl.total += ph.Len
	}
	return tl
}

// segment returns the global segment holding offset at, or -1 when at
// lies outside the timeline.
func (tl *timeline) segment(at time.Duration) int {
	if at < 0 || at >= tl.total {
		return -1
	}
	for i := len(tl.phases) - 1; i >= 0; i-- {
		if at >= tl.starts[i] {
			ph := tl.phases[i]
			return tl.first[i] + int(int64(at-tl.starts[i])*int64(ph.Segs)/int64(ph.Len))
		}
	}
	return -1
}

// recorder collects one connection's completions: the latency of every
// answered query, filed under the segment in which the answer arrived.
type recorder struct {
	tl  *timeline
	lat [][]float64 // per global segment, milliseconds
}

func newRecorder(tl *timeline) *recorder {
	return &recorder{tl: tl, lat: make([][]float64, tl.nseg)}
}

// observe files a completion that arrived at offset at.
func (r *recorder) observe(at, latency time.Duration) {
	if s := r.tl.segment(at); s >= 0 {
		r.lat[s] = append(r.lat[s], float64(latency)/float64(time.Millisecond))
	}
}

// phaseStats is one phase's summary over all connections.
type phaseStats struct {
	Name    string  `json:"name"`
	Offered float64 `json:"offered_qps,omitempty"`
	QPS     float64 `json:"qps"`    // median over segments of completions per second
	P50     float64 `json:"p50_ms"` // median over segments of the segment's p50
	P99     float64 `json:"p99_ms"` // median over segments of the segment's p99
	// Samples counts the answers that arrived within the phase; in an
	// open loop a count well below Offered×Len means a growing backlog.
	Samples int `json:"samples"`
	// The per-segment values the medians are taken over.
	SegQPS []float64 `json:"segment_qps"`
	SegP50 []float64 `json:"segment_p50_ms"`
	SegP99 []float64 `json:"segment_p99_ms"`
}

// reduce sets the phase's reported values to the medians of its
// per-segment values.
func (st *phaseStats) reduce() {
	st.QPS, st.P50, st.P99 = median(st.SegQPS), median(st.SegP50), median(st.SegP99)
}

// pool merges the same phase measured on several fleets: the segments
// of all of them stand side by side, and the medians are taken over the
// lot. A fleet that came up slow — an unlucky memory layout, a noisy
// neighbour during its turn — is then a few outvoted segments, not a
// shifted result.
func pool(runs [][]phaseStats) []phaseStats {
	out := make([]phaseStats, len(runs[0]))
	for i := range out {
		st := phaseStats{Name: runs[0][i].Name, Offered: runs[0][i].Offered}
		for _, r := range runs {
			st.Samples += r[i].Samples
			st.SegQPS = append(st.SegQPS, r[i].SegQPS...)
			st.SegP50 = append(st.SegP50, r[i].SegP50...)
			st.SegP99 = append(st.SegP99, r[i].SegP99...)
		}
		st.reduce()
		out[i] = st
	}
	return out
}

// summarize merges the connections' recorders into per-phase stats.
func summarize(tl *timeline, recs []*recorder) []phaseStats {
	out := make([]phaseStats, len(tl.phases))
	for i, ph := range tl.phases {
		st := phaseStats{Name: ph.Name, Offered: ph.Rate}
		segLen := ph.Len.Seconds() / float64(ph.Segs)
		for s := tl.first[i]; s < tl.first[i]+ph.Segs; s++ {
			var lat []float64
			for _, r := range recs {
				lat = append(lat, r.lat[s]...)
			}
			slices.Sort(lat)
			st.Samples += len(lat)
			st.SegQPS = append(st.SegQPS, float64(len(lat))/segLen)
			if len(lat) > 0 {
				st.SegP50 = append(st.SegP50, percentile(lat, 0.50))
				st.SegP99 = append(st.SegP99, percentile(lat, 0.99))
			}
		}
		st.reduce()
		out[i] = st
	}
	return out
}
