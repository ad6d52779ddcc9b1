// Package obs is the DSR telemetry subsystem: dependency-free
// counters, gauges, log-bucketed latency histograms with quantile
// estimation, a registry that snapshots everything to JSON, a small
// leveled logger with structured key=value fields, per-query trace
// scratch, and an ops HTTP endpoint serving the registry snapshot plus
// net/http/pprof.
//
// The design constraint is the hot path: every instrument is a fixed
// set of atomic words, Observe/Inc/Add never allocate, and every type
// is nil-safe — a nil *Counter, *Gauge, *Histogram, *Registry, or
// *Logger turns the corresponding operation into a no-op branch. Code
// therefore instruments unconditionally and callers opt in by passing
// a real Registry; with none, the cost is a nil check per event and
// the in-process query path stays 0 allocs/op either way (locked by
// TestQueryZeroAlloc and the BenchmarkQueryWithMetrics bench-gate
// entry, which run with metrics enabled).
package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. live replica count).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (negative to decrement). No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name renders a metric name with labels in the registry's canonical
// form: base{k1=v1,k2=v2}. Pairs are emitted in argument order, so
// callers keep label order stable per metric. This runs at instrument
// construction time, never on the hot path.
func Name(base string, kv ...any) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v=%v", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
