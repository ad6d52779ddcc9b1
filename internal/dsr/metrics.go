package dsr

import (
	"dsr/internal/obs"
)

// engineMetrics is the coordinator's instrument set, resolved once at
// engine construction so the query path touches only pre-bound
// pointers. With a nil registry every instrument is nil, which the obs
// package defines as a no-op — the per-partition slices still exist,
// sized k, so the hot path never branches on "metrics enabled".
//
// The full catalog (names, types, meaning) is documented in README.md
// under "Observability".
type engineMetrics struct {
	queries   *obs.Counter   // dsr_queries_total
	batches   *obs.Counter   // dsr_batches_total
	failed    *obs.Counter   // dsr_query_failures_total
	rounds    *obs.Counter   // dsr_rounds_total
	slow      *obs.Counter   // dsr_slow_queries_total
	latency   *obs.Histogram // dsr_query_latency_ns
	batchSize *obs.Histogram // dsr_batch_size
	faninWait *obs.Histogram // dsr_fanin_wait_ns
	finish    *obs.Histogram // dsr_boundary_finish_ns
	expanded  *obs.Histogram // dsr_finish_sweep_components
	frontier  *obs.Histogram // dsr_frontier_size

	rpcs      []*obs.Counter   // dsr_rpc_total{partition=p}
	rpcErrs   []*obs.Counter   // dsr_rpc_failures_total{partition=p}
	rpcLat    []*obs.Histogram // dsr_rpc_latency_ns{partition=p}
	rpcServer []*obs.Histogram // dsr_rpc_server_ns{partition=p}
	rpcNet    []*obs.Histogram // dsr_rpc_net_ns{partition=p}

	boundaryVerts *obs.Gauge // dsr_boundary_vertices
	boundaryComps *obs.Gauge // dsr_boundary_components
	residentBytes *obs.Gauge // dsr_resident_bytes
	labelEntries  *obs.Gauge // dsr_boundary_label_entries
	partitions    *obs.Gauge // dsr_partitions
}

// newEngineMetrics binds the coordinator instrument set against reg
// (nil reg yields all-nil instruments, still safe to use).
func newEngineMetrics(reg *obs.Registry, k int) engineMetrics {
	m := engineMetrics{
		queries:       reg.Counter("dsr_queries_total"),
		batches:       reg.Counter("dsr_batches_total"),
		failed:        reg.Counter("dsr_query_failures_total"),
		rounds:        reg.Counter("dsr_rounds_total"),
		slow:          reg.Counter("dsr_slow_queries_total"),
		latency:       reg.Histogram("dsr_query_latency_ns"),
		batchSize:     reg.Histogram("dsr_batch_size"),
		faninWait:     reg.Histogram("dsr_fanin_wait_ns"),
		finish:        reg.Histogram("dsr_boundary_finish_ns"),
		expanded:      reg.Histogram("dsr_finish_sweep_components"),
		frontier:      reg.Histogram("dsr_frontier_size"),
		rpcs:          make([]*obs.Counter, k),
		rpcErrs:       make([]*obs.Counter, k),
		rpcLat:        make([]*obs.Histogram, k),
		rpcServer:     make([]*obs.Histogram, k),
		rpcNet:        make([]*obs.Histogram, k),
		boundaryVerts: reg.Gauge("dsr_boundary_vertices"),
		boundaryComps: reg.Gauge("dsr_boundary_components"),
		residentBytes: reg.Gauge("dsr_resident_bytes"),
		labelEntries:  reg.Gauge("dsr_boundary_label_entries"),
		partitions:    reg.Gauge("dsr_partitions"),
	}
	for p := 0; p < k; p++ {
		m.rpcs[p] = reg.Counter(obs.Name("dsr_rpc_total", "partition", p))
		m.rpcErrs[p] = reg.Counter(obs.Name("dsr_rpc_failures_total", "partition", p))
		m.rpcLat[p] = reg.Histogram(obs.Name("dsr_rpc_latency_ns", "partition", p))
		m.rpcServer[p] = reg.Histogram(obs.Name("dsr_rpc_server_ns", "partition", p))
		m.rpcNet[p] = reg.Histogram(obs.Name("dsr_rpc_net_ns", "partition", p))
	}
	return m
}
