package dsr

import (
	"bytes"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/shard"
)

// TestEngineMetrics runs batches through an instrumented in-process
// engine and checks the coordinator's metric catalog fills in: counters
// count, histograms observe, gauges describe the deployment — with the
// labels answering the finish, and with them held back.
func TestEngineMetrics(t *testing.T) {
	t.Run("labels", func(t *testing.T) {
		withLabelSeam(t, &labelsAwaited)
		testEngineMetrics(t, true)
	})
	t.Run("sweep", func(t *testing.T) {
		withLabelSeam(t, &labelsHeld)
		testEngineMetrics(t, false)
	})
}

func testEngineMetrics(t *testing.T, labelled bool) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 300, 2)
	reg := obs.NewRegistry()
	e, err := Build(g, Options{K: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const rounds = 7
	for r := 0; r < rounds; r++ {
		queries := make([]Query, 4)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, 300, 4), T: randomSet(rng, 300, 4)}
		}
		e.QueryBatch(queries)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["dsr_batches_total"]; got != rounds {
		t.Errorf("dsr_batches_total = %d, want %d", got, rounds)
	}
	if got := snap.Counters["dsr_queries_total"]; got != rounds*4 {
		t.Errorf("dsr_queries_total = %d, want %d", got, rounds*4)
	}
	if got := snap.Counters["dsr_query_failures_total"]; got != 0 {
		t.Errorf("dsr_query_failures_total = %d on a healthy engine", got)
	}
	if snap.Counters["dsr_rounds_total"] == 0 {
		t.Error("dsr_rounds_total never incremented")
	}
	for _, h := range []string{"dsr_query_latency_ns", "dsr_batch_size", "dsr_fanin_wait_ns", "dsr_boundary_finish_ns", "dsr_summary_fetch_ns"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s never observed", h)
		}
	}
	// One observation per round, beside the finish's time. The walks
	// expand components; from the labels a round expands none.
	pops := snap.Histograms["dsr_finish_sweep_components"]
	if pops.Count != snap.Histograms["dsr_boundary_finish_ns"].Count || (pops.Sum == 0) != labelled || pops.Sum > uint64(rounds*e.bg.ncomp()) {
		t.Errorf("dsr_finish_sweep_components: %d observations summing to %d, want one per finish, and 0 components from labels or 1..%d from the walk (labels %v)",
			pops.Count, pops.Sum, rounds*e.bg.ncomp(), labelled)
	}
	if got := snap.Gauges["dsr_boundary_label_entries"]; (got > 0) != labelled {
		t.Errorf("dsr_boundary_label_entries = %d with labels %v", got, labelled)
	}
	lat := snap.Histograms["dsr_query_latency_ns"]
	if lat.P50 == 0 || lat.P99 < lat.P50 || lat.P999 < lat.P99 {
		t.Errorf("latency quantiles not monotone: p50=%d p99=%d p999=%d", lat.P50, lat.P99, lat.P999)
	}
	for p := 0; p < 3; p++ {
		if got := snap.Counters[obs.Name("dsr_rpc_total", "partition", p)]; got == 0 {
			t.Errorf("partition %d: dsr_rpc_total never incremented", p)
		}
		if snap.Histograms[obs.Name("dsr_rpc_latency_ns", "partition", p)].Count == 0 {
			t.Errorf("partition %d: rpc latency never observed", p)
		}
	}
	if got := snap.Gauges["dsr_partitions"]; got != 3 {
		t.Errorf("dsr_partitions = %d, want 3", got)
	}
	if got := snap.Gauges["dsr_boundary_vertices"]; got != int64(e.NumBoundary()) {
		t.Errorf("dsr_boundary_vertices = %d, want %d", got, e.NumBoundary())
	}
	if got := snap.Gauges["dsr_boundary_components"]; got != int64(e.bg.ncomp()) || got == 0 || got > int64(e.NumBoundary()) {
		t.Errorf("dsr_boundary_components = %d, want %d (at most the %d boundary vertices)", got, e.bg.ncomp(), e.NumBoundary())
	}
	if got := snap.Gauges["dsr_resident_bytes"]; got != int64(e.ResidentBytes()) {
		t.Errorf("dsr_resident_bytes = %d, want %d", got, e.ResidentBytes())
	}
}

// TestSlowQueryLog arms an absurdly low slow-query threshold and checks
// every batch logs its structured span trace at WARN: the root
// query_batch span plus the per-shard rpc spans with partition labels.
func TestSlowQueryLog(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 2)
	var buf bytes.Buffer
	e, err := Build(g, Options{
		K:         2,
		Metrics:   obs.NewRegistry(),
		Log:       obs.NewLogger(&buf, obs.LevelWarn),
		SlowQuery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Disjoint fixed seed sets: the query must reach the broadcast round
	// (an S∩T overlap would be answered during assembly, skipping it).
	e.Query([]graph.VertexID{0, 1, 2}, []graph.VertexID{100, 101, 102})

	out := buf.String()
	for _, want := range []string{
		"WARN", "slow batch:", "query_batch", "assemble", "round",
		"rpc part=0", "rpc part=1",
		// Shard-reported compute vs everything else, per partition —
		// present even on the loopback transport, which synthesizes the
		// timing footer from its local search time.
		"server part=0", "server part=1", "net part=0", "net part=1",
		"finish",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, out)
		}
	}
}

// TestSlowQueryLogDisabled proves the threshold gate: zero SlowQuery
// (the default) logs nothing, even with a logger attached.
func TestSlowQueryLogDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 100, 2)
	var buf bytes.Buffer
	e, err := Build(g, Options{K: 2, Log: obs.NewLogger(&buf, obs.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Query(randomSet(rng, 100, 4), randomSet(rng, 100, 4))
	if s := buf.String(); strings.Contains(s, "slow batch") {
		t.Errorf("slow-query log emitted with SlowQuery=0:\n%s", s)
	}
}

// TestEngineHealthLoopback pins Health's contract for in-process
// engines: every partition is a set of one live replica with nothing to
// report yet, and no replica has an address to list.
func TestEngineHealthLoopback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 50, 1)
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := e.Health()
	if len(h) != 2 {
		t.Fatalf("Health() on an in-process engine = %v, want one entry per partition", h)
	}
	for p, ph := range h {
		if ph != (shard.PartitionHealth{Partition: p, Replicas: 1, Live: 1}) {
			t.Errorf("Health()[%d] = %+v, want one quiet live replica", p, ph)
		}
	}
	if eps := e.Endpoints(); len(eps) != 0 {
		t.Errorf("Endpoints() on an in-process engine = %v, want none", eps)
	}
}

// TestConnectLogsProgress checks the connect-time log lines a
// distributed operator sees: one per shard summary, one for the stitch,
// which ends with the connect's two phases in milliseconds.
func TestConnectLogsProgress(t *testing.T) {
	withLabelSeam(t, &labelsAwaited) // the label build's line is written before the log is read
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(rng, 120, 2)
	var buf bytes.Buffer
	e, err := Build(g, Options{K: 3, Log: obs.NewLogger(&buf, obs.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out := buf.String()
	for _, want := range []string{"shard 1/3", "shard 2/3", "shard 3/3", "boundary graph stitched"} {
		if !strings.Contains(out, want) {
			t.Errorf("connect log missing %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`boundary graph stitched: .*coordinator-resident bytes; ms: fetch \d+, stitch \d+\n`).MatchString(out) {
		t.Errorf("stitch line does not end \"; ms: fetch F, stitch S\":\n%s", out)
	}
}
