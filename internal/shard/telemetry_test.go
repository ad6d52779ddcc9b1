package shard

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/wire"
)

// TestTCPFrameCounters: instrumented server and client count every
// frame on both sides of the protocol — and since the client's peer is
// the server, the two sides' frame counts must mirror each other.
func TestTCPFrameCounters(t *testing.T) {
	shards, _ := chainFixture(t)
	reg := obs.NewRegistry()
	var logbuf bytes.Buffer
	log := obs.NewLogger(&logbuf, obs.LevelWarn)

	addrs := make([]string, len(shards))
	servers := make([]*Server, len(shards))
	var done []chan struct{}
	for i, sh := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := NewServer(sh, len(shards), 6, testGraphSum, testPartSum)
		srv.Instrument(reg, log) // one registry: fleet-wide net_server_* totals
		servers[i] = srv
		ch := make(chan struct{})
		done = append(done, ch)
		go func() {
			defer close(ch)
			srv.Serve(ln)
		}()
	}
	defer func() {
		for i, srv := range servers {
			srv.Close()
			<-done[i]
		}
	}()

	groups := make([][]string, len(addrs))
	for p, addr := range addrs {
		groups[p] = []string{addr}
	}
	cl, err := DialReplicated(t.Context(), groups, 6, testGraphSum, testPartSum, ReplicatedOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	replyc := make(chan Reply, 1)
	for i := 0; i < 3; i++ {
		cl.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: uint32(i), Seeds: []int32{0}}}, replyc)
		if rep := <-replyc; rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if _, err := cl.Summary(t.Context(), 0); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, c := range []string{
		"net_client_frames_out_total", "net_client_frames_in_total",
		"net_client_bytes_out_total", "net_client_bytes_in_total",
		"net_server_frames_out_total", "net_server_frames_in_total",
		"net_server_bytes_out_total", "net_server_bytes_in_total",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("%s = 0 after an active session", c)
		}
	}
	// Mirror property: every frame the client sent arrived at the server
	// (the server's in count excludes nothing on a clean loopback).
	if co, si := snap.Counters["net_client_frames_out_total"], snap.Counters["net_server_frames_in_total"]; co != si {
		t.Errorf("client sent %d frames, server counted %d in", co, si)
	}
	// Byte counters include the 4-byte length prefix per frame.
	if b, f := snap.Counters["net_client_bytes_out_total"], snap.Counters["net_client_frames_out_total"]; b < 4*f {
		t.Errorf("bytes_out %d < 4 bytes/frame over %d frames", b, f)
	}

	// A protocol violation counts a decode error and logs the drop.
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(c, nil); err != nil { // hello
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, wire.AppendHello(nil, wire.Hello{})); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(c, nil); err != nil { // MsgError answer
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(c, nil); err == nil {
		t.Fatal("connection survived a protocol error")
	}
	if got := reg.Counter("net_server_decode_errors_total").Load(); got != 1 {
		t.Errorf("net_server_decode_errors_total = %d, want 1", got)
	}
	if out := logbuf.String(); !strings.Contains(out, "dropping connection") {
		t.Errorf("protocol failure not logged:\n%s", out)
	}
}

// TestServerRegionGauges: instrumenting a server publishes how its
// partition's components split by region, on the gap partition, which
// holds all four.
func TestServerRegionGauges(t *testing.T) {
	fx := gapFixture(t)
	subs := partition.Extract(fx.g, fx.pt)
	reg := obs.NewRegistry()
	NewServer(New(0, subs[0]), 2, fx.g.NumVertices(), testGraphSum, testPartSum).Instrument(reg, nil)
	gauges := reg.Snapshot().Gauges
	for region, want := range map[string]int{
		"path": gapRegions.Path, "sink": gapRegions.Sink,
		"source": gapRegions.Source, "interior": gapRegions.Interior,
	} {
		if got, ok := gauges[obs.Name("shard_components", "region", region)]; !ok || got != int64(want) {
			t.Errorf("shard_components{region=%s} = %d (present %v), want %d", region, got, ok, want)
		}
	}
}

// TestServerTimingAndEndpoints: a traced batch comes back with the
// server's self-measured timing footer and the batch ID echoed; an
// untraced one carries neither — but the server-side breakdown
// histograms measure every batch regardless, feeding the shard's own
// /metrics, and beside them the server counts what the search did with
// each batch: tasks delivered, tasks it owned no seed of, components
// swept. The client surfaces each connection's identity (address,
// announced ops endpoint, liveness) through Endpoints().
func TestServerTimingAndEndpoints(t *testing.T) {
	shards, _ := chainFixture(t)
	reg := obs.NewRegistry()
	addrs := make([]string, len(shards))
	servers := make([]*Server, len(shards))
	var done []chan struct{}
	for i, sh := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := NewServer(sh, len(shards), 6, testGraphSum, testPartSum)
		srv.Instrument(reg, nil)
		srv.AnnounceMetrics(fmt.Sprintf("10.0.0.%d:9090", i))
		// An oversized announce must be ignored, not clobber the real one.
		srv.AnnounceMetrics(strings.Repeat("a", 300))
		servers[i] = srv
		ch := make(chan struct{})
		done = append(done, ch)
		go func() {
			defer close(ch)
			srv.Serve(ln)
		}()
	}
	defer func() {
		for i, srv := range servers {
			srv.Close()
			<-done[i]
		}
	}()

	cl, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	replyc := make(chan Reply, 1)
	// Shard 0 holds {0,1}: the first task is its own (0 reaches 1: two
	// components swept), the second is aimed at shard 2.
	task := []wire.Task{
		{Kind: wire.Forward, Query: 1, Seeds: []int32{0}},
		{Kind: wire.Backward, Query: 1, Seeds: []int32{5}},
	}
	cl.Submit(0, wire.BatchHeader{Trace: true, Batch: 42}, task, replyc)
	rep := <-replyc
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if !rep.HasTiming || rep.Batch != 42 {
		t.Fatalf("traced batch reply: hasTiming=%v batch=%d, want footer and batch 42", rep.HasTiming, rep.Batch)
	}
	if rep.Timing.Total() == 0 {
		t.Errorf("timing footer is all zeros: %+v", rep.Timing)
	}

	cl.Submit(0, wire.BatchHeader{}, task, replyc)
	rep = <-replyc
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.HasTiming || rep.Batch != 0 {
		t.Fatalf("untraced batch reply: hasTiming=%v batch=%d, want neither", rep.HasTiming, rep.Batch)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"shard_server_decode_ns", "shard_server_queue_ns",
		"shard_server_search_ns", "shard_server_encode_ns",
	} {
		if got := snap.Histograms[name].Count; got != 2 {
			t.Errorf("%s observed %d batches, want 2 (traced and untraced)", name, got)
		}
	}
	if got := snap.Counters["shard_server_tasks_total"]; got != 4 {
		t.Errorf("shard_server_tasks_total = %d, want 4 (two batches of two)", got)
	}
	if got := snap.Counters["shard_server_tasks_unowned_total"]; got != 2 {
		t.Errorf("shard_server_tasks_unowned_total = %d, want 2 (one per batch)", got)
	}
	if h := snap.Histograms["shard_server_sweep_components"]; h.Count != 2 || h.Sum != 4 {
		t.Errorf("shard_server_sweep_components: %d batches summing to %d components, want 2 and 4", h.Count, h.Sum)
	}

	eps := cl.Endpoints()
	if len(eps) != len(shards) {
		t.Fatalf("Endpoints() has %d entries, want %d", len(eps), len(shards))
	}
	for i, ep := range eps {
		if ep.Partition != i || ep.Replica != 0 || !ep.Live {
			t.Errorf("endpoint %d = %+v, want live p%d/r0", i, ep, i)
		}
		if ep.Addr != addrs[i] {
			t.Errorf("endpoint %d addr = %q, want %q", i, ep.Addr, addrs[i])
		}
		if want := fmt.Sprintf("10.0.0.%d:9090", i); ep.MetricsAddr != want {
			t.Errorf("endpoint %d metrics addr = %q, want %q", i, ep.MetricsAddr, want)
		}
	}
}

// TestReplicatedHealthAndCounters: Health() and the registry report the
// same failover story — a mid-query replica failure shows up as a
// retry plus a failover, the reconnect loop's redial revives the
// replica, and the per-partition counters in the registry agree with
// the Health snapshot exactly.
func TestReplicatedHealthAndCounters(t *testing.T) {
	groups, flaky := localGroups(t, 2)
	reg := obs.NewRegistry()
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{
		ReconnectEvery: time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	h := tr.Health()
	if len(h) != 3 {
		t.Fatalf("Health() has %d partitions, want 3", len(h))
	}
	for _, ph := range h {
		if ph.Replicas != 2 || ph.Live != 2 {
			t.Fatalf("healthy fleet: partition %d reports %d/%d live", ph.Partition, ph.Live, ph.Replicas)
		}
		if ph.Retries != 0 || ph.Failovers != 0 {
			t.Fatalf("counters non-zero before any fault: %+v", ph)
		}
	}
	if got := reg.Gauge(obs.Name("shard_replicas_live", "partition", 0)).Load(); got != 2 {
		t.Fatalf("shard_replicas_live{partition=0} = %d, want 2", got)
	}

	// Arm one replica to fail its next submit. Round-robin reaches it
	// within a couple of submits; the failure is retried on the healthy
	// sibling, the failed replica is marked dead (a failover) and then
	// revived by the reconnect loop (a redial).
	flaky[0][0].failNext.Store(1)
	for i := 0; i < 10 && tr.Health()[0].Retries == 0; i++ {
		if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
			t.Fatalf("failover did not rescue the batch: %v", rep.Err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		ph := tr.Health()[0]
		if ph.Retries > 0 && ph.Failovers > 0 && ph.Redials > 0 && ph.Live == 2 {
			// Health and the registry are two views of the same counters.
			if got := reg.Counter(obs.Name("shard_retries_total", "partition", 0)).Load(); got != ph.Retries {
				t.Fatalf("registry retries %d != Health retries %d", got, ph.Retries)
			}
			if got := reg.Counter(obs.Name("shard_failovers_total", "partition", 0)).Load(); got != ph.Failovers {
				t.Fatalf("registry failovers %d != Health failovers %d", got, ph.Failovers)
			}
			if got := reg.Counter(obs.Name("shard_redials_total", "partition", 0)).Load(); got != ph.Redials {
				t.Fatalf("registry redials %d != Health redials %d", got, ph.Redials)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never fully recorded: %+v", ph)
		}
		time.Sleep(time.Millisecond)
	}
	// Untouched partitions stay clean.
	if ph := tr.Health()[1]; ph.Retries != 0 || ph.Failovers != 0 {
		t.Errorf("partition 1 counted faults it never had: %+v", ph)
	}
}

// TestReplicatedHealthWithoutRegistry: counters still count with no
// registry attached (Health is not telemetry-gated).
func TestReplicatedHealthWithoutRegistry(t *testing.T) {
	groups, flaky := localGroups(t, 2)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	flaky[2][0].failNext.Store(1)
	for i := 0; i < 10 && tr.Health()[2].Retries == 0; i++ {
		if rep := submitOne(t, tr, 2, 4); rep.Err != nil {
			t.Fatalf("failover did not rescue the batch: %v", rep.Err)
		}
	}
	ph := tr.Health()[2]
	if ph.Retries == 0 || ph.Failovers == 0 {
		t.Errorf("registry-free transport lost its counts: %+v", ph)
	}
}

// TestTCPReplicaDialerHandshake: the exported dialer runs the full
// handshake per dial and produces a working replica.
func TestTCPReplicaDialerHandshake(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards, 6)
	defer stop()
	rep, err := TCPReplicaDialer(0, addrs[0], 3, 6, testGraphSum, testPartSum)(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if r := rep.Run(wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 7, Seeds: []int32{0}}}); r.Err != nil || len(r.Results) != 1 || r.Results[0].Query != 7 {
		t.Fatalf("bad reply through TCPReplicaDialer: %+v", r)
	}
	if h := rep.Hello(); h.NumShards != 3 {
		t.Fatalf("dialed replica's hello: %+v", h)
	}
}
