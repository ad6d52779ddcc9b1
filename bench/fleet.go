package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/serve"
	"dsr/internal/shard"
)

// fleetSpec is one deployment shape: K partitions × R replicas under a
// dsr-shard -partitioner spec.
type fleetSpec struct {
	K, R        int
	Partitioner string
}

// The two fleets. loc is the regime the paper targets (locality
// partitioning, small boundary) and, being replicated, runs
// shard.Replicated; hash is the worst case (~every vertex boundary)
// over the plain shard.Client.
var fleets = map[string]fleetSpec{
	"loc":  {K: 3, R: 2, Partitioner: "locality:seed=1"},
	"hash": {K: 3, R: 1, Partitioner: "hash"},
}

// probe is a query with a known answer; a fleet counts as up once it
// answers it correctly.
type probe struct {
	S, T []graph.VertexID
	Want bool
}

// procFleet is K×R dsr-shard processes behind one dsr-serve process,
// all on loopback TCP with production-default flags.
type procFleet struct {
	shards      []*proc
	serve       *proc
	addr        string
	metricsAddr string
	serveArgs   []string
}

const (
	bootTimeout = 60 * time.Second
	termTimeout = 15 * time.Second
)

// bootProcs execs the fleet and returns it with the set-up time: from
// the first dsr-shard's exec to the first correct answer through
// dsr-serve. That spans edge-list load, partitioning, extraction, SCC
// condensation, index build, summary shipping and boundary stitching.
func bootProcs(sb *sandbox, binDir string, spec fleetSpec, graphPath string, pr probe) (*procFleet, time.Duration, error) {
	t0 := time.Now()
	f := &procFleet{}
	for p := 0; p < spec.K; p++ {
		for r := 0; r < spec.R; r++ {
			sh, err := sb.start(fmt.Sprintf("dsr-shard %d/%d", p, r), filepath.Join(binDir, "dsr-shard"),
				"-graph", graphPath, "-shards", fmt.Sprint(spec.K), "-id", fmt.Sprint(p), "-replica", fmt.Sprint(r),
				"-partitioner", spec.Partitioner, "-listen", "127.0.0.1:0")
			if err != nil {
				return nil, 0, err
			}
			f.shards = append(f.shards, sh)
		}
	}
	groups := make([]string, spec.K)
	for p := range groups {
		addrs := make([]string, spec.R)
		for r := range addrs {
			addr, err := f.shards[p*spec.R+r].await(f.shards[p*spec.R+r].addrc, bootTimeout)
			if err != nil {
				return nil, 0, err
			}
			addrs[r] = addr
		}
		groups[p] = strings.Join(addrs, "|")
	}
	// Only deployment addresses are passed: every serving knob keeps its
	// production default (250µs window, 64 max batch, 4096-entry cache,
	// 1024 queued, 256 per client, 4 in flight, hedging off).
	f.serveArgs = []string{"-shards", strings.Join(groups, ","), "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}
	sv, err := sb.start("dsr-serve", filepath.Join(binDir, "dsr-serve"), f.serveArgs...)
	if err != nil {
		return nil, 0, err
	}
	f.serve = sv
	// The metrics line is logged before the fleet connect, the serving
	// line after it.
	if f.metricsAddr, err = sv.await(sv.metricsc, bootTimeout); err != nil {
		return nil, 0, err
	}
	if f.addr, err = sv.await(sv.addrc, bootTimeout); err != nil {
		return nil, 0, err
	}
	c, err := serve.Dial(f.addr)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	got, err := c.Query(pr.S, pr.T)
	if err != nil {
		return nil, 0, fmt.Errorf("probe query: %w", err)
	}
	if got != pr.Want {
		return nil, 0, fmt.Errorf("probe query answered %v, oracle says %v", got, pr.Want)
	}
	return f, time.Since(t0), nil
}

func (f *procFleet) Addr() string { return f.addr }

func (f *procFleet) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + f.metricsAddr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// procs lists the fleet's processes front to back.
func (f *procFleet) procs() []*proc { return append([]*proc{f.serve}, f.shards...) }

// stop drains the fleet front to back. dsr-serve must exit 0 on
// SIGTERM, and no process may have died on its own: either is a failed
// run, not a metric.
func (f *procFleet) stop() error {
	var first error
	for _, p := range f.procs() {
		if err := p.term(termTimeout); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// alive reports the first child that exited without being asked to.
func (f *procFleet) alive() error {
	for _, p := range f.procs() {
		if p.exited() {
			return fmt.Errorf("%s exited unexpectedly: %v\n%s", p.name, p.waitErr, p.stderrTail())
		}
	}
	return nil
}

// front is a serve.Server with default options on a loopback listener.
type front struct {
	srv    *serve.Server
	served chan error
	addr   string
	reg    *obs.Registry
}

// startFront serves q. reg receives the dsr_serve_* and dsr_cache_*
// instruments.
func startFront(q serve.Querier, reg *obs.Registry) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fr := &front{srv: serve.New(q, serve.Options{Metrics: reg}), served: make(chan error, 1), addr: ln.Addr().String(), reg: reg}
	go func() { fr.served <- fr.srv.Serve(ln) }()
	return fr, nil
}

func (fr *front) Addr() string                   { return fr.addr }
func (fr *front) Metrics() (obs.Snapshot, error) { return fr.reg.Snapshot(), nil }

// stop drains the server and waits for its accept loop.
func (fr *front) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), termTimeout)
	defer cancel()
	err := fr.srv.Shutdown(ctx)
	<-fr.served
	return err
}

// stubQuerier answers every query instantly: a serve.Server over it is
// the serving layer alone — parsing, cache, admission, batching,
// writing — with no engine behind it.
type stubQuerier struct{}

func (stubQuerier) QueryBatchErr(qs []dsr.Query) ([]bool, error) { return make([]bool, len(qs)), nil }

// localFleet is the same deployment inside this process: the shard
// servers dsr-shard runs, on loopback TCP listeners, the client
// transport dsr-serve would dial, and a serve.Server in front. With a
// tracer, the transport and the engine are wrapped in its recorders,
// which is where the traced run's spans come from.
type localFleet struct {
	*front
	pt      *graph.Partitioning
	shards  [][]*shard.Shard // [partition][replica]
	servers []*shard.Server
	eng     *dsr.Engine
}

// bootLocal partitions g, builds every replica's shard, and starts the
// fleet.
func bootLocal(ctx context.Context, g *graph.Graph, spec fleetSpec, tr *tracer) (*localFleet, error) {
	strat, err := locality.ParseSpec(spec.Partitioner)
	if err != nil {
		return nil, err
	}
	pt, err := strat.Partition(g, spec.K)
	if err != nil {
		return nil, err
	}
	f := &localFleet{pt: pt, shards: make([][]*shard.Shard, spec.K)}
	groups := make([][]string, spec.K)
	for p := 0; p < spec.K; p++ {
		for r := 0; r < spec.R; r++ {
			// One extraction per replica, as each dsr-shard process does:
			// a Subgraph caches its condensation unsynchronised, so
			// replicas must not share one.
			sh := shard.New(p, partition.ExtractOne(g, pt, p))
			srv := shard.NewServer(sh, spec.K, g.NumVertices(), g.Fingerprint(), pt.Digest())
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				f.stop()
				return nil, err
			}
			go srv.Serve(ln)
			f.shards[p] = append(f.shards[p], sh)
			f.servers = append(f.servers, srv)
			groups[p] = append(groups[p], ln.Addr().String())
		}
	}
	var tp shard.Transport
	if spec.R > 1 {
		tp, err = shard.DialReplicated(ctx, groups, -1, 0, 0, shard.ReplicatedOptions{})
	} else {
		single := make([]string, spec.K)
		for p := range single {
			single[p] = groups[p][0]
		}
		tp, err = shard.Dial(ctx, single, -1, 0, 0)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	if tr != nil {
		tp = &tracedTransport{inner: tp, tr: tr}
	}
	// Passing a registry arms the wire-level timing footer, as in
	// dsr-serve (which always has one).
	reg := obs.NewRegistry()
	f.eng, err = dsr.ConnectTransport(ctx, tp, spec.K, -1, dsr.Options{Metrics: reg})
	if err != nil {
		tp.Close()
		f.stop()
		return nil, err
	}
	var q serve.Querier = f.eng
	if tr != nil {
		q = &tracedQuerier{inner: f.eng, tr: tr}
	}
	if f.front, err = startFront(q, reg); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the serving layer, the engine and the shard servers down
// and waits for each.
func (f *localFleet) stop() error {
	var err error
	if f.front != nil {
		err = f.front.stop()
	}
	if f.eng != nil {
		f.eng.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	return err
}

// firstReplicas returns one shard per partition.
func (f *localFleet) firstReplicas() []*shard.Shard {
	shards := make([]*shard.Shard, len(f.shards))
	for p := range shards {
		shards[p] = f.shards[p][0]
	}
	return shards
}
