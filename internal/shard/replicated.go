package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dsr/internal/obs"
	"dsr/internal/wire"
)

// defaultReconnectEvery is how often the background loop retries dead
// replicas when ReplicatedOptions doesn't say otherwise.
const defaultReconnectEvery = time.Second

// ReplicatedOptions tunes the transport.
type ReplicatedOptions struct {
	// ReconnectEvery is the period of the background loop that redials
	// dead replicas (every redial re-runs the full handshake, so a
	// replica that restarted wrong stays dead). 0 means the 1s default;
	// negative disables background reconnection entirely — dead
	// replicas are then only retried when their partition has no live
	// replica left.
	ReconnectEvery time.Duration
	// Metrics, if non-nil, receives the transport's failover telemetry:
	// per-partition retry/failover/redial counters, live-replica gauges,
	// and per-replica RPC latency histograms (see README.md). Health()
	// works either way — the counters it reads always exist.
	Metrics *obs.Registry
}

// counterOr binds name in reg, or returns a standalone counter when reg
// is nil — Replicated's failover counters must count regardless of
// whether the deployment exports metrics, because Health() reports them.
func counterOr(reg *obs.Registry, name string) *obs.Counter {
	if c := reg.Counter(name); c != nil {
		return c
	}
	return &obs.Counter{}
}

// Replicated is the coordinator's Transport: partition p is served by a
// set of one or more interchangeable replicas — TCP connections to
// dsr-shard servers (Dial, DialReplicated), in-process Shards
// (NewLoopback), or anything else behind a ReplicaDialer. Each
// partition has one long-lived goroutine that owns its replica set and
// serves every call for the partition, batch or summary fetch, one at a
// time, through one failover loop: the first live replica in endpoint
// order — so a partition's rounds all land on one warm replica and its
// siblings stand by — then, when that one fails, it is marked dead and
// the next is tried (local searches are idempotent reads over an
// immutable subgraph, so a retry is always safe); with none left the
// dead ones are redialed as a last resort, and only when that fails too
// does the caller see an error, a *ReplicaSetError detailing every
// replica's failure. A slow replica is waited for, never raced. Dead
// replicas are redialed in the background, off the partition
// goroutines. A set of one is the same machinery with no sibling: a
// failure fails that batch, and the next redials.
//
// A batch that succeeds at its first replica costs no allocation: the
// Reply is handed over as the replica built it, aliasing that replica's
// buffers.
type Replicated struct {
	sets []*replicaSet
	id   *expect // the fleet identity every redial is held to; set by pin

	// ctx is the transport's lifetime: cancelled by Close, which stops
	// the partition goroutines and the reconnect loop and aborts
	// redials in flight.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // partition goroutines and the reconnect loop
}

// MismatchError reports a replica whose hello disagrees with the
// identity it is held to: a vertex count, graph fingerprint or
// partitioning digest other than shard PartA's (-1: the caller's own
// expectation), or a summary digest other than the one a sibling
// replica of its partition announced (PartA == PartB). The fleet
// identity is taken once, at construction, from the live replicas: a
// live replica that disagrees then fails construction with this error,
// and one that disagrees at a later redial is refused and stays dead.
// The coordinator holds no graph of its own to arbitrate with, and a
// disagreement would mean silently wrong answers, not errors.
type MismatchError struct {
	Field        string // "vertex count", "graph fingerprint", "partitioning digest", "summary digest"
	PartA, PartB int    // where the expected value came from, and the disagreeing shard
	A, B         uint64 // the expected and the reported value
}

// mismatchWhat says what a disagreement on each identity field means.
var mismatchWhat = map[string]string{
	"vertex count":        "has a different number of vertices",
	"graph fingerprint":   "was built from a different graph",
	"partitioning digest": "was built with a different partitioning",
	"summary digest":      "ships a different summary",
}

func (e *MismatchError) Error() string {
	ref := fmt.Sprintf("shard %d has", e.PartA)
	switch {
	case e.PartA < 0:
		ref = "expected"
	case e.PartA == e.PartB:
		ref = "a sibling replica has"
	}
	verb := "%#x"
	if e.Field == "vertex count" {
		verb = "%d"
	}
	return fmt.Sprintf("shard: fleet mismatch: shard %d %s (%s "+verb+"; %s "+verb+")",
		e.PartB, mismatchWhat[e.Field], e.Field, e.B, ref, e.A)
}

// expect is a deployment identity replicas' hellos are held to, by the
// one rule, check: the caller's expectation at every dial (ref -1), and
// the fleet's own identity (pin) at construction and every redial after.
// numVertices < 0 skips the vertex-count check; a zero fingerprint or
// digest on either side skips that check. summaries holds per partition
// the summary digest its replicas must announce. Replicas with no
// handshake identity (hello NumShards == 0, i.e. in-process replicas)
// are exempt.
type expect struct {
	ref         int // the partition whose hello the identity came from; -1: the caller's
	numVertices int
	graph, part uint64
	summaries   []uint64
}

// check holds a replica's hello to e, reporting a *MismatchError.
func (e *expect) check(h wire.Hello) error {
	p := int(h.ShardID)
	mismatch := func(field string, want, got uint64) error {
		return &MismatchError{Field: field, PartA: e.ref, PartB: p, A: want, B: got}
	}
	switch {
	case e == nil || h.NumShards == 0:
		return nil
	case e.numVertices >= 0 && int(h.NumVertices) != e.numVertices:
		return mismatch("vertex count", uint64(e.numVertices), uint64(h.NumVertices))
	case e.graph != 0 && h.Graph != 0 && h.Graph != e.graph:
		return mismatch("graph fingerprint", e.graph, h.Graph)
	case e.part != 0 && h.Partitioning != 0 && h.Partitioning != e.part:
		return mismatch("partitioning digest", e.part, h.Partitioning)
	case p < len(e.summaries) && e.summaries[p] != 0 && h.SummaryDigest != 0 && h.SummaryDigest != e.summaries[p]:
		return &MismatchError{Field: "summary digest", PartA: p, PartB: p, A: e.summaries[p], B: h.SummaryDigest}
	}
	return nil
}

// pin takes the fleet identity from the live replicas' hellos — vertex
// count, graph fingerprint and partitioning digest from the first that
// presents a handshake identity, each partition's summary digest from
// its first live replica — and holds every live replica to it. It runs
// once, at the end of construction, before anything else sees r.
func (r *Replicated) pin() error {
	id := &expect{ref: -1, numVertices: -1, summaries: make([]uint64, len(r.sets))}
	for _, rs := range r.sets {
		for i := range rs.eps {
			rep := rs.eps[i].rep
			if rep == nil {
				continue
			}
			h := rep.Hello()
			if err := id.check(h); err != nil {
				return err
			}
			if h.NumShards == 0 {
				continue
			}
			if id.ref < 0 {
				id.ref, id.numVertices, id.graph, id.part = rs.part, int(h.NumVertices), h.Graph, h.Partitioning
			}
			if id.summaries[rs.part] == 0 {
				id.summaries[rs.part] = h.SummaryDigest
			}
		}
	}
	r.id = id
	return nil
}

// replicaSet is one partition's replicas: the endpoints are fixed at
// construction, each holding the replica currently dialed to it or nil
// while it is dead.
type replicaSet struct {
	tr    *Replicated
	part  int
	tried []bool // endpoints that failed the call in progress; serve's own

	sendMu  sync.Mutex   // orders sends on reqs against Close closing it
	reqs    chan request // to the partition goroutine, serve
	stopped bool         // reqs is closed

	mu     sync.Mutex
	eps    []endpoint
	live   int // endpoints holding a replica; liveG mirrors it
	closed bool

	dialMu sync.Mutex // serializes redials so an endpoint is never dialed twice at once

	// Failover telemetry. The counters are never nil (counterOr) so
	// Health() reports real numbers even without a registry; liveG and
	// the endpoints' lat may be nil instruments (no-ops) when metrics are
	// disabled.
	retries   *obs.Counter // shard_retries_total{partition=p}
	failovers *obs.Counter // shard_failovers_total{partition=p}
	redials   *obs.Counter // shard_redials_total{partition=p}
	liveG     *obs.Gauge   // shard_replicas_live{partition=p}
}

// endpoint is one replica slot of a partition. Everything but dial and
// lat is guarded by the set's mu.
type endpoint struct {
	dial    ReplicaDialer
	lat     *obs.Histogram // shard_rpc_latency_ns{partition=p,replica=i}
	rep     Replica        // the live replica, nil while dead
	lastErr error          // why it died, for the all-replicas-failed detail

	// Identity as last observed at a successful dial — kept while the
	// replica is dead, so Endpoints() can still name what used to serve
	// the slot. Empty for replicas without a network endpoint
	// (in-process ones).
	addr  string
	hello wire.Hello
}

// request is one call for a partition goroutine: a task batch, answered
// on replyc, or a summary fetch (sumc set) bounded by ctx.
type request struct {
	hdr    wire.BatchHeader
	tasks  []wire.Task
	replyc chan<- Reply
	ctx    context.Context
	sumc   chan<- summaryReply
}

type summaryReply struct {
	info SummaryInfo
	err  error
}

// fail answers the request with err.
func (req *request) fail(part int, err error) {
	if req.sumc != nil {
		req.sumc <- summaryReply{err: err}
	} else {
		req.replyc <- Reply{Shard: part, Err: err}
	}
}

// NewReplicated dials every replica of every partition and returns the
// transport. ctx bounds only the construction dials; the transport's own
// lifetime is governed by Close. Construction requires at least one live
// replica per partition (a partition with zero replicas up cannot answer
// anything); replicas that fail to dial start out dead and are retried
// by the reconnect loop. groups[p] lists partition p's dialers.
//
// The live replicas' hellos fix the fleet identity (pin): a live replica
// that disagrees with it fails construction with a *MismatchError, and
// every later redial is held to it.
func NewReplicated(ctx context.Context, groups [][]ReplicaDialer, opts ReplicatedOptions) (*Replicated, error) {
	if len(groups) == 0 {
		return nil, errors.New("shard: no replica groups")
	}
	r := &Replicated{sets: make([]*replicaSet, len(groups))}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for p, dialers := range groups {
		if len(dialers) == 0 {
			r.Close()
			return nil, fmt.Errorf("shard: partition %d has no replicas", p)
		}
		rs := &replicaSet{
			tr:        r,
			part:      p,
			reqs:      make(chan request, 1), // so a Submit to an idle partition never waits
			tried:     make([]bool, len(dialers)),
			eps:       make([]endpoint, len(dialers)),
			retries:   counterOr(opts.Metrics, obs.Name("shard_retries_total", "partition", p)),
			failovers: counterOr(opts.Metrics, obs.Name("shard_failovers_total", "partition", p)),
			redials:   counterOr(opts.Metrics, obs.Name("shard_redials_total", "partition", p)),
			liveG:     opts.Metrics.Gauge(obs.Name("shard_replicas_live", "partition", p)),
		}
		r.sets[p] = rs
		for i, dial := range dialers {
			rs.eps[i].dial = dial
			rs.eps[i].lat = opts.Metrics.Histogram(obs.Name("shard_rpc_latency_ns", "partition", p, "replica", i))
			rep, err := dial(ctx)
			if err != nil {
				rs.eps[i].lastErr = err
				continue
			}
			rs.install(i, rep)
		}
		if rs.live == 0 { // nothing else can see rs yet
			r.Close()
			return nil, fmt.Errorf("shard: partition %d: no replica reachable: %w", p, rs.allFailed())
		}
	}
	if err := r.pin(); err != nil {
		r.Close()
		return nil, err
	}
	for _, rs := range r.sets {
		r.wg.Add(1)
		go rs.serve()
	}
	every := opts.ReconnectEvery
	if every == 0 {
		every = defaultReconnectEvery
	}
	if every > 0 {
		r.wg.Add(1)
		go r.reconnectLoop(every)
	}
	return r, nil
}

// DialReplicated connects to a TCP deployment: groups[p] lists the
// dsr-shard addresses serving partition p (any of them may be down, as
// long as each partition has at least one up). ctx bounds the
// construction dials. Every dial — at construction and on every redial
// — runs the full hello handshake: wantVertices < 0 skips the
// vertex-count check, a zero wantGraph or wantPart skips that digest.
func DialReplicated(ctx context.Context, groups [][]string, wantVertices int, wantGraph, wantPart uint64, opts ReplicatedOptions) (*Replicated, error) {
	// One set of net_client_* frame counters for every connection: the
	// first to each address and each redial.
	met := newNetMetrics(opts.Metrics, "net_client")
	want := expect{ref: -1, numVertices: wantVertices, graph: wantGraph, part: wantPart}
	dialers := make([][]ReplicaDialer, len(groups))
	for p, addrs := range groups {
		dialers[p] = make([]ReplicaDialer, len(addrs))
		for i, addr := range addrs {
			dialers[p][i] = func(ctx context.Context) (Replica, error) {
				return dialShard(ctx, p, addr, len(groups), want, met)
			}
		}
	}
	return NewReplicated(ctx, dialers, opts)
}

// Dial is DialReplicated for an unreplicated deployment with default
// options: addrs[p] is the one server of partition p.
func Dial(ctx context.Context, addrs []string, wantVertices int, wantGraph, wantPart uint64) (*Replicated, error) {
	groups := make([][]string, len(addrs))
	for p, addr := range addrs {
		groups[p] = []string{addr}
	}
	return DialReplicated(ctx, groups, wantVertices, wantGraph, wantPart, ReplicatedOptions{})
}

// PartitionHealth is one partition's replica-health snapshot: how many
// replicas are configured and live, and the cumulative failover activity
// since the transport was built.
type PartitionHealth struct {
	Partition int    // partition index
	Replicas  int    // configured replica count
	Live      int    // currently-connected replicas
	Retries   uint64 // batches re-run on a sibling after a replica failed
	Failovers uint64 // live->dead transitions
	Redials   uint64 // dial attempts against dead endpoints
}

// Health snapshots every partition's replica health. It works whether or
// not the transport was built with a metrics registry — the counters it
// reads always count. Live is observability, not a correctness signal:
// a "live" replica may die on next use.
func (r *Replicated) Health() []PartitionHealth {
	out := make([]PartitionHealth, len(r.sets))
	for p, rs := range r.sets {
		rs.mu.Lock()
		live := rs.live
		rs.mu.Unlock()
		out[p] = PartitionHealth{
			Partition: p,
			Replicas:  len(rs.eps),
			Live:      live,
			Retries:   rs.retries.Load(),
			Failovers: rs.failovers.Load(),
			Redials:   rs.redials.Load(),
		}
	}
	return out
}

// Submit hands the batch to partition p's goroutine, which answers it
// on replyc once it has run through the failover loop. It waits only
// while an earlier call is queued behind the one that goroutine serves,
// which the engine, one round at a time, never makes.
func (r *Replicated) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	if !r.sets[p].send(request{hdr: h, tasks: tasks, replyc: replyc}) {
		replyc <- Reply{Shard: p, Err: ErrClosed}
	}
}

// Endpoints describes every (partition, replica) endpoint that was
// dialed at an address: that address, the metrics address the replica
// announced in its hello, and whether it is currently live. Dead
// replicas keep the identity they last presented, so a fleet view can
// still name them; in-process replicas have no address and are left
// out.
func (r *Replicated) Endpoints() []EndpointInfo {
	var eps []EndpointInfo
	for _, rs := range r.sets {
		rs.mu.Lock()
		for i := range rs.eps {
			if ep := &rs.eps[i]; ep.addr != "" {
				eps = append(eps, EndpointInfo{
					Partition:   rs.part,
					Replica:     i,
					Addr:        ep.addr,
					MetricsAddr: ep.hello.MetricsAddr,
					Live:        ep.rep != nil,
				})
			}
		}
		rs.mu.Unlock()
	}
	return eps
}

// Summary fetches partition p's boundary summary through the same
// failover loop as Submit, so a replica dying mid-fetch is
// transparently replaced by a sibling. The SummaryInfo pairs the
// summary with the serving replica's dial-time hello. A summary whose
// digest is not the one its replica announced in that hello is refused
// like a failed fetch: the fleet identity vouches only for announced
// digests. ctx bounds the whole attempt chain: it bails out early
// rather than burning the remaining candidates on a deadline that
// already passed.
func (r *Replicated) Summary(ctx context.Context, p int) (SummaryInfo, error) {
	sumc := make(chan summaryReply, 1)
	if !r.sets[p].send(request{ctx: ctx, sumc: sumc}) {
		return SummaryInfo{}, ErrClosed
	}
	sr := <-sumc
	return sr.info, sr.err
}

// Close stops the reconnect loop, closes every live replica — which
// ends a call in progress, whose failover loop then finds nothing left
// to try — and waits for every transport-owned goroutine. Safe to call
// more than once.
func (r *Replicated) Close() error {
	r.cancel()
	for _, rs := range r.sets {
		if rs != nil {
			rs.closeAll()
			rs.sendMu.Lock()
			if !rs.stopped {
				rs.stopped = true
				close(rs.reqs)
			}
			rs.sendMu.Unlock()
		}
	}
	r.wg.Wait()
	return nil
}

func (r *Replicated) reconnectLoop(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			for _, rs := range r.sets {
				rs.redial(r.ctx, nil)
			}
		}
	}
}

// send hands req to the partition goroutine, which answers it; it
// reports false, leaving the answer to the caller, once the transport is
// closed.
func (rs *replicaSet) send(req request) bool {
	rs.sendMu.Lock()
	defer rs.sendMu.Unlock()
	if !rs.stopped {
		rs.reqs <- req
	}
	return !rs.stopped
}

// serve is the partition's goroutine: it answers the set's calls one at
// a time, those sent before Close included.
func (rs *replicaSet) serve() {
	defer rs.tr.wg.Done()
	for req := range rs.reqs {
		rs.call(&req)
	}
}

// call runs one request through the failover loop, answering it
// exactly once: each replica at most once, the first live one in
// endpoint order first — the fixed order keeps a partition's rounds on
// the replica whose caches the last round warmed — and, only when none
// is left, a last-resort redial of the dead ones. A replica that fails
// is marked dead and the request moves on.
func (rs *replicaSet) call(req *request) {
	ctx := rs.tr.ctx
	if req.sumc != nil {
		// A fetch, and a redial for it, end with the caller's ctx too.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(req.ctx)
		defer cancel()
		defer context.AfterFunc(rs.tr.ctx, cancel)()
	}
	clear(rs.tried)
	for attempts := 0; ; attempts++ {
		if req.sumc != nil && req.ctx.Err() != nil {
			req.fail(rs.part, fmt.Errorf("shard %d: summary: %w", rs.part, req.ctx.Err()))
			return
		}
		i, rep := rs.pick(rs.tried)
		if rep == nil {
			rs.redial(ctx, rs.tried)
			if i, rep = rs.pick(rs.tried); rep == nil {
				req.fail(rs.part, rs.allFailed())
				return
			}
		}
		if attempts > 0 {
			rs.retries.Inc() // this call is being re-run on a sibling
		}
		err := rs.attempt(ctx, req, i, rep)
		if err == nil {
			return
		}
		rs.tried[i] = true
		rs.markDead(i, err)
		rep.Close()
	}
}

// attempt runs req on replica i, answering it on success.
func (rs *replicaSet) attempt(ctx context.Context, req *request, i int, rep Replica) error {
	if req.sumc == nil {
		start := time.Now()
		reply := rep.Run(req.hdr, req.tasks)
		rs.eps[i].lat.ObserveSince(start)
		if reply.Err != nil {
			return reply.Err
		}
		reply.Shard = rs.part
		req.replyc <- reply
		return nil
	}
	sum, err := rep.Summary(ctx)
	if d := rep.Hello().SummaryDigest; err == nil && d != 0 && sum.Digest() != d {
		err = fmt.Errorf("shard %d: summary digest %#x, not the %#x its replica announced", rs.part, sum.Digest(), d)
	}
	if err == nil {
		req.sumc <- summaryReply{info: SummaryInfo{Hello: rep.Hello(), Summary: sum}}
	}
	return err
}

// pick returns the first live replica in endpoint order not in skip,
// or -1 and nil if none remains.
func (rs *replicaSet) pick(skip []bool) (int, Replica) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := range rs.eps {
		if rep := rs.eps[i].rep; rep != nil && !rs.closed && !(skip != nil && skip[i]) {
			return i, rep
		}
	}
	return -1, nil
}

// redial dials every dead endpoint not in skip once and installs what
// comes back. For the in-query last resort (skip non-nil) it stops as
// soon as a replica is live: with no healthy replica left the call
// would fail anyway, and a fresh dial catches a replica that came back
// between reconnect ticks. Only that redial runs on a partition
// goroutine; the reconnect loop's dials stay off them.
func (rs *replicaSet) redial(ctx context.Context, skip []bool) {
	rs.dialMu.Lock()
	defer rs.dialMu.Unlock()
	for i := range rs.eps {
		if skip != nil {
			if j, _ := rs.pick(skip); j >= 0 {
				return // live already, maybe revived by the reconnect loop
			}
		}
		rs.mu.Lock()
		dead := rs.eps[i].rep == nil && !rs.closed
		rs.mu.Unlock()
		// A done ctx: transport closed (or deadline hit) mid-redial.
		if !dead || (skip != nil && skip[i]) || ctx.Err() != nil {
			continue
		}
		rs.redials.Inc()
		rep, err := rs.eps[i].dial(ctx)
		if err != nil {
			rs.mu.Lock()
			rs.eps[i].lastErr = err
			rs.mu.Unlock()
			continue
		}
		rs.install(i, rep)
	}
}

// install stores a freshly dialed replica in endpoint i. A replica that
// fails the fleet identity is closed, with the mismatch as the
// endpoint's lastErr — it stays dead until it comes back serving the
// right deployment — as is one whose set was closed mid-dial.
func (rs *replicaSet) install(i int, rep Replica) {
	rs.mu.Lock()
	ep := &rs.eps[i]
	if !rs.closed {
		ep.lastErr = rs.tr.id.check(rep.Hello())
	}
	if rs.closed || ep.lastErr != nil {
		rs.mu.Unlock()
		rep.Close()
		return
	}
	ep.rep = rep
	if cc, ok := rep.(*clientConn); ok {
		ep.addr, ep.hello = cc.addr, cc.hello
	}
	rs.live++
	rs.liveG.Set(int64(rs.live))
	rs.mu.Unlock()
}

// markDead empties endpoint i, which failed with err — unless Close
// emptied it first. The caller closes the replica.
func (rs *replicaSet) markDead(i int, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if ep := &rs.eps[i]; ep.rep != nil {
		ep.rep, ep.lastErr = nil, err
		rs.failovers.Inc() // a live replica just transitioned to dead
		rs.live--
		rs.liveG.Set(int64(rs.live))
	}
}

// closeAll empties every live endpoint and closes its replica, which
// ends a call in progress on it.
func (rs *replicaSet) closeAll() {
	rs.mu.Lock()
	rs.closed = true
	var live []Replica
	for i := range rs.eps {
		if ep := &rs.eps[i]; ep.rep != nil {
			live = append(live, ep.rep)
			ep.rep, ep.lastErr = nil, ErrClosed
		}
	}
	rs.live = 0
	rs.liveG.Set(0)
	rs.mu.Unlock()
	for _, rep := range live {
		rep.Close()
	}
}

// allFailed snapshots the per-replica detail for a call that found no
// replica to answer it.
func (rs *replicaSet) allFailed() *ReplicaSetError {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e := &ReplicaSetError{Part: rs.part, Replicas: make([]ReplicaError, len(rs.eps))}
	for i := range rs.eps {
		e.Replicas[i] = ReplicaError{Replica: i, Err: rs.eps[i].lastErr}
		if e.Replicas[i].Err == nil {
			e.Replicas[i].Err = errors.New("failed during this batch")
		}
	}
	return e
}

// ReplicaError is one replica's failure within a ReplicaSetError.
type ReplicaError struct {
	Replica int
	Err     error
}

// ReplicaSetError reports that every replica of a partition failed for
// one task batch — the only condition under which the transport
// surfaces an error to the coordinator.
type ReplicaSetError struct {
	Part     int
	Replicas []ReplicaError
}

// Unwrap exposes the per-replica causes to errors.Is and errors.As.
func (e *ReplicaSetError) Unwrap() []error {
	errs := make([]error, len(e.Replicas))
	for i, re := range e.Replicas {
		errs[i] = re.Err
	}
	return errs
}

func (e *ReplicaSetError) Error() string {
	s := fmt.Sprintf("all %d replica(s) of partition %d failed:", len(e.Replicas), e.Part)
	for _, re := range e.Replicas {
		s += fmt.Sprintf(" [replica %d: %v]", re.Replica, re.Err)
	}
	return s
}
