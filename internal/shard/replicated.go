package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Hedge configures hedged requests on the replica sets that have a
	// sibling to hedge on; it also binds dsr_hedges_total{partition} and
	// dsr_hedge_wins_total{partition} in Metrics.
	Hedge HedgeOptions
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
// dsr-shard servers (Dial, DialReplicated), in-process workers
// (NewLoopback), or anything else behind a ReplicaDialer. Submit routes
// each task batch to the first idle healthy replica in endpoint order,
// so with one round in flight a partition's rounds all land on one warm
// replica and its siblings stand by. Because local searches are
// idempotent — pure reads over an immutable subgraph — a batch whose
// send or receive fails mid-query is simply retried on a sibling
// replica. A replica that fails is marked
// dead and periodically redialed in the background; only when every
// replica of a partition fails within one Submit does the coordinator
// see an error Reply, and that Reply's Err details every replica's
// failure. A set of one is the same machinery with no sibling: a
// failure fails that batch, and the next redials.
//
// Built with ReplicatedOptions.Hedge, a set that has a sibling also owns
// hedging end to end (hedge.go): a batch that outlasts the deadline is
// re-sent to an idle sibling, the first success is the Submit's one
// Reply, and the loser is dropped unread when it finally answers.
//
// Without hedging, a batch that succeeds at its first replica costs no
// goroutine, no timer and no allocation: the replica's own goroutine
// hands the Reply over, aliasing that replica's buffers.
type Replicated struct {
	sets  []*replicaSet
	hedge HedgeOptions // defaults filled; Enabled only if some set has a sibling

	// ctx is the transport's lifetime: cancelled by Close so redials
	// (reconnect loop, in-query last resorts) abort promptly instead of
	// finishing a doomed dial against a dead deployment.
	ctx    context.Context
	cancel context.CancelFunc

	loopWG sync.WaitGroup // background reconnect loop
	calls  sync.WaitGroup // batches and summary fetches in flight

	mu     sync.Mutex
	closed bool
}

// Expect is a deployment identity a replica's hello is held to: the
// caller's expectation at every dial and, once pinned (Pin), what the
// fleet itself reported at connect time — a graph-free coordinator
// learns vertex count, graph fingerprint and partitioning digest from
// the fleet, and pinning them makes every redial re-verify that a
// restarted replica still serves the same deployment. NumVertices < 0
// skips the vertex-count check; a zero fingerprint or digest on either
// side skips that check. Summaries, once pinned, holds per partition the
// digest of the summary the coordinator stitched (wire.Summary.Digest):
// a replica that ships another summary is refused like one built from
// another graph. Replicas with no handshake identity (hello
// NumShards == 0, i.e. in-process replicas) are exempt.
type Expect struct {
	NumVertices int
	Graph       uint64
	Part        uint64
	Summaries   []uint64
}

// check validates a replica's dial-time hello against e.
func (e *Expect) check(h wire.Hello) error {
	switch {
	case e == nil || h.NumShards == 0:
		return nil
	case e.NumVertices >= 0 && int(h.NumVertices) != e.NumVertices:
		return fmt.Errorf("server graph has %d vertices, expected %d", h.NumVertices, e.NumVertices)
	case e.Graph != 0 && h.Graph != 0 && h.Graph != e.Graph:
		return fmt.Errorf("server built from a different graph (fingerprint %#x, expected %#x)", h.Graph, e.Graph)
	case e.Part != 0 && h.Partitioning != 0 && h.Partitioning != e.Part:
		return fmt.Errorf("server built with a different partitioning (digest %#x, expected %#x — same -partitioner spec everywhere?)", h.Partitioning, e.Part)
	case int(h.ShardID) < len(e.Summaries) && e.Summaries[h.ShardID] != 0 && h.SummaryDigest != 0 && h.SummaryDigest != e.Summaries[h.ShardID]:
		return fmt.Errorf("server ships a different summary (digest %#x, expected %#x — every replica from the same build?)", h.SummaryDigest, e.Summaries[h.ShardID])
	}
	return nil
}

// verify holds rep to the pinned fleet identity, if any.
func (rs *replicaSet) verify(rep Replica) error {
	if err := rs.expect.check(rep.Hello()); err != nil {
		return fmt.Errorf("shard %d: fleet identity pinned at connect: %w", rs.part, err)
	}
	return nil
}

// replicaSet is one partition's replicas: the endpoints are fixed at
// construction, each holding the conn currently dialed to it or nil
// while it is dead.
type replicaSet struct {
	tr   *Replicated
	part int

	mu     sync.Mutex
	eps    []endpoint
	live   int // endpoints holding a conn; liveG mirrors it
	closed bool
	expect *Expect // pinned fleet identity, nil until Pin

	dialMu sync.Mutex // serializes redials so loop and Submit don't race a dial

	// Failover telemetry. The counters are never nil (counterOr) so
	// Health() reports real numbers even without a registry; liveG and
	// the endpoints' lat may be nil instruments (no-ops) when metrics are
	// disabled.
	retries   *obs.Counter // shard_retries_total{partition=p}
	failovers *obs.Counter // shard_failovers_total{partition=p}
	redials   *obs.Counter // shard_redials_total{partition=p}
	liveG     *obs.Gauge   // shard_replicas_live{partition=p}

	// Hedging. hedging marks a set that arms a deadline per call: one with
	// a sibling, on a transport built to hedge. primary is such a
	// transport's private sample of this partition's primary latency
	// (every set feeds the deadline estimate; nil, a no-op, without
	// hedging), so hedging works the same with metrics disabled.
	hedging   bool
	primary   *obs.Histogram
	hedges    *obs.Counter // dsr_hedges_total{partition=p}: duplicates sent
	hedgeWins *obs.Counter // dsr_hedge_wins_total{partition=p}: duplicates that answered first
}

// endpoint is one replica slot of a partition. Everything but dial and
// lat is guarded by the set's mu.
type endpoint struct {
	dial    ReplicaDialer
	lat     *obs.Histogram // shard_rpc_latency_ns{partition=p,replica=i}
	conn    *conn          // the live replica, nil while dead
	lastErr error          // why it died, for the all-replicas-failed detail

	// Identity as last observed at a successful dial — kept while the
	// replica is dead, so Endpoints() can still name what used to serve
	// the slot. Empty for replicas without a network endpoint
	// (in-process ones).
	addr  string
	hello wire.Hello
}

// conn is one dialed Replica occupying an endpoint. The in-flight batch
// lives here rather than in the endpoint because a redial can fill the
// slot with a fresh conn while a failed one still owes its answer.
type conn struct {
	rs   *replicaSet
	idx  int
	rep  Replica
	done func(Reply) // cn.deliver, bound once so a Submit allocates nothing

	busy bool // serving a batch or summary fetch; guarded by rs.mu
	call call // that batch; owned by whoever holds busy
}

// call is one Submit's progress through a replica set.
type call struct {
	hdr    wire.BatchHeader
	tasks  []wire.Task
	replyc chan<- Reply
	tried  []bool    // endpoints that already failed this batch; nil until one has
	start  time.Time // when the current attempt was handed to its replica
	race   *race     // shared with the call's hedge; nil unless the set is hedging
}

// NewReplicated dials every replica of every partition and returns the
// transport. ctx bounds only the construction dials; the transport's own
// lifetime is governed by Close. Construction requires at least one live
// replica per partition (a partition with zero replicas up cannot answer
// anything); replicas that fail to dial start out dead and are retried
// by the reconnect loop. groups[p] lists partition p's dialers.
func NewReplicated(ctx context.Context, groups [][]ReplicaDialer, opts ReplicatedOptions) (*Replicated, error) {
	if len(groups) == 0 {
		return nil, errors.New("shard: no replica groups")
	}
	r := &Replicated{sets: make([]*replicaSet, len(groups)), hedge: opts.Hedge.withDefaults()}
	r.hedge.Enabled = r.hedge.Enabled && slices.ContainsFunc(groups, func(g []ReplicaDialer) bool { return len(g) > 1 })
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for p, dialers := range groups {
		if len(dialers) == 0 {
			r.shutdown()
			return nil, fmt.Errorf("shard: partition %d has no replicas", p)
		}
		rs := &replicaSet{
			tr:        r,
			part:      p,
			eps:       make([]endpoint, len(dialers)),
			retries:   counterOr(opts.Metrics, obs.Name("shard_retries_total", "partition", p)),
			failovers: counterOr(opts.Metrics, obs.Name("shard_failovers_total", "partition", p)),
			redials:   counterOr(opts.Metrics, obs.Name("shard_redials_total", "partition", p)),
			liveG:     opts.Metrics.Gauge(obs.Name("shard_replicas_live", "partition", p)),
			hedging:   r.hedge.Enabled && len(dialers) > 1,
			hedges:    opts.Metrics.Counter(obs.Name("dsr_hedges_total", "partition", p)),
			hedgeWins: opts.Metrics.Counter(obs.Name("dsr_hedge_wins_total", "partition", p)),
		}
		if r.hedge.Enabled {
			rs.primary = &obs.Histogram{}
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
			rs.install(i, rep, false)
		}
		if rs.live == 0 { // nothing else can see rs yet
			r.shutdown()
			return nil, fmt.Errorf("shard: partition %d: no replica reachable: %w", p, rs.allFailed(nil))
		}
	}
	every := opts.ReconnectEvery
	if every == 0 {
		every = defaultReconnectEvery
	}
	if every > 0 {
		r.loopWG.Add(1)
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
	want := Expect{NumVertices: wantVertices, Graph: wantGraph, Part: wantPart}
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

// Pin stores the fleet identity every future redial must re-verify and
// sweeps currently-live replicas against it, killing any that mismatch
// (the reconnect loop will redial them, and the redial re-verifies). A
// graph-free coordinator calls this right after cross-checking the
// hellos it collected at connect time, closing the window where a
// replica restarted from a different deployment could rejoin unnoticed.
func (r *Replicated) Pin(e Expect) {
	for _, rs := range r.sets {
		rs.mu.Lock()
		rs.expect = &e
		rs.mu.Unlock()
		rs.evict(rs.verify)
	}
}

// evict empties every live endpoint that verdict condemns, recording
// its error as why the replica died, and closes those replicas —
// outside the lock: closing one waits for its goroutine.
func (rs *replicaSet) evict(verdict func(Replica) error) {
	rs.mu.Lock()
	var bad []Replica
	for i := range rs.eps {
		if ep := &rs.eps[i]; ep.conn != nil {
			if err := verdict(ep.conn.rep); err != nil {
				bad = append(bad, ep.conn.rep)
				ep.conn, ep.lastErr = nil, err
				rs.live--
			}
		}
	}
	rs.liveG.Set(int64(rs.live))
	rs.mu.Unlock()
	for _, rep := range bad {
		rep.Close()
	}
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

// begin admits one batch or summary fetch unless the transport is
// closed; an admitted call ends with calls.Done, which Close waits for.
func (r *Replicated) begin() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.calls.Add(1)
	}
	return !r.closed
}

// Submit routes the batch to a healthy replica of partition p,
// retrying siblings on failure; the one Reply (success from whichever
// replica answered first, or an all-replicas-failed error) is delivered
// on replyc. It never waits on a replica — the write to one aside — so
// the coordinator's fan-out is not held up by a slow or dying one.
func (r *Replicated) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	if !r.begin() {
		replyc <- Reply{Shard: p, Err: ErrClosed}
		return
	}
	rs := r.sets[p]
	c := call{hdr: h, tasks: tasks, replyc: replyc}
	if rs.hedging {
		c = rs.enter(c)
	}
	if cn := rs.pick(nil); cn != nil {
		cn.send(c)
	} else {
		// No idle live replica: a last-resort redial can take as long as
		// a dial does, so it runs beside the caller, not in front of it.
		go rs.attempt(c)
	}
	if rs.hedging {
		rs.arm(c)
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
					Partition:     rs.part,
					Replica:       i,
					Addr:          ep.addr,
					MetricsAddr:   ep.hello.MetricsAddr,
					SummaryDigest: ep.hello.SummaryDigest,
					Live:          ep.conn != nil,
				})
			}
		}
		rs.mu.Unlock()
	}
	return eps
}

// Summary fetches partition p's boundary summary with the same failover
// as Submit: healthy replicas in endpoint order, dead ones redialed
// as a last resort, each failure marking that replica dead — so a
// replica dying mid-fetch is transparently replaced by a sibling. The
// SummaryInfo pairs the summary with the serving replica's dial-time
// hello. ctx bounds the whole attempt chain: it bails out early rather
// than burning the remaining candidates on a deadline that already
// passed.
func (r *Replicated) Summary(ctx context.Context, p int) (SummaryInfo, error) {
	if !r.begin() {
		return SummaryInfo{}, ErrClosed
	}
	defer r.calls.Done()
	rs := r.sets[p]
	tried := make([]bool, len(rs.eps))
	for attempts := 0; ; attempts++ {
		if err := ctx.Err(); err != nil {
			return SummaryInfo{}, fmt.Errorf("shard %d: summary: %w", rs.part, err)
		}
		cn := rs.acquire(ctx, tried)
		if cn == nil {
			return SummaryInfo{}, rs.allFailed(tried)
		}
		if attempts > 0 {
			rs.retries.Inc()
		}
		tried[cn.idx] = true
		sum, err := cn.rep.Summary(ctx)
		if err == nil {
			rs.release(cn)
			return SummaryInfo{Hello: cn.rep.Hello(), Summary: sum}, nil
		}
		rs.markDead(cn, err)
	}
}

// Close stops the reconnect loop, closes every live replica (failing
// any in-flight batch, whose retry chain then ends in an error Reply),
// and waits for all transport-owned goroutines. Safe to call more than
// once.
func (r *Replicated) Close() error {
	r.mu.Lock()
	already := r.closed
	r.closed = true
	r.mu.Unlock()
	if !already {
		r.shutdown()
	}
	return nil
}

func (r *Replicated) shutdown() {
	r.cancel() // aborts in-flight redials along with the reconnect loop
	for _, rs := range r.sets {
		if rs != nil {
			rs.closeAll()
		}
	}
	r.loopWG.Wait()
	r.calls.Wait()
}

func (r *Replicated) reconnectLoop(every time.Duration) {
	defer r.loopWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			for _, rs := range r.sets {
				rs.redial(r.ctx, nil, false)
			}
		}
	}
}

// attempt hands c to the next replica worth trying, each at most once
// per batch: idle healthy replicas first in endpoint order, then —
// only if none remains — a last-resort redial of the dead ones. Only
// when every replica has failed does the caller get an error Reply,
// carrying each replica's failure.
func (rs *replicaSet) attempt(c call) {
	if cn := rs.acquire(rs.tr.ctx, c.tried); cn != nil {
		cn.send(c)
	} else {
		rs.exhausted(c)
	}
}

// exhausted ends a chain of attempts that found no replica to answer
// c: with the error Reply, unless c is a hedging call whose other chain
// is still running or has already answered.
func (rs *replicaSet) exhausted(c call) {
	if c.race != nil && !rs.lost(c) {
		rs.tr.calls.Done()
		return
	}
	rs.finish(c, Reply{Err: rs.allFailed(c.tried)})
}

// send starts c on the replica the caller has claimed.
func (cn *conn) send(c call) {
	if c.tried != nil {
		cn.rs.retries.Inc() // this batch is being re-run on a sibling
	}
	c.start = time.Now()
	cn.call = c
	cn.rep.Submit(c.hdr, c.tasks, cn.done)
}

// deliver is the replica's answer to the conn's in-flight batch, on the
// replica's goroutine. A failure gets a goroutine of its own to retry
// on: closing the failed replica waits for the very goroutine this may
// be running on, and a redial may follow. A success is handed over as it
// is: its Results alias the replica's buffers, which stay untouched
// until the replica's next submit — and the set hands a replica one
// batch at a time, the next no sooner than the coordinator's next
// Submit, as Transport allows. Only a call the set itself may overlap
// with a second submit takes the detour through answered.
func (cn *conn) deliver(reply Reply) {
	rs, c := cn.rs, cn.call
	rs.eps[cn.idx].lat.ObserveSince(c.start)
	switch {
	case reply.Err != nil:
		go rs.failed(cn, c, reply.Err)
	case c.race != nil:
		rs.answered(cn, c, reply)
	default:
		rs.primary.ObserveSince(c.start)
		rs.release(cn)
		rs.finish(c, reply)
	}
}

// failed retires the replica that failed c and moves c on to the next
// candidate, which is correct because local searches are idempotent
// reads. A hedge is not moved on, nor is the primary of a call its
// hedge has answered.
func (rs *replicaSet) failed(cn *conn, c call, err error) {
	rs.markDead(cn, err)
	if c.race != nil && !rs.pursues(cn, c) {
		rs.exhausted(c)
		return
	}
	if c.tried == nil {
		c.tried = make([]bool, len(rs.eps))
	}
	c.tried[cn.idx] = true
	rs.attempt(c)
}

// finish delivers c's one Reply and retires the call.
func (rs *replicaSet) finish(c call, reply Reply) {
	reply.Shard = rs.part
	c.replyc <- reply
	rs.tr.calls.Done()
}

// acquire claims the next replica to try for a batch or fetch that has
// already tried the given endpoints (nil: none yet): an idle live one,
// or failing that, a dead one brought back.
func (rs *replicaSet) acquire(ctx context.Context, tried []bool) *conn {
	if cn := rs.pick(tried); cn != nil {
		return cn
	}
	return rs.redial(ctx, tried, true)
}

// release returns a claimed conn to the idle pool.
func (rs *replicaSet) release(cn *conn) {
	rs.mu.Lock()
	cn.busy, cn.call = false, call{}
	rs.mu.Unlock()
}

// pick returns the first untried idle healthy replica in endpoint
// order, or nil if none remains, marking the returned replica busy.
// The fixed order keeps a partition's rounds on the replica whose
// caches the last round warmed; a sibling serves only while that one is
// busy or dead, or as a hedge. A standby that dies while idle is found
// when a round first fails over to it, like any dead replica.
// Skipping busy replicas is what keeps a hedge and its primary (and the
// primary's own sibling retries) on disjoint replicas: each replica
// serves at most one in-flight batch, so its decode buffers hold one
// reply at a time.
func (rs *replicaSet) pick(tried []bool) *conn {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.pickLocked(tried)
}

func (rs *replicaSet) pickLocked(tried []bool) *conn {
	if rs.closed {
		return nil
	}
	for idx := range rs.eps {
		if cn := rs.eps[idx].conn; cn != nil && !cn.busy && !(tried != nil && tried[idx]) {
			cn.busy = true
			return cn
		}
	}
	return nil
}

// redial dials every untried dead endpoint once; the reconnect loop
// parks whatever comes back for future picks. With claim set it is the
// in-query last resort — with no healthy replica left the batch would
// fail anyway, and a fresh dial catches a replica that came back
// between reconnect ticks — and returns the first replica to come up,
// claimed for the caller. Dials are serialized so an endpoint is never
// dialed twice concurrently.
func (rs *replicaSet) redial(ctx context.Context, tried []bool, claim bool) *conn {
	rs.dialMu.Lock()
	defer rs.dialMu.Unlock()
	if claim {
		// Another redial may have revived one while we waited for dialMu.
		if cn := rs.pick(tried); cn != nil {
			return cn
		}
	}
	for idx := range rs.eps {
		rs.mu.Lock()
		dead := rs.eps[idx].conn == nil && !rs.closed
		rs.mu.Unlock()
		// A done ctx: transport closed (or deadline hit) mid-redial.
		if !dead || (tried != nil && tried[idx]) || ctx.Err() != nil {
			continue
		}
		rs.redials.Inc()
		rep, err := rs.eps[idx].dial(ctx)
		if err != nil {
			rs.mu.Lock()
			rs.eps[idx].lastErr = err
			rs.mu.Unlock()
			continue
		}
		if cn := rs.install(idx, rep, claim); cn != nil && claim {
			return cn
		}
	}
	return nil
}

// install stores a freshly dialed replica, returning its conn — marked
// busy for the caller's own use if claim is set. A replica that fails
// the pinned fleet identity is closed, with the mismatch as the
// endpoint's lastErr — it stays dead until it comes back serving the
// right deployment — as is one whose set was closed mid-dial.
func (rs *replicaSet) install(idx int, rep Replica, claim bool) *conn {
	rs.mu.Lock()
	ep := &rs.eps[idx]
	if !rs.closed {
		ep.lastErr = rs.verify(rep)
	}
	if rs.closed || ep.lastErr != nil {
		rs.mu.Unlock()
		rep.Close()
		return nil
	}
	cn := &conn{rs: rs, idx: idx, rep: rep, busy: claim}
	cn.done = cn.deliver
	ep.conn = cn
	if cc, ok := rep.(*clientConn); ok {
		ep.addr, ep.hello = cc.addr, cc.hello
	}
	rs.live++
	rs.liveG.Set(int64(rs.live))
	rs.mu.Unlock()
	return cn
}

// markDead releases a claimed conn that failed, records why and closes
// it — unless a redial already replaced it with a fresh conn (then the
// fresh one is left alone and only the failed one is closed).
func (rs *replicaSet) markDead(cn *conn, err error) {
	rs.mu.Lock()
	cn.busy, cn.call = false, call{}
	if ep := &rs.eps[cn.idx]; ep.conn == cn {
		ep.conn, ep.lastErr = nil, err
		rs.failovers.Inc() // a live replica just transitioned to dead
		rs.live--
		rs.liveG.Set(int64(rs.live))
	}
	rs.mu.Unlock()
	cn.rep.Close()
}

func (rs *replicaSet) closeAll() {
	rs.mu.Lock()
	rs.closed = true
	rs.mu.Unlock()
	rs.evict(func(Replica) error { return ErrClosed })
}

// allFailed snapshots the per-replica detail for a batch or fetch that
// found no replica to answer it, having tried the given endpoints (nil:
// none). A replica that is alive but still serving an earlier batch —
// a straggler nothing is waiting for any more — says so: that is a gray
// failure, not an outage.
func (rs *replicaSet) allFailed(tried []bool) *ReplicaSetError {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e := &ReplicaSetError{Part: rs.part, Replicas: make([]ReplicaError, len(rs.eps))}
	for i := range rs.eps {
		ep := &rs.eps[i]
		e.Replicas[i] = ReplicaError{Replica: i, Err: ep.lastErr}
		switch {
		case ep.lastErr != nil:
		case ep.conn != nil && ep.conn.busy && !(tried != nil && tried[i]):
			e.Replicas[i].Err = errors.New("live, but busy with an earlier batch")
		default:
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
