// Package dsr implements distributed set reachability: given a directed
// graph partitioned into k parts, a query (S, T) asks whether any source
// in S reaches any target in T. The engine follows the DSR decomposition
// from Gurajada & Theobald (SIGMOD 2016):
//
//  1. each partition is compressed into boundary-to-boundary summary
//     edges, which are stitched with the raw cross-partition edges into
//     a global boundary graph;
//  2. at query time, per-partition shards run local searches (forward
//     from S, backward from T) in parallel, and the coordinator finishes
//     over the small boundary graph — condensed to its component DAG at
//     stitch time and covered, off the connect path, by a 2-hop label
//     index (labels.go), so a query is reached exactly when a hub of its
//     seeds' out-labels is in its goals' in-labels. Until the labels are
//     installed, or if the build gives up on a DAG whose cover passes
//     labelCap, the DAG is swept once per batch, from the seeds down and
//     from the goals up until the two cursors cross, with every open
//     query riding one bit of a machine word (boundary.go).
//
// Any s->t path decomposes as s ~> x0 -> e1 ~> x1 -> ... ek ~> t, where
// each ~> stays inside one partition and each -> is a cross-partition
// edge. The forward local search finds x0 (or the first key component
// on the way to it), chains of summary edges cover every ei ~> xi hop,
// cross edges cover xi -> e(i+1), and the backward local search marks
// ek (or the last key component after it); so the boundary search is
// exact, not approximate.
//
// The coordinator is graph-free: it never holds the full graph. Each
// shard compresses its own partition and ships the result — boundary
// vertices, first-boundary skeleton edges, outgoing cross-partition edges —
// as a boundary summary at connect time, and the coordinator stitches
// the k summaries into the boundary graph. Its resident state is
// therefore proportional to the boundary, not to the graph: partition
// interiors exist only inside the shards.
//
// Two constructors cover the two deployments. Build partitions a graph
// and runs everything in one process over in-process replicas
// (shard.NewLoopback; the shards still ship summaries — the same code
// path as the wire). Connect joins
// an existing fleet of shard servers over TCP, knowing nothing but
// their addresses: identity (vertex count, graph fingerprint,
// partitioning digest) comes from the handshake, structure from the
// shipped summaries. Either way QueryBatchErr is the one way in: a batch
// is one round, one round-trip per shard for the whole batch.
//
// The coordinator holds no placement data either: every task batch is
// broadcast to all k shards with global vertex IDs, each shard runs the
// seeds it owns and reports how many that was, and the coordinator
// cross-checks those counts against the batch to detect uncovered seeds
// (a shard down, or a fleet that disagrees about placement). Vertex IDs
// only travel outwards: a shard reports a reached boundary vertex as
// its ordinal in the boundary list of its own summary, and the stitch
// leaves the coordinator one table per partition from ordinal to
// boundary component, so absorbing a reply searches for nothing.
package dsr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// parallelParts runs fn(p) for every partition p in [0, k) on a bounded
// pool and waits for all of them.
func parallelParts(k int, fn func(p int)) {
	workers := min(runtime.GOMAXPROCS(0), k)
	if workers <= 1 {
		for p := 0; p < k; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= k {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// Query pairs one source set with one target set for QueryBatchErr.
type Query struct {
	S, T []graph.VertexID
}

// qstate is the coordinator's per-query bookkeeping within one batch.
type qstate struct {
	seeds  []int32 // boundary components reached by forward local searches
	goals  []int32 // boundary components that reach a target locally
	hit    bool    // some partition saw a local S ~> T path
	done   bool    // answered during assembly (trivial/overlap cases)
	ans    bool
	failed bool // coverage shortfall left the answer unproven

	// Coverage accounting for the broadcast protocol: the coordinator
	// expects every deduplicated in-range seed to be owned by exactly
	// one shard. expS/expT count what the batch shipped; gotS/gotT sum
	// the Owned counts the shards reported back. A shortfall means some
	// seed went unsearched — a dead partition, or a fleet that disagrees
	// about placement — and the query's `false` cannot be trusted.
	expS, expT int
	gotS, gotT int
}

// vset is an epoch-marked open-addressing set of vertex IDs, the
// coordinator's per-query dedup structure. Clearing is O(1) (epoch
// bump) and capacity is re-ensured before each query's inserts, so
// steady-state batches allocate nothing. Unlike a direct-mapped mark
// array it is sized to the query, not to the graph — the coordinator
// holds no O(n) state.
type vset struct {
	keys  []int32
	epoch []uint32
	cur   uint32
	mask  uint32
}

// begin clears the set and ensures capacity for n inserts (load factor
// <= 1/2, so probes terminate fast and `has` can stop at an empty slot).
func (s *vset) begin(n int) {
	need := 4
	for need < 2*n {
		need <<= 1
	}
	if need > len(s.keys) {
		s.keys = make([]int32, need)
		s.epoch = make([]uint32, need)
		s.mask = uint32(need - 1)
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 { // epoch wrapped: stale marks would alias, clear them
		clear(s.epoch)
		s.cur = 1
	}
}

// add inserts v, reporting whether it was absent.
func (s *vset) add(v int32) bool {
	i := (uint32(v) * 2654435761) & s.mask
	for {
		if s.epoch[i] != s.cur {
			s.epoch[i] = s.cur
			s.keys[i] = v
			return true
		}
		if s.keys[i] == v {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// has reports whether v is in the set.
func (s *vset) has(v int32) bool {
	i := (uint32(v) * 2654435761) & s.mask
	for {
		if s.epoch[i] != s.cur {
			return false
		}
		if s.keys[i] == v {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Engine answers set-reachability queries over a partitioned graph. It
// is the graph-free coordinator of the DSR decomposition: its resident
// state is the stitched boundary graph plus per-query scratch — never
// the full graph, never any placement data. Partition interiors live
// exclusively inside the shards, whether those are in-process (Build)
// or remote servers (Connect).
type Engine struct {
	n  int // vertex count of the source graph, from build or handshake
	k  int // partition count
	bg *boundaryGraph
	tr shard.Transport

	// Telemetry. met's instruments are nil (no-op) without a registry.
	met  engineMetrics
	slow time.Duration // slow-query log threshold, 0 disables
	log  *obs.Logger

	// wantTiming arms the wire-level trace flag: every task batch then
	// asks its shard to self-measure and footer its reply, feeding the
	// net-vs-server split (metrics and slow-query sub-spans). On when
	// either consumer exists — a registry or a slow-query threshold.
	wantTiming bool

	// mu guards r, the engine's one round: shards hold per-partition
	// scratch, so rounds run one at a time. It also guards bg's DAG,
	// which the label install drops.
	mu sync.Mutex
	r  round

	// The label build (labelBoundary): stopLabels asks it to give up
	// between two hubs, and labelsDone is closed once it has installed
	// the labels, given up or stopped. resident is ResidentBytes, re-set
	// at install.
	stopLabels atomic.Bool
	labelsDone chan struct{}
	resident   atomic.Int64
}

// labelInline is the size, in components plus DAG edges, up to which
// startLabels labels the boundary DAG before Connect returns: well
// under a millisecond of work, not worth a goroutine. Bigger DAGs are
// labelled in the background while the sweep answers.
const labelInline = 1 << 14

// Test seams over startLabels, both false in the product: while
// labelsHeld is set engines build no labels, so the sweep answers every
// round; while labelsAwaited is set they build them before Connect
// returns, whatever the DAG's size.
var labelsHeld, labelsAwaited bool

// round is the coordinator's per-round scratch, reused round after
// round. A round receives exactly one reply per submit, so all of this —
// including the seed arena the shards read from — is quiescent between
// rounds, and steady-state rounds allocate nothing.
type round struct {
	replyc     chan shard.Reply
	tset, sset vset // per-query T membership + dedup, S dedup

	tasks []wire.Task // the round's batch, broadcast to every shard
	arena []int32     // seed storage for the whole round; tasks alias it

	qs    []qstate
	fin   *finisher // boundary-finish sweep state
	trace obs.Trace // span trace, reused: tracing allocates nothing when hot

	batchID uint64 // round counter; the wire batch ID (starts at 1)
}

// Options configures Build.
type Options struct {
	// K is the partition count.
	K int
	// Partitioner is the partitioning strategy — graph.Hash(),
	// graph.Range(), or locality.New(opts). Nil means graph.Hash().
	Partitioner graph.Partitioner
	// Metrics, if non-nil, receives the engine's telemetry (see the
	// catalog in README.md). Nil disables instrumentation at zero cost:
	// every instrument degrades to a no-op.
	Metrics *obs.Registry
	// Log, if non-nil, receives build/connect progress and slow-query
	// traces. Nil logs nothing.
	Log *obs.Logger
	// SlowQuery, if positive, logs a structured span trace (at WARN) for
	// every batch that takes longer end to end. 0 disables.
	SlowQuery time.Duration
}

// Build partitions g and builds an in-process engine over it: one
// in-process shard per partition, built in parallel, each of which
// compresses its partition and ships a boundary summary exactly as a
// remote shard would — Build and Connect share the summary-stitching
// path and the transport, the only difference is the kind of replica
// underneath.
func Build(g *graph.Graph, o Options) (*Engine, error) {
	p := o.Partitioner
	if p == nil {
		p = graph.Hash()
	}
	pt, err := p.Partition(g, o.K)
	if err != nil {
		return nil, err
	}
	subs := partition.Extract(g, pt)
	shards := make([]*shard.Shard, len(subs))
	parallelParts(len(subs), func(p int) { shards[p] = shard.New(p, subs[p]) })
	lb := shard.NewLoopback(shards)
	e, err := ConnectTransport(context.Background(), lb, pt.K, g.NumVertices(), o)
	if err != nil {
		lb.Close()
		return nil, err
	}
	return e, nil
}

// ClusterSpec describes an existing fleet of shard servers for Connect.
// It carries addresses — no graph: everything structural comes from the
// fleet itself.
type ClusterSpec struct {
	// Groups lists one address spec per partition, in partition order.
	// Groups[i] may name several interchangeable replica servers
	// separated by '|' ("host1:7000|host2:7000"); with replicas the
	// coordinator routes each round to a healthy one, retries on a
	// sibling when a replica fails mid-query, and redials dead replicas,
	// so a partition is only unavailable when every replica is down.
	Groups []string
	// Log, if non-nil, receives human-readable connect progress — one
	// line per shard summary fetched, one for the stitched result — and
	// slow-query traces after connect.
	Log *obs.Logger
	// Metrics, if non-nil, receives coordinator and transport telemetry
	// (see the catalog in README.md): query latency histograms,
	// per-partition RPC counters, replica retry/failover/redial counts.
	Metrics *obs.Registry
	// SlowQuery, if positive, logs a structured span trace (at WARN) for
	// every batch that takes longer end to end. 0 disables.
	SlowQuery time.Duration
}

// Connect joins an existing shard fleet and builds the graph-free
// coordinator over it. The coordinator never sees the graph: shard
// identity (vertex count, graph fingerprint, partitioning digest) comes
// from the TCP handshake, the boundary structure from the summaries
// every shard ships on request, and the k summaries are stitched into
// the boundary graph locally. A fleet whose live replicas disagree
// about the deployment is refused with a *shard.MismatchError (see
// shard.NewReplicated).
//
// ctx bounds connecting — dialing, handshakes, and the summary fetch —
// and cancels in-flight redials when the engine is closed; it does not
// bound later queries.
func Connect(ctx context.Context, spec ClusterSpec) (*Engine, error) {
	groups, err := shard.ParseGroups(spec.Groups)
	if err != nil {
		return nil, err
	}
	tr, err := shard.DialReplicated(ctx, groups, -1, 0, 0, shard.ReplicatedOptions{Metrics: spec.Metrics})
	if err != nil {
		return nil, err
	}
	e, err := ConnectTransport(ctx, tr, len(groups), -1, Options{
		Metrics: spec.Metrics, Log: spec.Log, SlowQuery: spec.SlowQuery,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	return e, nil
}

// replicaSets is the read-only book-keeping shard.Replicated offers
// beyond shard.Transport — the replica books — and a transport wrapped
// or faked by a test or the benchmark may not. Nothing on the query
// path asks for it.
type replicaSets interface {
	Health() []shard.PartitionHealth
	Endpoints() []shard.EndpointInfo
}

// ConnectTransport is the shared back half of Build and Connect, and the
// hook for embedders (the serving layer's harnesses, chaos rigs) that
// assemble their own replica fleets in process via shard.NewReplicated
// or shard.NewLoopback: fetch every shard's boundary summary over tr,
// stitch, and wire the engine. Judging the fleet is the transport's job
// (shard.Replicated holds every replica to one identity); this only
// reads the vertex count off it. k is the partition count tr serves;
// n >= 0 pins the global vertex count (transports without a handshake,
// e.g. in-process shards), n < 0 derives it from the hellos (which
// fails for transports whose replicas present none). Only o's telemetry
// fields are consulted. On success the engine owns tr (Close closes it);
// on error the caller still owns it.
func ConnectTransport(ctx context.Context, tr shard.Transport, k, n int, o Options) (*Engine, error) {
	infos := make([]shard.SummaryInfo, k)
	errs := make([]error, k)
	sumFetch := o.Metrics.Histogram("dsr_summary_fetch_ns")
	fetchStart := time.Now()
	parallelParts(k, func(p int) {
		t0 := time.Now()
		infos[p], errs[p] = tr.Summary(ctx, p)
		sumFetch.ObserveSince(t0)
		if errs[p] == nil {
			s := &infos[p].Summary
			o.Log.Infof("shard %d/%d: summary received (%d boundary vertices, %d summary edges, %d cross edges)",
				p+1, k, len(s.Boundary), len(s.Edges), len(s.Cross))
		}
	})
	fetch := time.Since(fetchStart)
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dsr: shard %d summary: %w", p, err)
		}
	}
	sums := make([]wire.Summary, k)
	for p := range infos {
		sums[p] = infos[p].Summary
		if h := infos[p].Hello; n < 0 && h.NumShards != 0 {
			n = int(h.NumVertices)
		}
	}
	if n < 0 {
		return nil, fmt.Errorf("dsr: no shard reported its identity; cannot derive the vertex count")
	}
	stitchStart := time.Now()
	bg, err := stitchBoundary(n, sums)
	if err != nil {
		return nil, err
	}
	stitch := time.Since(stitchStart)
	e := newEngine(n, k, bg, tr, o)
	o.Log.Infof("boundary graph stitched: %d vertices in %d components, %d component edges kept forward and reversed, %d coordinator-resident bytes; ms: fetch %d, stitch %d",
		bg.nverts, bg.ncomp(), len(bg.succ), e.ResidentBytes(), fetch.Milliseconds(), stitch.Milliseconds())
	e.startLabels()
	return e, nil
}

// newEngine wires a coordinator over an already-stitched boundary graph
// and transport.
func newEngine(n, k int, bg *boundaryGraph, tr shard.Transport, o Options) *Engine {
	e := &Engine{
		n:    n,
		k:    k,
		bg:   bg,
		tr:   tr,
		met:  newEngineMetrics(o.Metrics, k),
		slow: o.SlowQuery,
		log:  o.Log,

		wantTiming: o.Metrics != nil || o.SlowQuery > 0,
		r:          round{replyc: make(chan shard.Reply, k), fin: newFinisher(bg.ncomp())},
	}
	e.met.partitions.Set(int64(k))
	e.met.boundaryVerts.Set(int64(bg.nverts))
	e.met.boundaryComps.Set(int64(bg.ncomp()))
	e.setResident()
	return e
}

// startLabels starts labelling the boundary DAG: inline if it is small,
// else on a goroutine that Close stops and joins.
func (e *Engine) startLabels() {
	e.labelsDone = make(chan struct{})
	switch {
	case labelsHeld:
		close(e.labelsDone)
	case labelsAwaited || e.bg.ncomp()+len(e.bg.succ) <= labelInline:
		e.labelBoundary()
	default:
		go e.labelBoundary()
	}
}

// labelBoundary builds the 2-hop label cover of the boundary DAG and
// installs it: from the next round on the finish reads the labels, and
// the sweep's scratch and the DAG are released. A cover that outgrows
// labelCap entries per component is abandoned and the sweep keeps
// answering; a Close stops the build between two hubs.
func (e *Engine) labelBoundary() {
	defer close(e.labelsDone)
	start := time.Now()
	nc := e.bg.ncomp()
	l, entries := buildLabels(e.bg, labelCap*nc, &e.stopLabels)
	switch {
	case e.stopLabels.Load():
		return
	case l == nil:
		e.log.Warnf("boundary labels abandoned: %d entries passed %d per component over %d components; the sweep answers the finish",
			entries, labelCap, nc)
		return
	}
	took := time.Since(start)
	e.mu.Lock()
	e.r.fin.install(l)
	e.bg.dropDAG()
	e.setResident()
	e.mu.Unlock()
	e.met.labelEntries.Set(int64(l.entries()))
	e.log.Infof("boundary labels installed: %d out-entries + %d in-entries over %d components, %d bytes, built in %d ms; %d coordinator-resident bytes",
		len(l.outHub), len(l.inHub), nc, l.residentBytes(), took.Milliseconds(), e.ResidentBytes())
}

// setResident re-reads the coordinator's footprint into ResidentBytes
// and its gauge. Caller holds e.mu, or has not shared e yet.
func (e *Engine) setResident() {
	e.resident.Store(int64(e.bg.residentBytes() + e.r.fin.residentBytes()))
	e.met.residentBytes.Set(e.resident.Load())
}

// Health reports per-partition replica health — live replica counts
// and cumulative retry, failover, and redial totals since connect —
// for every deployment shape, in-process and single-replica ones
// included. Nil only over a substituted transport that keeps no books.
func (e *Engine) Health() []shard.PartitionHealth {
	if t, ok := e.tr.(replicaSets); ok {
		return t.Health()
	}
	return nil
}

// Endpoints describes the engine's shard endpoints — one entry per
// (partition, replica) with the dialed address, the metrics address
// each shard announced at handshake, and liveness. Empty for engines
// whose replicas have no address (in-process ones); the fleet metrics
// aggregator feeds on this.
func (e *Engine) Endpoints() []shard.EndpointInfo {
	if t, ok := e.tr.(replicaSets); ok {
		return t.Endpoints()
	}
	return nil
}

// NumPartitions returns the partition count.
func (e *Engine) NumPartitions() int { return e.k }

// NumBoundary returns the number of vertices in the boundary graph.
func (e *Engine) NumBoundary() int { return e.bg.nverts }

// ResidentBytes reports the coordinator's per-graph resident footprint:
// each boundary vertex's component, plus what the finish reads — the
// component DAG, its transpose and the sweep's scratch sized to the
// components until labels are installed, the labels and their stamps
// after. It scales with boundary size only — growing partition
// interiors (vertices and edges that never cross a partition border)
// leaves it unchanged, which is the point of the graph-free coordinator.
func (e *Engine) ResidentBytes() int { return int(e.resident.Load()) }

// Close closes the transport, idempotently and deterministically: its
// partition goroutines have exited (TCP connections closed, in-flight
// redials cancelled), and a label build in progress has stopped, by the
// time it returns. It does not wait for a round in flight — a shard
// that never answers cannot hold it up — and that round, like any query
// after Close, gets shard.ErrClosed from every partition it still
// needed: its undecided queries fail inside a *BatchError.
func (e *Engine) Close() {
	e.stopLabels.Store(true)
	e.tr.Close()
	<-e.labelsDone
}

// QueryBatchErr answers a batch of queries in one round: all local
// searches for the whole batch ship to each shard as a single task batch
// (one RPC per shard, however many queries), and the coordinator settles
// every query over the boundary graph before returning. A query (S, T)
// is true when some source in S reaches some target in T (reachability
// is reflexive: a vertex reaches itself). Vertices outside the graph are
// ignored; an empty side yields false. Transport failures are reported
// as an error, with partial-failure semantics: losing a partition fails
// only the queries that needed it, not the batch.
//
// When the error is a *BatchError, the returned answers are still
// valid for every query i with err.Failed[i] == false — queries whose
// seeds the surviving partitions fully covered, plus queries a dead
// partition could not change (a local hit or boundary path already
// proved them true; missing data only ever hides paths). Failed queries
// have no trustworthy answer and read false. A partition counts as dead
// whenever it delivered no usable reply, whether the connection dropped
// or the server reported an error; with replicas, only after every
// replica failed. Any other non-nil error — malformed content in a
// reply that did arrive, or a fleet that fails to cover the batch's
// seeds without any partition erroring — invalidates the whole batch
// and the answers are nil.
func (e *Engine) QueryBatchErr(queries []Query) ([]bool, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.run(queries)
	if _, partial := err.(*BatchError); err != nil && !partial {
		return nil, err
	}
	out := make([]bool, len(queries))
	for i := range out {
		out[i] = e.r.qs[i].ans
	}
	return out, err
}

// run is one coordinator round for the batch — assembly, broadcast,
// fan-in drain, boundary finish — leaving the per-query answers in
// e.r.qs[i].ans, and its telemetry: the span trace accumulates into the
// round's scratch, batch counters and the latency histogram are updated,
// and a round slower than the SlowQuery threshold logs its trace at
// WARN. Caller holds e.mu.
func (e *Engine) run(queries []Query) error {
	r := &e.r
	r.trace.Begin()
	root := r.trace.Add("query_batch", 0, 0, 0, -1, len(queries))
	n := graph.VertexID(e.n)
	for len(r.qs) < len(queries) {
		r.qs = append(r.qs, qstate{})
	}
	r.tasks = r.tasks[:0]
	r.arena = r.arena[:0]

	asmStart := r.trace.Since()
	asm := r.trace.Add("assemble", 1, asmStart, 0, -1, 0)

	// Assembly: deduplicate every query's S and T into the shared seed
	// arena and emit one Forward and one Backward task per undecided
	// query, with global vertex IDs. There is no per-partition grouping
	// — the coordinator has no placement data; shards skip the seeds
	// they don't own. Task slices alias the arena; later appends may
	// grow it, but the abandoned backing array keeps the already-written
	// seeds, so earlier slices stay valid.
	for i := range queries {
		q := &queries[i]
		st := &r.qs[i]
		st.seeds, st.goals = st.seeds[:0], st.goals[:0]
		st.hit, st.done, st.ans, st.failed = false, false, false, false
		st.expS, st.expT, st.gotS, st.gotT = 0, 0, 0, 0
		r.tset.begin(len(q.T))
		tOff := len(r.arena)
		for _, t := range q.T {
			if t >= n || !r.tset.add(int32(t)) {
				continue
			}
			r.arena = append(r.arena, int32(t))
		}
		tSl := r.arena[tOff:len(r.arena):len(r.arena)]
		if len(tSl) == 0 {
			st.done = true
			continue
		}
		r.sset.begin(len(q.S))
		sOff := len(r.arena)
		for _, s := range q.S {
			if s >= n || !r.sset.add(int32(s)) {
				continue
			}
			if r.tset.has(int32(s)) {
				st.done, st.ans = true, true
				break
			}
			r.arena = append(r.arena, int32(s))
		}
		if st.done {
			continue
		}
		sSl := r.arena[sOff:len(r.arena):len(r.arena)]
		if len(sSl) == 0 {
			st.done = true
			continue
		}
		r.tasks = append(r.tasks,
			wire.Task{Kind: wire.Forward, Query: uint32(i), Seeds: sSl, Targets: tSl},
			wire.Task{Kind: wire.Backward, Query: uint32(i), Seeds: tSl})
		st.expS, st.expT = len(sSl), len(tSl)
	}
	r.trace.SetDur(asm, r.trace.Since()-asmStart)
	r.trace.SetN(asm, len(r.tasks))

	// Fan out: broadcast the one task batch to every shard. Which shard
	// owns which seed is the shards' business.
	//
	// Fan in: boundary vertices reached from S seed each query's
	// boundary search; boundary vertices that locally reach T are its
	// goals (entry or exit alike: a shard's search stops at the first
	// key component, and the summary edges carry the rest); Owned
	// counts feed the coverage ledger. Failures are collected rather
	// than aborting the drain. A partition that answered nothing is a
	// partial failure; which queries that actually fails falls out of
	// coverage below.
	// Malformed content inside a reply that did arrive (a shard
	// disagreeing about the batch shape, which task a result answers, or
	// the size of its boundary) poisons the whole round via terr: such a
	// shard cannot be trusted retroactively.
	var perr []PartitionError
	var err error
	if len(r.tasks) > 0 {
		r.batchID++
		hdr := wire.BatchHeader{Trace: e.wantTiming, Batch: r.batchID}
		tsub := time.Now()
		roundStart := r.trace.Since()
		fan := r.trace.Add("round", 1, roundStart, 0, -1, len(r.tasks))
		for p := 0; p < e.k; p++ {
			e.met.rpcs[p].Inc()
			e.tr.Submit(p, hdr, r.tasks, r.replyc)
		}
		perr, err = e.drain(tsub, roundStart)
		wait := r.trace.Since() - roundStart
		r.trace.SetDur(fan, wait)
		e.met.faninWait.Observe(int64(wait))
		e.met.rounds.Inc()
	}

	// Final pass: every undecided query with both seeds and goals is
	// looked up in the labels or joins the boundary sweep, 64 to a
	// sweep, then the coverage verdict.
	// Queries that lost a partition still run on whatever the survivors
	// reported: results can only be missing, never wrong, so a local hit
	// or a boundary path proves the query true regardless of shortfall —
	// only a `false` built on incomplete coverage is untrustworthy and
	// fails. A poisoned round skips it: every query fails.
	failed := len(queries)
	if err == nil {
		finStart := r.trace.Since()
		fin := r.trace.Add("finish", 1, finStart, 0, -1, 0)
		swept, popped := r.fin.run(e.bg, r.qs[:len(queries)])
		failed = 0
		for i := range queries {
			st := &r.qs[i]
			if !st.done && !st.ans && (st.gotS < st.expS || st.gotT < st.expT) {
				st.failed = true
				failed++
			}
		}
		finDur := r.trace.Since() - finStart
		r.trace.SetDur(fin, finDur)
		r.trace.SetN(fin, swept)
		e.met.finish.Observe(int64(finDur))
		e.met.popped.Observe(int64(popped))
		switch {
		case perr != nil:
			be := &BatchError{Partitions: perr, Failed: make([]bool, len(queries))}
			for i := range queries {
				be.Failed[i] = r.qs[i].failed
			}
			err = be
		case failed > 0:
			// Every shard answered, yet some seed was owned by none of them:
			// the fleet disagrees with itself about placement. That is not a
			// per-partition outage, it poisons the whole round.
			err = fmt.Errorf("dsr: fleet does not cover the batch's seeds (inconsistent partitioning across shards)")
			failed = len(queries)
		}
	}

	total := r.trace.Since()
	r.trace.SetDur(root, total)
	e.met.batches.Inc()
	e.met.queries.Add(uint64(len(queries)))
	e.met.batchSize.Observe(int64(len(queries)))
	e.met.latency.Observe(int64(total))
	e.met.failed.Add(uint64(failed))
	if e.slow > 0 && total > e.slow {
		e.met.slow.Inc()
		if e.log.Enabled(obs.LevelWarn) {
			e.log.Warnf("slow batch: %d queries took %v (threshold %v)\n%s",
				len(queries), total, e.slow, r.trace.String())
		}
	}
	return err
}

// drain is the round's fan-in: one reply per submit, k receives from
// the one channel, absorbed in arrival order. That empties the channel,
// so the shared arena and the replicas' result buffers are quiescent
// before the next round rewrites them; which replica answered, and
// whether the transport raced two of them for it, is the transport's
// business. A partition that answered with an error is collected rather
// than aborting the round. Caller holds e.mu.
func (e *Engine) drain(tsub time.Time, roundStart time.Duration) ([]PartitionError, error) {
	var perr []PartitionError
	var terr error
	for range e.k {
		rep := <-e.r.replyc
		rpcDur := time.Since(tsub)
		e.met.rpcLat[rep.Shard].Observe(int64(rpcDur))
		if rep.Err != nil {
			e.r.trace.Add("rpc", 2, roundStart, rpcDur, rep.Shard, 0)
			e.met.rpcErrs[rep.Shard].Inc()
			perr = append(perr, PartitionError{Partition: rep.Shard, Err: rep.Err})
			continue
		}
		e.observeReply(&rep, rpcDur, roundStart)
		if err := e.absorb(&rep); err != nil {
			terr = err
		}
	}
	slices.SortFunc(perr, func(a, b PartitionError) int { return a.Partition - b.Partition })
	return perr, terr
}

// observeReply records a successful reply's frontier and timing
// telemetry. Caller holds e.mu.
func (e *Engine) observeReply(rep *shard.Reply, rpcDur time.Duration, roundStart time.Duration) {
	frontier := 0
	for ri := range rep.Results {
		frontier += len(rep.Results[ri].Boundary)
	}
	e.met.frontier.Observe(int64(frontier))
	e.r.trace.Add("rpc", 2, roundStart, rpcDur, rep.Shard, frontier)
	if rep.HasTiming {
		// Split the observed round trip into shard compute and
		// everything else (wire time, queueing in the transport, the
		// fan-in wait itself). The server's self-measured total is
		// clamped to the enclosing RPC duration: the two clocks are
		// different machines', and a server span exceeding its RPC
		// span would make the trace unreadable nonsense.
		server := time.Duration(rep.Timing.Total())
		if server > rpcDur {
			server = rpcDur
		}
		net := rpcDur - server
		e.met.rpcServer[rep.Shard].Observe(int64(server))
		e.met.rpcNet[rep.Shard].Observe(int64(net))
		e.r.trace.Add("server", 3, roundStart, server, rep.Shard, 0)
		e.r.trace.Add("net", 3, roundStart, net, rep.Shard, 0)
	}
}

// absorb merges one successful reply's content into the round's
// per-query state: Owned counts into the coverage ledger, local hits,
// and reached boundary vertices — ordinals into the partition's
// boundary list, one index away from their boundary components — into
// each query's seed/goal lists. A result is attributed to the task it
// sits opposite, and must say so itself: the returned error is the
// round-poisoning kind — a shard disagreeing about the batch identity,
// its shape, which task a result answers, or the size of its own
// boundary cannot be trusted retroactively. Caller holds e.mu.
func (e *Engine) absorb(rep *shard.Reply) error {
	if rep.Batch != e.r.batchID {
		return fmt.Errorf("dsr: shard %d echoed batch %d during batch %d", rep.Shard, rep.Batch, e.r.batchID)
	}
	if len(rep.Results) != len(e.r.tasks) {
		return fmt.Errorf("dsr: shard %d answered %d results for a %d-task batch", rep.Shard, len(rep.Results), len(e.r.tasks))
	}
	compOf := e.bg.compOf[rep.Shard]
	for ri := range rep.Results {
		res, task := &rep.Results[ri], &e.r.tasks[ri]
		if res.Kind != task.Kind || res.Query != task.Query {
			return fmt.Errorf("dsr: shard %d answered task %d (kind %d, query %d) as kind %d, query %d",
				rep.Shard, ri, task.Kind, task.Query, res.Kind, res.Query)
		}
		st := &e.r.qs[task.Query]
		// Coverage first, even when the answer is already known: the
		// ledger must reflect every reply that arrived.
		into := &st.goals
		if res.Kind == wire.Forward {
			st.gotS += int(res.Owned)
			into = &st.seeds
		} else {
			st.gotT += int(res.Owned)
		}
		if st.hit {
			continue // answer already known; skip the moot bookkeeping
		}
		if res.Hit {
			st.hit = true
			continue
		}
		for _, ord := range res.Boundary {
			if int(ord) >= len(compOf) {
				return fmt.Errorf("dsr: shard %d reported boundary ordinal %d, its summary lists %d boundary vertices", rep.Shard, ord, len(compOf))
			}
			*into = append(*into, compOf[ord])
		}
	}
	return nil
}
