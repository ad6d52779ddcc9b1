package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsr/bench/workload"
	"dsr/internal/dsr"
	"dsr/internal/serve"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// The four span kinds of a traced query, outermost first. Each is
// recorded from the benchmark's side of a public call — spans inside
// the program are a later change (ROADMAP item 5).
//
//	client.query  due time → answer line, at the load generator
//	serve.round   one Querier.QueryBatchErr call (engine lock wait included)
//	shard.rpc     Transport.Submit → Reply for one partition
//	shard.server  the reply's self-reported decode+queue+search+encode
const (
	spanQuery  = "client.query"
	spanRound  = "serve.round"
	spanRPC    = "shard.rpc"
	spanServer = "shard.server"
)

// span is one recorded interval. Offsets are from the load run's start.
type span struct {
	Start, End time.Duration
	Part       int               // shard.rpc: partition
	Batch      uint64            // shard.rpc: the wire batch ID, shared by a round's k RPCs
	Timing     wire.ServerTiming // shard.rpc: the shard.server child, which has durations but no clock of ours
	q          *workload.Query   // client.query
	queries    []dsr.Query       // serve.round: retained so keys are computed after the run, not during it
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (a round's k RPCs run in
// parallel) and may stick out of the parent; covered time is the union
// of the children clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if s < e {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
	var covered, reach time.Duration
	reach = parent.Start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return parent.End - parent.Start - covered
}

// capturedBatch is one round's wire traffic, deep-copied: the task
// batch every shard received and each partition's results. The
// isolated wire and shard.Run timings replay these.
type capturedBatch struct {
	tasks   []wire.Task
	results [][]wire.Result // per partition
}

const (
	captureSkip = 64  // rounds let through before capture starts (cold, tiny batches)
	captureMax  = 512 // rounds captured
)

// tracer is the in-memory sink of a traced run. While disabled its
// wrappers pass calls straight through, so one fleet serves both the
// untraced and the traced measurement.
type tracer struct {
	k       int
	enabled atomic.Bool
	epoch   time.Time // set before enabling; offsets are relative to it

	mu       sync.Mutex
	rounds   []span
	rpcs     []span
	captured map[uint64]*capturedBatch
}

func newTracer(k int) *tracer { return &tracer{k: k, captured: make(map[uint64]*capturedBatch)} }

// tracedQuerier records one serve.round span per engine call.
type tracedQuerier struct {
	inner serve.Querier
	tr    *tracer
}

func (tq *tracedQuerier) QueryBatchErr(qs []dsr.Query) ([]bool, error) {
	if !tq.tr.enabled.Load() {
		return tq.inner.QueryBatchErr(qs)
	}
	start := time.Since(tq.tr.epoch)
	ans, err := tq.inner.QueryBatchErr(qs)
	sp := span{Start: start, End: time.Since(tq.tr.epoch), queries: qs}
	tq.tr.mu.Lock()
	tq.tr.rounds = append(tq.tr.rounds, sp)
	tq.tr.mu.Unlock()
	return ans, err
}

// tracedTransport records one shard.rpc span per Submit and captures
// batches for replay. Each Submit gets its own relay goroutine, so the
// wrapper makes no assumption about how many rounds are in flight.
type tracedTransport struct {
	inner shard.Transport
	tr    *tracer
}

func (tt *tracedTransport) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- shard.Reply) {
	tr := tt.tr
	if !tr.enabled.Load() {
		tt.inner.Submit(p, h, tasks, replyc)
		return
	}
	var cb *capturedBatch
	tr.mu.Lock()
	if cb = tr.captured[h.Batch]; cb == nil && p == 0 && h.Batch > captureSkip && len(tr.captured) < captureMax {
		cb = &capturedBatch{tasks: copyTasks(tasks), results: make([][]wire.Result, tr.k)}
		tr.captured[h.Batch] = cb
	}
	tr.mu.Unlock()

	relay := make(chan shard.Reply, 1)
	start := time.Since(tr.epoch)
	tt.inner.Submit(p, h, tasks, relay)
	go func() {
		rep := <-relay
		sp := span{Start: start, End: time.Since(tr.epoch), Part: p, Batch: h.Batch}
		if rep.HasTiming {
			sp.Timing = rep.Timing
		}
		// Results alias transport buffers that the next Submit to this
		// shard reuses: copy before the engine is allowed to move on.
		var res []wire.Result
		if cb != nil && rep.Err == nil {
			res = copyResults(rep.Results)
		}
		tr.mu.Lock()
		tr.rpcs = append(tr.rpcs, sp)
		if res != nil {
			cb.results[p] = res
		}
		tr.mu.Unlock()
		replyc <- rep
	}()
}

func (tt *tracedTransport) Summary(ctx context.Context, p int) (shard.SummaryInfo, error) {
	return tt.inner.Summary(ctx, p)
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

func copyTasks(tasks []wire.Task) []wire.Task {
	out := make([]wire.Task, len(tasks))
	for i, t := range tasks {
		out[i] = wire.Task{Kind: t.Kind, Query: t.Query, Seeds: slices.Clone(t.Seeds), Targets: slices.Clone(t.Targets)}
	}
	return out
}

func copyResults(results []wire.Result) []wire.Result {
	out := make([]wire.Result, len(results))
	for i, r := range results {
		out[i] = r
		out[i].Boundary = slices.Clone(r.Boundary)
	}
	return out
}

// batches returns the fully captured rounds in batch-ID order.
func (tr *tracer) batches() []*capturedBatch {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make([]uint64, 0, len(tr.captured))
	for id, cb := range tr.captured {
		if !slices.ContainsFunc(cb.results, func(r []wire.Result) bool { return r == nil }) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	out := make([]*capturedBatch, len(ids))
	for i, id := range ids {
		out[i] = tr.captured[id]
	}
	return out
}

// roundTrace is a serve.round span with the RPCs it issued.
type roundTrace struct {
	span
	rpcs []span // empty when every query was settled at assembly
}

// critical returns the RPC whose reply arrived last — the one the
// round was blocked on — and the time of the first Submit.
func (r *roundTrace) critical() (crit span, firstSubmit time.Duration) {
	crit, firstSubmit = r.rpcs[0], r.rpcs[0].Start
	for _, c := range r.rpcs[1:] {
		if c.End > crit.End {
			crit = c
		}
		firstSubmit = min(firstSubmit, c.Start)
	}
	return crit, firstSubmit
}

// assemble links RPCs to rounds. The engine runs one round at a time
// under its lock, so rounds finish in the order they execute and a
// round's RPCs all complete before it does: a batch's RPCs belong to
// the round with the earliest end at or after their last reply.
// (Rounds, as seen from outside, include the wait for that lock and so
// overlap; their starts say nothing.)
func (tr *tracer) assemble() []roundTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rounds := make([]roundTrace, len(tr.rounds))
	for i, sp := range tr.rounds {
		rounds[i].span = sp
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].End < rounds[j].End })
	groups := make(map[uint64][]span)
	for _, c := range tr.rpcs {
		groups[c.Batch] = append(groups[c.Batch], c)
	}
	for _, g := range groups {
		var last time.Duration
		for _, c := range g {
			last = max(last, c.End)
		}
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].End >= last })
		if i < len(rounds) {
			rounds[i].rpcs = append(rounds[i].rpcs, g...)
		}
	}
	return rounds
}

// stage rows of the table, in path order. A query's rows sum to its
// client.query duration exactly.
var stageNames = []string{
	"serve.pre    socket in, parse, cache miss, admit, batch window",
	"dsr.pre      engine lock wait, assemble",
	"dsr.fanout   first Submit → blocking partition's Submit",
	"shard.net    blocking RPC − server-reported time",
	"shard.decode",
	"shard.queue",
	"shard.search",
	"shard.encode",
	"dsr.post     absorb last reply, boundary BFS",
	"serve.post   cache put, settle, in-order write, socket out",
	"serve.hit    whole query, answered from cache (no round)",
}

const numStages = 11

// queryStages splits one client.query span along its blocking path.
func queryStages(q span, r *roundTrace) (st [numStages]time.Duration) {
	if r == nil {
		st[10] = q.End - q.Start
		return st
	}
	st[0] = r.Start - q.Start
	st[9] = q.End - r.End
	if len(r.rpcs) == 0 {
		st[1] = r.End - r.Start
		return st
	}
	crit, first := r.critical()
	server := time.Duration(crit.Timing.Total())
	st[1] = first - r.Start
	st[2] = crit.Start - first
	st[3] = crit.End - crit.Start - server
	st[4] = time.Duration(crit.Timing.Decode)
	st[5] = time.Duration(crit.Timing.Queue)
	st[6] = time.Duration(crit.Timing.Search)
	st[7] = time.Duration(crit.Timing.Encode)
	st[8] = r.End - crit.End
	return st
}

// traceReport is what a traced load run boils down to.
type traceReport struct {
	Queries, Rounds, RPCs int
	QueryMedianMS         float64
	ServeSelfMS           float64 // median over queries that rode a round: query − round
	DSRSelfMS             float64 // median over RPC-issuing rounds: round − union of its RPCs
	RPCMS                 float64 // median over RPCs
	NetMS                 float64 // median over RPCs: RPC − server-reported total
	RoundMS               float64 // median over RPC-issuing rounds
	// Band[0] is the median query (p45–p55 of latency), Band[1] the
	// tail (p99 and beyond): mean per stage over the band's queries.
	Band      [2][numStages]float64
	BandTotal [2]float64
	BandN     [2]int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// analyze links client spans to rounds by canonical query key and
// computes the report. A key can ride several rounds (a pool query
// evicted and asked again); a client span takes the round that lies
// inside it.
func (tr *tracer) analyze(queries []span) (traceReport, []roundTrace) {
	rounds := tr.assemble()
	byKey := make(map[string][]int)
	for i := range rounds {
		for _, q := range rounds[i].queries {
			k := serve.Key(q.S, q.T)
			byKey[k] = append(byKey[k], i)
		}
	}
	rep := traceReport{Queries: len(queries), Rounds: len(rounds)}

	type qrow struct {
		total  time.Duration
		stages [numStages]time.Duration
	}
	rows := make([]qrow, 0, len(queries))
	var serveSelf, totals []float64
	for _, q := range queries {
		var r *roundTrace
		for _, i := range byKey[serve.Key(q.q.S, q.q.T)] {
			if rounds[i].Start >= q.Start && rounds[i].End <= q.End {
				r = &rounds[i]
				break
			}
		}
		rows = append(rows, qrow{total: q.End - q.Start, stages: queryStages(q, r)})
		totals = append(totals, ms(q.End-q.Start))
		if r != nil {
			serveSelf = append(serveSelf, ms(selfTime(q, []span{r.span})))
		}
	}
	rep.QueryMedianMS = median(totals)
	rep.ServeSelfMS = median(serveSelf)

	var dsrSelf, roundMS, rpcMS, netMS []float64
	for i := range rounds {
		r := &rounds[i]
		rep.RPCs += len(r.rpcs)
		if len(r.rpcs) == 0 {
			continue
		}
		dsrSelf = append(dsrSelf, ms(selfTime(r.span, r.rpcs)))
		roundMS = append(roundMS, ms(r.End-r.Start))
		for _, c := range r.rpcs {
			rpcMS = append(rpcMS, ms(c.End-c.Start))
			netMS = append(netMS, ms(c.End-c.Start-time.Duration(c.Timing.Total())))
		}
	}
	rep.DSRSelfMS, rep.RoundMS = median(dsrSelf), median(roundMS)
	rep.RPCMS, rep.NetMS = median(rpcMS), median(netMS)

	slices.SortFunc(rows, func(a, b qrow) int { return int(a.total - b.total) })
	n := len(rows)
	bands := [2][2]int{{n * 45 / 100, n*55/100 + 1}, {n * 99 / 100, n}}
	for b, lim := range bands {
		lo, hi := lim[0], min(lim[1], n)
		for _, row := range rows[lo:hi] {
			for s, d := range row.stages {
				rep.Band[b][s] += ms(d)
			}
			rep.BandTotal[b] += ms(row.total)
		}
		rep.BandN[b] = hi - lo
		if hi > lo {
			for s := range rep.Band[b] {
				rep.Band[b][s] /= float64(hi - lo)
			}
			rep.BandTotal[b] /= float64(hi - lo)
		}
	}
	return rep, rounds
}

// printStageTable renders the report for a human.
func (rep traceReport) printStageTable(w io.Writer, workloadName string) {
	fmt.Fprintf(w, "\nstage table — %s — %d queries, %d rounds, %d RPCs; client.query median %.3f ms\n",
		workloadName, rep.Queries, rep.Rounds, rep.RPCs, rep.QueryMedianMS)
	fmt.Fprintf(w, "%-66s %12s %7s %12s %7s\n", "stage (self time, mean over band)",
		fmt.Sprintf("p45-55 n=%d", rep.BandN[0]), "share", fmt.Sprintf("p99+ n=%d", rep.BandN[1]), "share")
	var sum [2]float64
	for s, name := range stageNames {
		if rep.Band[0][s] == 0 && rep.Band[1][s] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-66s %9.4f ms %6.1f%% %9.4f ms %6.1f%%\n", name,
			rep.Band[0][s], 100*rep.Band[0][s]/rep.BandTotal[0], rep.Band[1][s], 100*rep.Band[1][s]/rep.BandTotal[1])
		sum[0] += rep.Band[0][s]
		sum[1] += rep.Band[1][s]
	}
	fmt.Fprintf(w, "%-66s %9.4f ms %7s %9.4f ms\n", "sum of self times", sum[0], "", sum[1])
	fmt.Fprintf(w, "%-66s %9.4f ms %7s %9.4f ms\n", "client.query mean over band", rep.BandTotal[0], "", rep.BandTotal[1])
}

// writeTrace dumps every span as one JSON object per line. Spans of one
// query share its canonical key (hex of serve.Key) as identifier:
// client.query carries it as id, serve.round lists the ids it carried,
// shard.rpc and shard.server name their round by its index.
func writeTrace(path string, queries []span, rounds []roundTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	type line struct {
		Name    string   `json:"name"`
		ID      string   `json:"id,omitempty"`
		IDs     []string `json:"ids,omitempty"`
		Round   *int     `json:"round,omitempty"`
		Part    *int     `json:"part,omitempty"`
		StartUS float64  `json:"start_us"`
		EndUS   float64  `json:"end_us"`
		Timing  []uint64 `json:"decode_queue_search_encode_ns,omitempty"`
	}
	for _, q := range queries {
		enc.Encode(line{Name: spanQuery, ID: hex.EncodeToString([]byte(serve.Key(q.q.S, q.q.T))), StartUS: us(q.Start), EndUS: us(q.End)})
	}
	for i, r := range rounds {
		i := i
		ids := make([]string, len(r.queries))
		for j, q := range r.queries {
			ids[j] = hex.EncodeToString([]byte(serve.Key(q.S, q.T)))
		}
		enc.Encode(line{Name: spanRound, IDs: ids, Round: &i, StartUS: us(r.Start), EndUS: us(r.End)})
		for _, c := range r.rpcs {
			p := c.Part
			enc.Encode(line{Name: spanRPC, Round: &i, Part: &p, StartUS: us(c.Start), EndUS: us(c.End)})
			// The server's clock is not ours: its span is placed at the
			// end of the RPC, which is where a reply's last byte leaves.
			t := c.Timing
			enc.Encode(line{Name: spanServer, Round: &i, Part: &p, StartUS: us(c.End - time.Duration(t.Total())), EndUS: us(c.End),
				Timing: []uint64{t.Decode, t.Queue, t.Search, t.Encode}})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
