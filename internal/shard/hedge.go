package shard

import (
	"time"

	"dsr/internal/wire"
)

// HedgeOptions configures hedged requests: when a batch has waited on
// its replica longer than a high quantile of the fleet's usual primary
// latency, the replica set re-sends it to an idle sibling and hands the
// coordinator whichever answer lands first. Hedging is sound because
// local searches are idempotent reads over an immutable subgraph — the
// loser's answer is identical and is dropped unread. It takes effect
// per partition, where the replica set has two or more members: a set
// of one has no sibling and never arms a deadline. The zero value means
// no hedging.
type HedgeOptions struct {
	// Enabled turns hedging on.
	Enabled bool
	// Percentile of the per-partition primary RPC latency to use as the
	// hedge deadline, in (0,1). 0 means 0.99: only the slowest 1% of
	// batches pay the duplicate work.
	Percentile float64
	// Min clamps the deadline from below, so a very fast fleet doesn't
	// hedge on scheduling jitter. 0 means 1ms.
	Min time.Duration
	// Max clamps the deadline from above and is also the deadline used
	// until enough samples accumulate to estimate the percentile. 0
	// means 100ms.
	Max time.Duration
}

// withDefaults fills zero fields and sanity-clamps the rest.
func (o HedgeOptions) withDefaults() HedgeOptions {
	if o.Percentile <= 0 || o.Percentile >= 1 {
		o.Percentile = 0.99
	}
	if o.Min <= 0 {
		o.Min = time.Millisecond
	}
	if o.Max <= 0 {
		o.Max = 100 * time.Millisecond
	}
	if o.Max < o.Min {
		o.Max = o.Min
	}
	return o
}

// hedgeMinSamples is how many primary latency samples every partition
// must have before the percentile estimate is trusted; until then the
// deadline is Max, so a cold transport hedges late rather than
// stampeding siblings off a meaningless estimate.
const hedgeMinSamples = 16

// hedgeDelay returns the deadline for the next batch: the slowest
// partition's Percentile-quantile primary latency, clamped to
// [Min, Max]. The slowest partition governs because a round waits for
// all partitions — hedging a fast partition at its own p99 while a
// structurally slower one is still in budget would duplicate work that
// isn't late.
func (r *Replicated) hedgeDelay() time.Duration {
	var worst uint64
	for _, rs := range r.sets {
		if rs.primary.Count() < hedgeMinSamples {
			return r.hedge.Max
		}
		worst = max(worst, rs.primary.Quantile(r.hedge.Percentile))
	}
	return min(max(time.Duration(worst), r.hedge.Min), r.hedge.Max)
}

// race is what a call on a hedging set shares between its two chains:
// the primary (Submit's replica and its failover retries) and, once the
// deadline has fired and found an idle sibling, the hedge. Guarded by
// the set's mu.
type race struct {
	timer *time.Timer // the deadline; nil until the primary is under way
	done  bool        // the coordinator has its one Reply
	out   int         // chains still owing an answer
	hedge *conn       // the sibling the hedge went to; nil if none was sent
}

// settle marks the call answered — by a reply or by the error that ends
// it — and stops a deadline still pending.
func (rc *race) settle() {
	rc.done = true
	if rc.timer != nil {
		rc.timer.Stop()
	}
}

// enter makes c a call the set may hedge. Its replicas get a copy of
// the tasks the call owns: whichever chain loses the race may still be
// reading them long after the coordinator's round — and with it the
// caller's task memory — has moved on.
func (rs *replicaSet) enter(c call) call {
	n := 0
	for i := range c.tasks {
		n += len(c.tasks[i].Seeds) + len(c.tasks[i].Targets)
	}
	arena := make([]int32, 0, n)
	own := func(ids []int32) []int32 {
		arena = append(arena, ids...)
		return arena[len(arena)-len(ids) : len(arena) : len(arena)]
	}
	tasks := make([]wire.Task, len(c.tasks))
	for i, t := range c.tasks {
		t.Seeds, t.Targets = own(t.Seeds), own(t.Targets)
		tasks[i] = t
	}
	c.tasks, c.race = tasks, &race{out: 1}
	return c
}

// arm starts c's deadline, once its primary has been handed over — a
// deadline running ahead of the primary could claim the one idle
// replica the primary needs.
func (rs *replicaSet) arm(c call) {
	rs.mu.Lock()
	if !c.race.done {
		c.race.timer = time.AfterFunc(rs.tr.hedgeDelay(), func() { rs.fire(c) })
	}
	rs.mu.Unlock()
}

// fire is the deadline: c is still unanswered, so re-send it to an idle
// live sibling. With none idle nothing happens — a hedge is a latency
// tool, not an availability one, so it never queues, never redials, and
// the primary still owns retries.
func (rs *replicaSet) fire(c call) {
	if !rs.tr.begin() {
		return
	}
	rs.mu.Lock()
	var cn *conn
	if !c.race.done {
		if cn = rs.pickLocked(nil); cn != nil {
			c.race.hedge = cn
			c.race.out++
		}
	}
	rs.mu.Unlock()
	if cn == nil {
		rs.tr.calls.Done()
		return
	}
	rs.hedges.Inc()
	cn.send(c)
}

// answered settles a successful reply to a hedging call: the first in
// is the coordinator's, the other is dropped unread. The winner of a
// call that was hedged is copied out of its replica's buffers before
// that replica is released — the losing chain is still running, and
// where the transport itself overlapped two submits nothing may hang on
// which replica runs what next. An unhedged winner aliases them, as on
// any other set.
func (rs *replicaSet) answered(cn *conn, c call, reply Reply) {
	rc := c.race
	rs.mu.Lock()
	won, hedge, hedged := !rc.done, rc.hedge == cn, rc.hedge != nil
	rc.settle()
	rc.out--
	rs.mu.Unlock()
	if !hedge {
		rs.primary.ObserveSince(c.start)
	}
	if won && hedged {
		reply.Results = copyResults(reply.Results)
	}
	rs.release(cn)
	if !won {
		rs.tr.calls.Done()
		return
	}
	if hedge {
		rs.hedgeWins.Inc()
	}
	rs.finish(c, reply)
}

// pursues reports whether the chain that just failed on cn goes on to
// another replica: only the primary of a call still unanswered does.
func (rs *replicaSet) pursues(cn *conn, c call) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return !c.race.done && c.race.hedge != cn
}

// lost ends one chain of a hedging call in failure — the hedge on its
// replica's, the primary once it has run out of replicas — and reports
// whether that leaves the call unanswered with no chain running, i.e.
// whether the caller now owes the coordinator the error Reply.
func (rs *replicaSet) lost(c call) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rc := c.race
	rc.out--
	if rc.done || rc.out > 0 {
		return false
	}
	rc.settle()
	return true
}

// copyResults rebinds results onto a freshly allocated backing array —
// one arena for all Boundary lists — so the reply no longer aliases
// the replica connection's reusable decode buffers.
func copyResults(results []wire.Result) []wire.Result {
	if len(results) == 0 {
		return results
	}
	total := 0
	for i := range results {
		total += len(results[i].Boundary)
	}
	out := make([]wire.Result, len(results))
	copy(out, results)
	arena := make([]uint32, total)
	for i := range out {
		n := copy(arena, out[i].Boundary)
		out[i].Boundary, arena = arena[:n:n], arena[n:]
	}
	return out
}
