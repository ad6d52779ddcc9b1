package serve

import (
	"errors"
	"sync"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/obs"
)

// pending is one in-flight query: what to ask, where its answer goes,
// and the channel its connection's writer blocks on. The batcher owns
// ans/err until it closes ready; after that they are immutable and the
// writer may read them.
type pending struct {
	q     dsr.Query
	key   string // canonical cache key; "" when the query skipped the cache
	ans   bool
	err   error
	ready chan struct{}
	done  func() // admission release hook; nil for unadmitted pendings
	start time.Time
}

// settle publishes the outcome: runs the admission release hook and
// unblocks the writer. Must be called exactly once.
func (p *pending) settle() {
	if p.done != nil {
		p.done()
	}
	close(p.ready)
}

// batcher assembles queries from every connection into shared batches
// and hands them to the engine one round at a time. Dispatch is driven
// by events, not by a clock: a batch departs the moment no round is in
// the engine, carrying the oldest MaxBatch waiting queries in arrival
// order. So the first query on an idle server leaves at once, alone,
// and everything that arrives during a round — from any client —
// coalesces into the batch that leaves when the round returns. One
// shard RPC round thus serves many clients exactly when there are many
// to serve, which is the point: the engine's per-round cost is
// dominated by fan-out/fan-in, not by batch size. Queries wait here,
// where admission can see and bound them, never on the engine.
type batcher struct {
	q        Querier
	cache    *Cache
	maxBatch int

	mu     sync.Mutex
	cur    []*pending // admitted, not yet in a round; oldest first; empty unless busy
	busy   bool       // a round is in the engine
	rounds sync.WaitGroup
	closed bool

	batches   *obs.Counter
	batchSize *obs.Histogram
	wait      *obs.Histogram
}

func newBatcher(q Querier, cache *Cache, o Options) *batcher {
	return &batcher{
		q:         q,
		cache:     cache,
		maxBatch:  o.MaxBatch,
		batches:   o.Metrics.Counter("dsr_serve_batches_total"),
		batchSize: o.Metrics.Histogram("dsr_serve_batch_size"),
		wait:      o.Metrics.Histogram("dsr_serve_dispatch_wait_ns"),
	}
}

// enqueue adds p to the forming batch, which departs now if no round is
// in the engine.
func (b *batcher) enqueue(p *pending) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		p.err = ErrServerClosed
		p.settle()
		return
	}
	b.cur = append(b.cur, p)
	if !b.busy {
		b.startLocked()
	}
}

// startLocked puts the oldest MaxBatch waiting queries into the engine.
// The caller has made sure some wait and no round is in the engine.
func (b *batcher) startLocked() {
	batch := b.cur
	b.cur = nil
	if len(batch) > b.maxBatch {
		batch, b.cur = batch[:b.maxBatch:b.maxBatch], batch[b.maxBatch:]
	}
	b.wait.ObserveSince(batch[0].start)
	b.busy = true
	b.rounds.Add(1)
	go b.work(batch)
}

// work is one round. The engine passes on the moment it returns — to
// the batch that formed meanwhile — and only then are this round's
// answers handed out, so demuxing one round overlaps the engine's work
// on the next.
func (b *batcher) work(batch []*pending) {
	defer b.rounds.Done()
	b.batches.Inc()
	b.batchSize.Observe(int64(len(batch)))
	queries := make([]dsr.Query, len(batch))
	for i, p := range batch {
		queries[i] = p.q
	}
	answers, err := b.q.QueryBatchErr(queries)
	b.mu.Lock()
	b.busy = false
	if len(b.cur) > 0 {
		b.startLocked()
	}
	b.mu.Unlock()
	b.settle(batch, answers, err)
}

// settle demuxes a round's outcome back to each pending. Partial
// failures (*dsr.BatchError) fail only the queries the error's mask
// flags; the rest are answered and cached normally.
func (b *batcher) settle(batch []*pending, answers []bool, err error) {
	var be *dsr.BatchError
	partial := errors.As(err, &be)
	// Last to first: a session's writer blocks on the oldest of its
	// queries, so when that one wakes it every later answer this round
	// holds for the session is readable too, and they leave in one
	// socket write instead of one each.
	for i := len(batch) - 1; i >= 0; i-- {
		p := batch[i]
		if err == nil || (partial && !be.Failed[i]) {
			p.ans = answers[i]
			b.cache.Put(p.key, p.ans)
		} else {
			p.err = err
		}
		p.settle()
	}
}

// stop rejects future enqueues without waiting for the engine. Anything
// still forming leaves behind the round in flight, which the engine's
// owner can end by closing the engine.
func (b *batcher) stop() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// close stops the batcher and returns once every round has, so no
// writer is left waiting on a batch that will never depart.
func (b *batcher) close() {
	b.stop()
	b.rounds.Wait()
}
