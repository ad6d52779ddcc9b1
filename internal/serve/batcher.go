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
// and runs them in MaxInFlight round slots. Dispatch is driven by
// events, not by a clock: a batch departs the moment a slot is free and
// it is full or its window is spent — and with no window configured
// (the default) a window is always spent. So the first query on an idle
// server leaves at once, alone, and everything that arrives while the
// slots are busy — from any client — coalesces, up to MaxBatch, into
// the batch that leaves when a round returns. One shard RPC round thus
// serves many clients exactly when there are many to serve, which is
// the point: the engine's per-round cost is dominated by fan-out/fan-in,
// not by batch size. Queries wait here, where admission can see and
// bound them, never on the engine.
type batcher struct {
	q        Querier
	cache    *Cache
	window   time.Duration
	maxBatch int

	mu     sync.Mutex
	cur    []*pending     // admitted, not yet in a round; oldest first
	free   int            // round slots not in use
	timer  *time.Timer    // created only under a configured window
	rounds sync.WaitGroup // slots in use
	closed bool

	batches   *obs.Counter
	batchSize *obs.Histogram
	wait      *obs.Histogram
}

func newBatcher(q Querier, cache *Cache, o Options) *batcher {
	return &batcher{
		q:         q,
		cache:     cache,
		window:    o.BatchWindow,
		maxBatch:  o.MaxBatch,
		free:      o.MaxInFlight,
		batches:   o.Metrics.Counter("dsr_serve_batches_total"),
		batchSize: o.Metrics.Histogram("dsr_serve_batch_size"),
		wait:      o.Metrics.Histogram("dsr_serve_dispatch_wait_ns"),
	}
}

// enqueue adds p to the forming batch, which departs now if it may.
func (b *batcher) enqueue(p *pending) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		p.err = ErrServerClosed
		p.settle()
		return
	}
	b.cur = append(b.cur, p)
	if len(b.cur) == 1 {
		b.armLocked()
	}
	b.dispatchLocked()
	b.mu.Unlock()
}

// armLocked schedules a dispatch for the moment the forming batch's
// window will be spent. With no window configured there is nothing to
// wait out, and no timer ever exists.
func (b *batcher) armLocked() {
	if b.window == 0 {
		return
	}
	d := b.window - time.Since(b.cur[0].start)
	if b.timer == nil {
		b.timer = time.AfterFunc(d, b.dispatch)
	} else {
		b.timer.Reset(d)
	}
}

// takeLocked detaches the batch that may depart now: the oldest
// MaxBatch waiting queries, if that many wait, the first of them has
// waited out the window, or the batcher is closing. Otherwise nil. The
// caller has a free slot for it.
func (b *batcher) takeLocked() []*pending {
	n := len(b.cur)
	if n == 0 {
		return nil
	}
	wait := time.Since(b.cur[0].start)
	if n < b.maxBatch && wait < b.window && !b.closed {
		return nil
	}
	batch := b.cur
	b.cur = nil
	if n > b.maxBatch {
		batch, b.cur = batch[:b.maxBatch:b.maxBatch], batch[b.maxBatch:]
		b.armLocked()
	}
	b.wait.Observe(int64(wait))
	return batch
}

// dispatchLocked puts free slots to work on whatever may depart.
func (b *batcher) dispatchLocked() {
	for b.free > 0 {
		batch := b.takeLocked()
		if batch == nil {
			return
		}
		b.free--
		b.rounds.Add(1)
		go b.work(batch)
	}
}

// dispatch is the window timer's callback. A timer that fires late, for
// a batch that already left full, finds nothing it may take.
func (b *batcher) dispatch() {
	b.mu.Lock()
	b.dispatchLocked()
	b.mu.Unlock()
}

// work is one round in its slot. The slot passes on the moment the
// engine returns — to the batch that formed meanwhile, if it may depart
// — and only then are this round's answers handed out, so demuxing one
// round overlaps the engine's work on the next.
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
	b.free++
	b.dispatchLocked()
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

// close rejects future enqueues, sends off anything still forming
// without waiting out its window, and returns once every round has, so
// no writer is left waiting on a batch that will never depart.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.dispatchLocked()
	b.mu.Unlock()
	b.rounds.Wait()
}
