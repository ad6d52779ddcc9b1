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

// batcher assembles queries from every connection into shared batches:
// the first query to arrive opens a window (BatchWindow); everything
// that lands before it expires — from any client — rides the same
// engine round, and a batch that reaches MaxBatch departs early. One
// shard RPC round thus serves many clients, which is the point: the
// engine's per-round cost is dominated by fan-out/fan-in, not by batch
// size. The in-flight semaphore caps concurrent engine rounds so a
// burst queues here (where admission can see and bound it) instead of
// piling onto the engine.
type batcher struct {
	q        Querier
	cache    *Cache
	window   time.Duration
	maxBatch int
	sem      chan struct{} // in-flight engine rounds

	mu     sync.Mutex
	cur    []*pending
	timer  *time.Timer
	closed bool

	batches   *obs.Counter
	batchSize *obs.Histogram
}

func newBatcher(q Querier, cache *Cache, o Options) *batcher {
	return &batcher{
		q:         q,
		cache:     cache,
		window:    o.BatchWindow,
		maxBatch:  o.MaxBatch,
		sem:       make(chan struct{}, o.MaxInFlight),
		batches:   o.Metrics.Counter("dsr_serve_batches_total"),
		batchSize: o.Metrics.Histogram("dsr_serve_batch_size"),
	}
}

// enqueue adds p to the forming batch. The first entry arms the window
// timer; reaching maxBatch flushes immediately.
func (b *batcher) enqueue(p *pending) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		p.err = ErrServerClosed
		p.settle()
		return
	}
	b.cur = append(b.cur, p)
	if len(b.cur) >= b.maxBatch {
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.run(batch)
		return
	}
	if len(b.cur) == 1 {
		b.timer = time.AfterFunc(b.window, b.windowExpired)
	}
	b.mu.Unlock()
}

// takeLocked detaches the forming batch and disarms its timer.
func (b *batcher) takeLocked() []*pending {
	batch := b.cur
	b.cur = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// windowExpired runs in the timer goroutine; the batch departs with
// whatever accumulated.
func (b *batcher) windowExpired() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.run(batch)
	}
}

// run executes one shared batch against the engine and demuxes the
// answers back to each pending. Partial failures (*dsr.BatchError)
// fail only the queries the error's mask flags; the rest are answered
// and cached normally.
func (b *batcher) run(batch []*pending) {
	b.sem <- struct{}{}
	defer func() { <-b.sem }()

	b.batches.Inc()
	b.batchSize.Observe(int64(len(batch)))
	queries := make([]dsr.Query, len(batch))
	for i, p := range batch {
		queries[i] = p.q
	}
	answers, err := b.q.QueryBatchErr(queries)

	var be *dsr.BatchError
	switch {
	case err == nil:
		for i, p := range batch {
			p.ans = answers[i]
			b.cache.Put(p.key, p.ans)
			p.settle()
		}
	case errors.As(err, &be):
		for i, p := range batch {
			if be.Failed[i] {
				p.err = err
			} else {
				p.ans = answers[i]
				b.cache.Put(p.key, p.ans)
			}
			p.settle()
		}
	default:
		for _, p := range batch {
			p.err = err
			p.settle()
		}
	}
}

// close rejects future enqueues and flushes anything still forming, so
// no writer is left waiting on a batch that will never depart.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.run(batch)
	}
}
