package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsr/bench/workload"
	"dsr/internal/serve"
)

// The load shape, fixed for every workload: one generator process, two
// connections (nproc on the reference machine), each pipelining up to
// 32 queries in a closed loop.
const (
	numConns    = 2
	window      = 32
	sampleCap   = 4096 // oracle-checked answers per workload, at most
	maxLateness = 64   // generator lateness samples kept per connection and segment
)

// sample is one answer kept for the oracle.
type sample struct {
	Q   workload.Query
	Ans bool
}

// connResult is what one connection's loop hands back.
type connResult struct {
	rec       *recorder
	attempted int
	failed    int // error responses: shed, unavailable
	samples   []sample
	// first[id] is 1+answer of a pool query's first response, 0 while
	// unseen; inconsistent counts repeats that disagreed with it.
	first        []int8
	inconsistent int
	late         []float64 // open loop: send time − due time, ms
	spans        []span    // traced runs only
}

// loadSpec describes one load run against a serving address.
type loadSpec struct {
	addr    string
	seed    uint64
	tl      *timeline
	sources []workload.Source // one per connection
	// arrivals[c], when non-nil, makes connection c an open loop
	// sending on that schedule; otherwise it runs the closed loop until
	// the timeline ends.
	arrivals [][]time.Duration
	stride   int     // 1-in-stride answers are kept for the oracle
	poolSize int     // >0: sources draw from a pool of this many queries
	tr       *tracer // non-nil: a traced run; keep a client.query span per answer
}

// runLoad drives every connection concurrently and returns their
// results. An I/O error on any connection fails the run.
func runLoad(ls loadSpec) ([]*connResult, error) {
	clients := make([]*serve.Client, len(ls.sources))
	for i := range clients {
		c, err := serve.Dial(ls.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	results := make([]*connResult, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	if ls.tr != nil {
		ls.tr.epoch = start
		ls.tr.enabled.Store(true)
		defer ls.tr.enabled.Store(false)
	}
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := &connLoop{
				ls: ls, conn: i, c: clients[i], src: ls.sources[i], start: start,
				res: &connResult{rec: newRecorder(ls.tl)},
			}
			if ls.poolSize > 0 {
				l.res.first = make([]int8, ls.poolSize)
			}
			if ls.arrivals != nil {
				errs[i] = l.open(ls.arrivals[i])
			} else {
				errs[i] = l.closed()
			}
			results[i] = l.res
		}(i)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// connLoop is one connection's state while it runs.
type connLoop struct {
	ls    loadSpec
	conn  int
	c     *serve.Client
	src   workload.Source
	start time.Time
	res   *connResult
}

// inflight is a query that was sent and not yet answered.
type inflight struct {
	q   workload.Query
	due time.Duration // offset from start at which it was due to be sent
}

// closed keeps window queries outstanding until the timeline ends, then
// collects the stragglers. In a closed loop a query is due the moment
// its predecessor's answer frees the slot, which is when it is sent.
func (l *connLoop) closed() error {
	ring := make([]inflight, window)
	sent, recvd := 0, 0
	send := func() error {
		it := inflight{q: l.src.Next(), due: time.Since(l.start)}
		ring[sent%window] = it
		sent++
		return l.c.Send(it.q.S, it.q.T)
	}
	for sent < window {
		if err := send(); err != nil {
			return err
		}
	}
	for recvd < sent {
		ans, err := l.c.Recv()
		at := time.Since(l.start)
		if err := l.settle(ring[recvd%window], at, ans, err); err != nil {
			return err
		}
		recvd++
		if at < l.ls.tl.total {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// open sends on the schedule regardless of how answers are coming
// back. The sender never waits for the receiver: latency runs from the
// due time, so whatever delays an answer — a stalled server, a backlog,
// the generator itself running late — lands in the numbers of every
// query it held up.
//
// serve.Client is documented as single-goroutine; splitting it is safe
// here because Send touches only the write half and Recv only the read
// half of the connection.
func (l *connLoop) open(due []time.Duration) error {
	// Sized to the whole schedule so the sender cannot block on it.
	pending := make(chan inflight, len(due))
	sendErr := make(chan error, 1)
	go func() {
		defer close(pending)
		for _, d := range due {
			if wait := d - time.Since(l.start); wait > 0 {
				time.Sleep(wait)
			}
			it := inflight{q: l.src.Next(), due: d}
			late := time.Since(l.start) - d
			if s := l.ls.tl.segment(d); s >= 0 && len(l.res.late) < maxLateness*l.ls.tl.nseg {
				l.res.late = append(l.res.late, float64(late)/float64(time.Millisecond))
			}
			pending <- it
			if err := l.c.Send(it.q.S, it.q.T); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var recvErr error
	for it := range pending {
		if recvErr != nil {
			continue // drain so the sender can finish
		}
		ans, err := l.c.Recv()
		recvErr = l.settle(it, time.Since(l.start), ans, err)
	}
	return errors.Join(<-sendErr, recvErr)
}

// settle books one response. Error responses (overload, unavailable)
// are failures of the system under test and are counted; a broken
// connection is a failure of the run and is returned.
func (l *connLoop) settle(it inflight, at time.Duration, ans bool, err error) error {
	l.res.attempted++
	if err != nil {
		var oe *serve.OverloadError
		if errors.As(err, &oe) || isServerError(err) {
			l.res.failed++
			return nil
		}
		return fmt.Errorf("connection %d: %w", l.conn, err)
	}
	l.res.rec.observe(at, at-it.due)
	if l.ls.tr != nil {
		l.res.spans = append(l.res.spans, span{Start: it.due, End: at, q: &it.q})
	}
	fresh := true
	if l.res.first != nil {
		want := int8(1)
		if ans {
			want = 2
		}
		switch l.res.first[it.q.ID] {
		case 0:
			l.res.first[it.q.ID] = want
		case want:
			fresh = false
		default:
			fresh = false
			l.res.inconsistent++
		}
	}
	if fresh && len(l.res.samples) < sampleCap/numConns && workload.Sampled(l.ls.seed, l.conn, it.q.ID, l.ls.stride) {
		l.res.samples = append(l.res.samples, sample{Q: it.q, Ans: ans})
	}
	return nil
}

// isServerError reports whether err is a well-formed error response
// (as opposed to a transport failure).
func isServerError(err error) bool {
	return strings.HasPrefix(err.Error(), "serve: server reported ")
}
