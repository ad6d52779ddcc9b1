// Package serve is the always-on serving layer over a DSR engine: a
// TCP server speaking the dsr-query line protocol ("s1 s2 | t1 t2" in,
// "true"/"false"/"error <kind>" out) that multiplexes many concurrent
// clients onto one coordinator. Three mechanisms make it a service
// rather than a socket wrapper:
//
//   - Cross-client batching (batcher): one round is in the engine at a
//     time, and queries that arrive during it — from any connection —
//     share the round that starts when it returns, so shard RPC fan-out
//     is paid per batch, not per query, and a query on an idle server
//     waits for nothing.
//   - Result caching (Cache): a 2Q LRU over canonicalized (S, T) keys,
//     sound because the served graph is immutable. Hits bypass batching
//     and admission entirely.
//   - Admission control (admission): a server-wide queue bound and a
//     per-client outstanding bound shed load with a typed
//     OverloadError instead of letting latency collapse.
//
// Per connection, requests are answered in order even though their
// batches complete out of order: a reader goroutine parses and admits,
// a writer goroutine replies in arrival sequence as each answer
// settles, and flushes whatever it has written before it waits for one
// that has not.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/obs"
)

// Querier is the engine capability the server needs: batch queries
// with partial-failure reporting. *dsr.Engine satisfies it.
type Querier interface {
	QueryBatchErr(queries []dsr.Query) ([]bool, error)
}

// ErrServerClosed is returned by Serve after Shutdown, and is the
// error pending queries settle with when the server stops first.
var ErrServerClosed = errors.New("serve: server closed")

// errParse marks protocol violations on the request line; the writer
// renders them as "error parse: ...".
var errParse = errors.New("parse")

// Options tunes the serving layer. The zero value serves: every field
// has a production default, and tests override only what they pin.
type Options struct {
	// MaxBatch caps what one round carries: a batch departs with the
	// oldest MaxBatch waiting queries, and the rest wait for the next
	// round. 0 means 64.
	MaxBatch int
	// CacheEntries bounds the result cache. 0 means 4096; negative
	// disables caching.
	CacheEntries int
	// MaxQueued bounds queries admitted but not yet answered across all
	// clients; beyond it the server sheds with OverloadError{"server"}.
	// 0 means 1024.
	MaxQueued int
	// MaxPerClient bounds one connection's outstanding queries; beyond
	// it that client is shed with OverloadError{"client"}. 0 means 256.
	MaxPerClient int
	// Metrics receives the dsr_serve_* and dsr_cache_* instruments.
	// Nil disables metrics.
	Metrics *obs.Registry
	// Log receives connection-lifecycle and shutdown logging. Nil
	// disables logging.
	Log *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.MaxQueued <= 0 {
		o.MaxQueued = 1024
	}
	if o.MaxPerClient <= 0 {
		o.MaxPerClient = 256
	}
	return o
}

// session is one client connection's server-side state: its admission
// accounting plus the ordered hand-off from reader to writer.
type session struct {
	conn        net.Conn
	outstanding atomic.Int64
	writec      chan *pending
}

// Server accepts dsr-query protocol connections and answers them
// through a shared Querier. Construct with New, run with Serve, stop
// with Shutdown; all methods are safe for concurrent use.
type Server struct {
	opt   Options
	cache *Cache
	batch *batcher
	adm   *admission
	log   *obs.Logger

	queries      *obs.Counter
	parseErrs    *obs.Counter
	socketWrites *obs.Counter
	latency      *obs.Histogram
	clients      *obs.Gauge

	// aborted is done once a Shutdown has run out of budget: writers
	// stop waiting for answers the engine may never give.
	aborted context.Context
	abort   context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over q. The engine behind q stays owned by the
// caller: Shutdown stops the server but does not Close the engine.
func New(q Querier, o Options) *Server {
	o = o.withDefaults()
	cache := NewCache(o.CacheEntries, o.Metrics)
	aborted, abort := context.WithCancel(context.Background())
	return &Server{
		opt:          o,
		cache:        cache,
		batch:        newBatcher(q, cache, o),
		adm:          newAdmission(o.MaxQueued, o.MaxPerClient, o.Metrics),
		log:          o.Log,
		queries:      o.Metrics.Counter("dsr_serve_queries_total"),
		parseErrs:    o.Metrics.Counter("dsr_serve_parse_errors_total"),
		socketWrites: o.Metrics.Counter("dsr_serve_socket_writes_total"),
		latency:      o.Metrics.Histogram("dsr_serve_latency_ns"),
		clients:      o.Metrics.Gauge("dsr_serve_clients"),
		conns:        make(map[net.Conn]struct{}),
		aborted:      aborted,
		abort:        abort,
	}
}

// Serve accepts connections on ln until Shutdown, spawning one handler
// per connection. It returns ErrServerClosed after Shutdown, or the
// accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown stops accepting, half-closes every connection's read side
// (so in-flight requests finish and their answers still go out), and
// waits for handlers to drain, up to ctx. On ctx expiry remaining
// connections are force-closed, nothing waits on the engine any more,
// and ctx.Err() is returned: a round still in the engine is its
// owner's to end, by closing the engine.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		if cr, ok := c.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			c.Close()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.batch.close()
		return nil
	case <-ctx.Done():
		s.abort()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		s.batch.stop()
		return ctx.Err()
	}
}

// handleConn runs a connection's reader inline and its writer as a
// goroutine. The reader parses, admits, and enqueues in arrival order;
// the writer replies in that same order, blocking on each pending's
// settle. The bounded hand-off channel means a client that stops
// reading responses eventually stops being read from — backpressure
// ends at the socket, not in server memory.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	s.clients.Add(1)
	sess := &session{
		conn:   conn,
		writec: make(chan *pending, s.opt.MaxPerClient+16),
	}

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeLoop(sess)
	}()

	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sess.writec <- s.begin(sess, line)
	}
	close(sess.writec)
	writerWG.Wait()
	conn.Close()

	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.clients.Add(-1)
}

// begin takes one request line from parse to cache to admission to
// batch, returning the pending the writer will answer. Cache hits and
// rejections come back already settled.
func (s *Server) begin(sess *session, line string) *pending {
	s.queries.Inc()
	start := time.Now()
	q, err := parseQuery(line)
	if err != nil {
		s.parseErrs.Inc()
		return settled(false, err, start)
	}
	key := Key(q.S, q.T)
	if ans, ok := s.cache.Get(key); ok {
		return settled(ans, nil, start)
	}
	if err := s.adm.admit(sess); err != nil {
		return settled(false, err, start)
	}
	p := &pending{
		q:     q,
		key:   key,
		ready: make(chan struct{}),
		done:  func() { s.adm.release(sess) },
		start: start,
	}
	s.batch.enqueue(p)
	return p
}

// closedc is the ready channel of every pending that never needs
// settling.
var closedc = make(chan struct{})

func init() { close(closedc) }

// settled builds a pending that is already answered (cache hit) or
// already failed (parse error, overload) — the writer won't block.
func settled(ans bool, err error, start time.Time) *pending {
	return &pending{ans: ans, err: err, ready: closedc, start: start}
}

// writeLoop replies to sess's requests in arrival order, waiting for
// each answer to settle before formatting it. Answers accumulate in w
// for as long as the next one is at hand — which batches the writes of
// a pipelining client for free — and reach the socket before the
// writer blocks, on an unsettled answer or on an empty queue: an answer
// that is ready never waits for one that is not. Once a Shutdown has
// run out of budget the connection is closed, and an unsettled answer
// is skipped instead of waited for.
func (s *Server) writeLoop(sess *session) {
	w := bufio.NewWriter(sess.conn)
	flush := func() {
		if w.Buffered() > 0 {
			s.socketWrites.Inc() // first: whoever has read the bytes finds them counted
			w.Flush()
		}
	}
	for p := range sess.writec {
		select {
		case <-p.ready:
		default:
			flush()
			select {
			case <-p.ready:
			case <-s.aborted.Done():
				continue
			}
		}
		s.latency.ObserveSince(p.start)
		w.WriteString(respond(p))
		w.WriteByte('\n')
		if len(sess.writec) == 0 {
			flush()
		}
	}
	flush()
}

// respond renders one settled pending in the response grammar: "true",
// "false", or "error <kind>[: detail]" with kind one of parse,
// overload, unavailable.
func respond(p *pending) string {
	if p.err == nil {
		if p.ans {
			return "true"
		}
		return "false"
	}
	var oe *OverloadError
	switch {
	case errors.As(p.err, &oe):
		return "error overload: " + oe.Scope
	case errors.Is(p.err, errParse):
		return "error " + p.err.Error()
	default:
		return "error unavailable"
	}
}

// parseQuery reads one request line with the tokenizer dsr-query's
// stdin session shares (dsr.ParseQuery) and renders its failures as the
// protocol's "parse: ..." errors. Rejecting an empty side is this
// protocol's own policy; the stdin session answers such a query false.
func parseQuery(line string) (dsr.Query, error) {
	q, err := dsr.ParseQuery(line)
	if err != nil {
		var bad *strconv.NumError // declared on the error path only: it escapes
		if errors.As(err, &bad) {
			return q, fmt.Errorf("%w: bad vertex id %q", errParse, bad.Num)
		}
		return q, fmt.Errorf("%w: missing '|' separator", errParse)
	}
	if len(q.S) == 0 || len(q.T) == 0 {
		return q, fmt.Errorf("%w: empty vertex set", errParse)
	}
	return q, nil
}
