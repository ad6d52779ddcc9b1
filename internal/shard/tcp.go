package shard

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dsr/internal/obs"
	"dsr/internal/wire"
)

// handshakeTimeout bounds how long a dialing coordinator waits for the
// shard's hello frame.
const handshakeTimeout = 10 * time.Second

// drainTimeout bounds how long a graceful Shutdown lets a busy
// connection finish writing its in-flight response. Without it a peer
// that stops draining its socket would block Shutdown — and a
// SIGTERMed dsr-shard — forever on a full send buffer.
const drainTimeout = 30 * time.Second

// Server serves one shard's local-search RPCs over TCP: per connection,
// a hello frame identifying the shard, then a request/response loop of
// MsgTasks -> MsgResults frames — plus MsgSummaryRequest -> MsgSummary,
// which ships the partition's boundary summary to a graph-free
// coordinator at connect time. Protocol violations get a MsgError
// frame and the connection is dropped; the server itself keeps running.
//
// Connections share the one Shard, so Run (and the encoding of its
// aliasing results) is serialized under a mutex.
type Server struct {
	sh      *Shard
	hello   wire.Hello
	summary []byte // pre-encoded MsgSummary frame payload, immutable

	runMu sync.Mutex // serializes Shard.Run + result encoding

	mu       sync.Mutex // guards ln, conns, closed, draining
	ln       net.Listener
	conns    map[net.Conn]bool // value: mid-batch (busy) rather than between batches
	closed   bool
	draining bool
	wg       sync.WaitGroup

	// Telemetry, set by Instrument before Serve; nil (a no-op) without.
	met *netMetrics // net_server_* frame counters
	srv *srvMetrics // shard_server_* per-batch metrics
	log *obs.Logger // protocol-failure logging
}

// srvMetrics holds the server's per-batch metrics. The phase
// histograms are the same four numbers the timing footer ships to the
// coordinator, kept locally so a shard's own /metrics shows where its
// batches spend time even when no coordinator asks for footers. Beside
// them, what the search did with the batch (Shard.LastRun): how many
// tasks the broadcast delivered, how many of those held no seed of this
// partition — the broadcast's waste — and how many components the
// batch's walks expanded, after pruning, which over the owned task
// count is the mean closure a search walks.
type srvMetrics struct {
	decode *obs.Histogram
	queue  *obs.Histogram
	search *obs.Histogram
	encode *obs.Histogram

	tasks   *obs.Counter
	unowned *obs.Counter
	swept   *obs.Histogram
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	return &srvMetrics{
		decode: reg.Histogram("shard_server_decode_ns"),
		queue:  reg.Histogram("shard_server_queue_ns"),
		search: reg.Histogram("shard_server_search_ns"),
		encode: reg.Histogram("shard_server_encode_ns"),

		tasks:   reg.Counter("shard_server_tasks_total"),
		unowned: reg.Counter("shard_server_tasks_unowned_total"),
		swept:   reg.Histogram("shard_server_sweep_components"),
	}
}

func (st *srvMetrics) observe(t wire.ServerTiming, tasks int, run RunStats) {
	if st == nil {
		return
	}
	st.decode.Observe(int64(t.Decode))
	st.queue.Observe(int64(t.Queue))
	st.search.Observe(int64(t.Search))
	st.encode.Observe(int64(t.Encode))
	st.tasks.Add(uint64(tasks))
	st.unowned.Add(uint64(run.Unowned))
	st.swept.Observe(int64(run.Components))
}

// Instrument wires telemetry into the server: frame and byte counters
// under net_server_* in reg, the per-batch shard_server_* metrics, the
// shard_components{region=…} gauges — how the partition's components
// split by what its boundary can see of them (Shard.Regions), which is
// how much of it no walk ever expands — and a logger for
// connection-level protocol failures. Call before Serve. A nil argument
// leaves its part untouched.
func (s *Server) Instrument(reg *obs.Registry, log *obs.Logger) {
	if reg != nil {
		s.met = newNetMetrics(reg, "net_server")
		s.srv = newSrvMetrics(reg)
		r := s.sh.Regions()
		for region, n := range map[string]int{"path": r.Path, "sink": r.Sink, "source": r.Source, "interior": r.Interior} {
			reg.Gauge(obs.Name("shard_components", "region", region)).Set(int64(n))
		}
	}
	if log != nil {
		s.log = log
	}
}

// AnnounceMetrics records the shard's ops-endpoint address in the hello
// frame, so a connecting coordinator learns where to scrape this shard's
// /metrics registry without separate service discovery. Call before
// Serve; addresses longer than the wire cap are truncated to nothing
// (an unannounceable address is worse than none).
func (s *Server) AnnounceMetrics(addr string) {
	if len(addr) > 256 {
		return
	}
	s.hello.MetricsAddr = addr
}

// NewServer returns a server for sh. numShards and numVertices describe
// the whole deployment, graphSum fingerprints the exact edge set the
// shard was built from (graph.Fingerprint), and partSum digests the
// vertex-to-partition assignment (graph.Partitioning.Digest) — the
// check that catches a coordinator running a different partitioner (or
// the same locality partitioner with a different seed) over the same
// graph. 0 disables either check. All of it is echoed in the hello
// frame, with the digest of the shard's boundary summary, so a
// mismatched coordinator refuses the shard instead of silently
// mis-answering.
func NewServer(sh *Shard, numShards, numVertices int, graphSum, partSum uint64) *Server {
	return &Server{
		sh: sh,
		hello: wire.Hello{
			ShardID:       uint32(sh.ID()),
			NumShards:     uint32(numShards),
			NumVertices:   uint32(numVertices),
			Graph:         graphSum,
			Partitioning:  partSum,
			SummaryDigest: sh.Summary().Digest(),
		},
		// Encode the boundary summary New built once, eagerly: every
		// MsgSummaryRequest is answered by writing the same immutable
		// payload — no lock, no re-encoding.
		summary: wire.AppendSummary(nil, sh.Summary()),
		conns:   make(map[net.Conn]bool),
	}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = false
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Close stops accepting, closes every live connection, and waits for
// all connection handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: the listener is closed so new
// connections are refused, idle connections (waiting between batches)
// are closed, and connections mid-batch finish executing and writing
// their response before their handler exits. When Shutdown returns, no
// handler is running and every accepted batch has been answered —
// SIGTERM handling in cmd/dsr-shard rides on this, and a coordinator
// with replicas fails the dropped connections over to a sibling. Safe
// to call more than once and concurrently with Close.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	already := s.closed || s.draining
	s.draining = true
	ln := s.ln
	if !already {
		for c, busy := range s.conns {
			if !busy {
				c.Close()
			} else {
				// Busy handlers get drainTimeout to flush their response;
				// a peer that won't read loses the conn instead of wedging
				// the drain.
				c.SetDeadline(time.Now().Add(drainTimeout))
			}
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// beginBatch marks c busy; it reports false (and the handler must hang
// up without answering) when the server started draining before the
// batch began executing.
func (s *Server) beginBatch(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return false
	}
	s.conns[c] = true
	return true
}

// endBatch marks c idle again; it reports false when the server is
// draining, telling the handler to exit now that its in-flight batch
// has been fully answered.
func (s *Server) endBatch(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[c] = false
	return !(s.closed || s.draining)
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

// sendFrame writes p as one frame, flushes it, and on success counts it
// in met.
func sendFrame(bw *bufio.Writer, p []byte, met *netMetrics) error {
	err := wire.WriteFrame(bw, p)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		met.frameOut(len(p))
	}
	return err
}

func (s *Server) handle(c net.Conn) {
	defer s.dropConn(c)
	bw := bufio.NewWriter(c)
	br := bufio.NewReader(c)
	var rbuf, wbuf []byte
	var tasks []wire.Task
	var seedArena []int32

	wbuf = wire.AppendHello(wbuf[:0], s.hello)
	if sendFrame(bw, wbuf, s.met) != nil {
		return
	}

	fail := func(msg string) {
		s.log.Warnf("dropping connection from %s: %s", c.RemoteAddr(), msg)
		wbuf = wire.AppendError(wbuf[:0], msg)
		sendFrame(bw, wbuf, s.met)
	}
	for {
		p, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			return // EOF or broken conn: just drop it
		}
		s.met.frameIn(len(p))
		if !s.beginBatch(c) {
			return // draining: refuse batches that haven't started executing
		}
		rbuf = p
		ty, err := wire.MsgType(p)
		switch {
		case err == nil && ty == wire.MsgSummaryRequest:
			// Served from the immutable pre-encoded frame; no shard lock.
			if sendFrame(bw, s.summary, s.met) != nil {
				return
			}
		case err == nil && ty == wire.MsgTasks:
			// Each phase is timed: the breakdown feeds the shard's own
			// shard_server_* histograms on every batch, and rides back to
			// the coordinator as a footer when the batch asked for it.
			t0 := time.Now()
			var hdr wire.BatchHeader
			hdr, tasks, seedArena, err = wire.DecodeTasks(p, tasks[:0], seedArena[:0])
			if err != nil {
				s.met.decodeErr()
				fail(fmt.Sprintf("shard %d: bad task batch: %v", s.sh.ID(), err))
				return
			}
			t1 := time.Now()
			// Run and encode under one lock: the results alias shard-owned
			// buffers that the next Run (possibly from another connection)
			// rewrites. Seeds are global IDs; the shard skips unowned ones
			// and reports coverage via Owned, so no validity pre-check.
			s.runMu.Lock()
			t2 := time.Now()
			results := s.sh.Run(tasks)
			t3 := time.Now()
			run := s.sh.LastRun()
			wbuf = wire.AppendResults(wbuf[:0], hdr.Batch, hdr.Trace, results)
			t4 := time.Now()
			s.runMu.Unlock()
			timing := wire.ServerTiming{
				Decode: uint64(t1.Sub(t0)),
				Queue:  uint64(t2.Sub(t1)),
				Search: uint64(t3.Sub(t2)),
				Encode: uint64(t4.Sub(t3)),
			}
			s.srv.observe(timing, len(tasks), run)
			if hdr.Trace {
				wbuf = wire.AppendServerTiming(wbuf, timing)
			}
			if sendFrame(bw, wbuf, s.met) != nil {
				return
			}
		default:
			s.met.decodeErr()
			fail(fmt.Sprintf("shard %d: want MsgTasks or MsgSummaryRequest, got %#02x", s.sh.ID(), ty))
			return
		}
		if !s.endBatch(c) {
			return // draining: this request was answered, now hang up
		}
	}
}

// clientConn is one live connection to a shard server, the TCP kind of
// Replica: each call writes its request frame and reads the one
// response frame on the caller's goroutine. A response that does not
// answer the call — an error frame, another message type, results
// for another batch ID — fails the connection, as does any I/O or
// decode error: a broken connection fails every later call with the
// error that broke it.
type clientConn struct {
	shard int
	addr  string
	c     net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	hello wire.Hello  // the identity the server presented at dial time
	met   *netMetrics // net_client_* frame counters; nil (a no-op) without a registry

	// Buffers reused call to call; replies alias rbuf, results and arena.
	wbuf, rbuf []byte
	results    []wire.Result
	arena      []uint32

	mu     sync.Mutex // guards broken: Close and a cancelled Summary come from other goroutines
	broken error
}

// dialShard connects to the dsr-shard server at addr and verifies its
// hello: it must identify as shard i of numShards and present the
// deployment identity want describes (expect.check). ctx bounds the
// dial and the handshake.
func dialShard(ctx context.Context, i int, addr string, numShards int, want expect, met *netMetrics) (*clientConn, error) {
	d := net.Dialer{Timeout: handshakeTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard %d (%s): %w", i, addr, err)
	}
	helloDeadline := time.Now().Add(handshakeTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(helloDeadline) {
		helloDeadline = dl
	}
	c.SetReadDeadline(helloDeadline)
	br := bufio.NewReader(c)
	var h wire.Hello
	p, err := wire.ReadFrame(br, nil)
	if err == nil {
		h, err = wire.DecodeHello(p)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("hello: %w", err)
	case int(h.ShardID) != i:
		err = fmt.Errorf("server identifies as shard %d", h.ShardID)
	case int(h.NumShards) != numShards:
		err = fmt.Errorf("server built for %d shards, dialing %d", h.NumShards, numShards)
	default:
		err = want.check(h)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): %w", i, addr, err)
	}
	c.SetReadDeadline(time.Time{})
	met.frameIn(len(p)) // the hello frame consumed above
	return &clientConn{shard: i, addr: addr, c: c, br: br, bw: bufio.NewWriter(c), hello: h, met: met}, nil
}

// fail marks the connection broken by err, unless it already is, and
// closes it, which ends a call blocked on it. It returns the error that
// broke the connection.
func (cc *clientConn) fail(err error) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken == nil {
		cc.broken = err
		cc.c.Close()
	}
	return cc.broken
}

// roundTrip writes the request frame in wbuf and reads the response
// frame, failing the connection on an error frame; the caller's decoder
// refuses a frame of any other type than its own.
func (cc *clientConn) roundTrip() ([]byte, error) {
	cc.mu.Lock()
	err := cc.broken
	cc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := sendFrame(cc.bw, cc.wbuf, cc.met); err != nil {
		return nil, cc.fail(fmt.Errorf("shard %d (%s): write: %w", cc.shard, cc.addr, err))
	}
	p, err := wire.ReadFrame(cc.br, cc.rbuf)
	if err != nil {
		return nil, cc.fail(fmt.Errorf("shard %d (%s): read: %w", cc.shard, cc.addr, err))
	}
	cc.met.frameIn(len(p))
	cc.rbuf = p
	if ty, _ := wire.MsgType(p); ty == wire.MsgError {
		msg, err := wire.DecodeError(p)
		if err != nil {
			msg = "undecodable server error"
		}
		return nil, cc.fail(fmt.Errorf("shard %d (%s): server error: %s", cc.shard, cc.addr, msg))
	}
	return p, nil
}

// Run sends the batch and decodes its answer (Replica interface). The
// Results alias the connection's decode buffers until its next call.
func (cc *clientConn) Run(h wire.BatchHeader, tasks []wire.Task) Reply {
	cc.wbuf = wire.AppendTasks(cc.wbuf[:0], h, tasks)
	p, err := cc.roundTrip()
	if err == nil {
		var info wire.ResultsInfo
		info, cc.results, cc.arena, err = wire.DecodeResults(p, cc.results[:0], cc.arena[:0])
		switch {
		case err != nil:
			cc.met.decodeErr()
			err = cc.fail(fmt.Errorf("shard %d (%s): bad response: %w", cc.shard, cc.addr, err))
		case info.Batch != h.Batch:
			err = cc.fail(fmt.Errorf("shard %d (%s): response for batch %d does not answer batch %d", cc.shard, cc.addr, info.Batch, h.Batch))
		default:
			return Reply{Shard: cc.shard, Results: cc.results, Batch: info.Batch, HasTiming: info.HasTiming, Timing: info.Timing}
		}
	}
	return Reply{Shard: cc.shard, Err: err}
}

// Summary requests the shard's boundary summary (Replica interface).
// The returned slices alias the connection's read buffer until its next
// call. On ctx cancellation the connection is torn down — the protocol
// has no way to abandon one request in flight and keep the connection
// in step.
func (cc *clientConn) Summary(ctx context.Context) (wire.Summary, error) {
	defer context.AfterFunc(ctx, func() { cc.fail(ctx.Err()) })()
	cc.wbuf = wire.AppendSummaryRequest(cc.wbuf[:0])
	p, err := cc.roundTrip()
	if err != nil {
		return wire.Summary{}, err
	}
	sum, err := wire.DecodeSummary(p)
	if err != nil {
		cc.met.decodeErr()
		return wire.Summary{}, cc.fail(fmt.Errorf("shard %d (%s): bad summary: %w", cc.shard, cc.addr, err))
	}
	return sum, nil
}

// Hello reports the identity the server presented at dial time (Replica
// interface).
func (cc *clientConn) Hello() wire.Hello { return cc.hello }

// Close closes the connection; a call in progress fails with ErrClosed
// (Replica interface).
func (cc *clientConn) Close() error {
	cc.fail(ErrClosed)
	return nil
}
