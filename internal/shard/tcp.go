package shard

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	conns    map[net.Conn]*connState
	closed   bool
	draining bool
	wg       sync.WaitGroup

	met  netInstruments             // net_server_* frame counters
	srv  atomic.Pointer[srvMetrics] // shard_server_* per-batch metrics
	logp atomic.Pointer[obs.Logger] // protocol-failure logging
}

// srvMetrics holds the server's per-batch metrics. The phase
// histograms are the same four numbers the timing footer ships to the
// coordinator, kept locally so a shard's own /metrics shows where its
// batches spend time even when no coordinator asks for footers. Beside
// them, what the search did with the batch (Shard.LastRun): how many
// tasks the broadcast delivered, how many of those held no seed of this
// partition — the broadcast's waste — and how many components the
// batch's sweeps expanded, after pruning, which over the task count is
// the sharing the batch size buys.
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
	if reg == nil {
		return nil
	}
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
// how much of it no sweep ever expands — and a logger for
// connection-level protocol failures. Safe to call at any time — before
// Serve in the normal case, or while serving (the slots are swapped
// atomically). A nil argument leaves its slot untouched.
func (s *Server) Instrument(reg *obs.Registry, log *obs.Logger) {
	s.met.set(newNetMetrics(reg, "net_server"))
	if t := newSrvMetrics(reg); t != nil {
		s.srv.Store(t)
		r := s.sh.Regions()
		for region, n := range map[string]int{"path": r.Path, "sink": r.Sink, "source": r.Source, "interior": r.Interior} {
			reg.Gauge(obs.Name("shard_components", "region", region)).Set(int64(n))
		}
	}
	if log != nil {
		s.logp.Store(log)
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

// logger returns the instrumented logger (nil, a no-op, by default).
func (s *Server) logger() *obs.Logger { return s.logp.Load() }

// connState tracks whether a connection is between batches (idle) or
// mid-batch (busy): a graceful Shutdown closes idle connections
// immediately but lets busy ones finish writing their response.
type connState struct {
	busy bool
}

// NewServer returns a server for sh. numShards and numVertices describe
// the whole deployment, graphSum fingerprints the exact edge set the
// shard was built from (graph.Fingerprint), and partSum digests the
// vertex-to-partition assignment (graph.Partitioning.Digest) — the
// check that catches a coordinator running a different partitioner (or
// the same locality partitioner with a different seed) over the same
// graph. 0 disables either check. All of it is echoed in the hello
// frame so a mismatched coordinator refuses the shard instead of
// silently mis-answering.
func NewServer(sh *Shard, numShards, numVertices int, graphSum, partSum uint64) *Server {
	return &Server{
		sh: sh,
		hello: wire.Hello{
			ShardID:      uint32(sh.ID()),
			NumShards:    uint32(numShards),
			NumVertices:  uint32(numVertices),
			Graph:        graphSum,
			Partitioning: partSum,
		},
		// Encode the boundary summary once, eagerly: this builds the SCC
		// reachability index at startup (not on the first coordinator's
		// connect), and every MsgSummaryRequest is answered by writing the
		// same immutable payload — no lock, no re-encoding.
		summary: wire.AppendSummary(nil, sh.Summary()),
		conns:   make(map[net.Conn]*connState),
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
		s.conns[c] = &connState{}
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
		for c, st := range s.conns {
			if !st.busy {
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
	if st, ok := s.conns[c]; ok {
		st.busy = true
	}
	return true
}

// endBatch marks c idle again; it reports false when the server is
// draining, telling the handler to exit now that its in-flight batch
// has been fully answered.
func (s *Server) endBatch(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.conns[c]; ok {
		st.busy = false
	}
	return !(s.closed || s.draining)
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

func (s *Server) handle(c net.Conn) {
	defer s.dropConn(c)
	bw := bufio.NewWriter(c)
	br := bufio.NewReader(c)
	var rbuf, wbuf []byte
	var tasks []wire.Task
	var seedArena []int32

	wbuf = wire.AppendHello(wbuf[:0], s.hello)
	if err := wire.WriteFrame(bw, wbuf); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.met.get().frameOut(len(wbuf))

	fail := func(msg string) {
		s.logger().Warnf("dropping connection from %s: %s", c.RemoteAddr(), msg)
		wbuf = wire.AppendError(wbuf[:0], msg)
		if wire.WriteFrame(bw, wbuf) == nil {
			bw.Flush()
			s.met.get().frameOut(len(wbuf))
		}
	}
	for {
		p, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			return // EOF or broken conn: just drop it
		}
		met := s.met.get()
		met.frameIn(len(p))
		if !s.beginBatch(c) {
			return // draining: refuse batches that haven't started executing
		}
		rbuf = p
		ty, err := wire.MsgType(p)
		switch {
		case err == nil && ty == wire.MsgSummaryRequest:
			// Served from the immutable pre-encoded frame; no shard lock.
			if err := wire.WriteFrame(bw, s.summary); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			met.frameOut(len(s.summary))
		case err == nil && ty == wire.MsgTasks:
			// Each phase is timed: the breakdown feeds the shard's own
			// shard_server_* histograms on every batch, and rides back to
			// the coordinator as a footer when the batch asked for it.
			t0 := time.Now()
			var hdr wire.BatchHeader
			hdr, tasks, seedArena, err = wire.DecodeTasks(p, tasks[:0], seedArena[:0])
			if err != nil {
				met.decodeErr()
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
			s.srv.Load().observe(timing, len(tasks), run)
			if hdr.Trace {
				wbuf = wire.AppendServerTiming(wbuf, timing)
			}
			if err := wire.WriteFrame(bw, wbuf); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			met.frameOut(len(wbuf))
		default:
			met.decodeErr()
			fail(fmt.Sprintf("shard %d: want MsgTasks or MsgSummaryRequest, got %#02x", s.sh.ID(), ty))
			return
		}
		if !s.endBatch(c) {
			return // draining: this request was answered, now hang up
		}
	}
}

// Client is the TCP Transport: one connection per shard, requests
// written in Submit order and responses matched back FIFO (the server
// answers a connection's requests strictly in order).
type Client struct {
	conns []*clientConn
	once  sync.Once
}

// clientConn is one live connection to a shard server. It implements
// Replica, which is how the replica-aware transport (Replicated) holds
// one clientConn per replica endpoint and fails batches over between
// them; the plain Client is the degenerate one-replica-per-partition
// arrangement of the same type.
type clientConn struct {
	shard int
	addr  string
	c     net.Conn
	bw    *bufio.Writer
	hello wire.Hello // the identity the server presented at dial time

	mu      sync.Mutex // guards writes, pending, broken
	pending []pendingReq
	broken  error
	wbuf    []byte

	met netInstruments // net_client_* frame counters

	done chan struct{} // closed when the reader goroutine exits
}

// pendingReq is one in-flight request awaiting its response frame.
// Exactly one of replyc (a task batch) and sumc (a summary request) is
// non-nil; the reader uses the tag to decide which decoder a response
// frame feeds.
type pendingReq struct {
	replyc chan<- Reply
	sumc   chan summaryReply
}

type summaryReply struct {
	sum wire.Summary
	err error
}

// Dial connects to one shard server per address (addrs[i] must be shard
// i), verifies each hello against the expected deployment shape, and
// returns the transport. ctx bounds the whole dial sequence.
// wantVertices < 0 skips the vertex-count check; wantGraph is the
// caller's graph fingerprint and wantPart its partitioning digest — for
// either, 0 skips the check (either side not computing one opts out,
// since a server may also send 0).
func Dial(ctx context.Context, addrs []string, wantVertices int, wantGraph, wantPart uint64) (*Client, error) {
	cl := &Client{}
	for i, addr := range addrs {
		cc, err := dialShard(ctx, i, addr, len(addrs), wantVertices, wantGraph, wantPart, nil)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.conns = append(cl.conns, cc)
	}
	return cl, nil
}

// Instrument wires the client's frame and byte counters (net_client_*)
// into reg. Safe to call while connections are live — reader goroutines
// pick the instruments up atomically. Nil reg is a no-op.
func (cl *Client) Instrument(reg *obs.Registry) {
	met := newNetMetrics(reg, "net_client")
	for _, cc := range cl.conns {
		cc.met.set(met)
	}
}

func dialShard(ctx context.Context, i int, addr string, numShards, wantVertices int, wantGraph, wantPart uint64, met *netMetrics) (*clientConn, error) {
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
	p, err := wire.ReadFrame(c, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): hello: %w", i, addr, err)
	}
	h, err := wire.DecodeHello(p)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): hello: %w", i, addr, err)
	}
	if int(h.ShardID) != i {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): server identifies as shard %d", i, addr, h.ShardID)
	}
	if int(h.NumShards) != numShards {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): server built for %d shards, dialing %d", i, addr, h.NumShards, numShards)
	}
	if wantVertices >= 0 && int(h.NumVertices) != wantVertices {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): server graph has %d vertices, coordinator has %d", i, addr, h.NumVertices, wantVertices)
	}
	if wantGraph != 0 && h.Graph != 0 && h.Graph != wantGraph {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): server built from a different graph (fingerprint %#x, coordinator %#x)", i, addr, h.Graph, wantGraph)
	}
	if wantPart != 0 && h.Partitioning != 0 && h.Partitioning != wantPart {
		c.Close()
		return nil, fmt.Errorf("shard %d (%s): server built with a different partitioning (digest %#x, coordinator %#x — same -partitioner spec everywhere?)", i, addr, h.Partitioning, wantPart)
	}
	c.SetReadDeadline(time.Time{})
	cc := &clientConn{shard: i, addr: addr, c: c, bw: bufio.NewWriter(c), hello: h, done: make(chan struct{})}
	cc.met.set(met)
	cc.met.get().frameIn(len(p)) // the hello frame consumed above
	go cc.readLoop()
	return cc, nil
}

// NumShards returns the shard count.
func (cl *Client) NumShards() int { return len(cl.conns) }

// Submit encodes and writes the batch to shard p's connection. The
// Reply arrives on replyc when the response frame is read (or an error
// Reply immediately if the connection is broken).
func (cl *Client) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	cl.conns[p].Submit(h, tasks, replyc)
}

// Endpoints describes every connection: one entry per partition (the
// plain Client has exactly one replica per partition), carrying the
// dialed address, the metrics address the server announced in its
// hello, and whether the connection is still live.
func (cl *Client) Endpoints() []EndpointInfo {
	eps := make([]EndpointInfo, len(cl.conns))
	for i, cc := range cl.conns {
		cc.mu.Lock()
		live := cc.broken == nil
		cc.mu.Unlock()
		eps[i] = EndpointInfo{
			Partition:   i,
			Addr:        cc.addr,
			MetricsAddr: cc.hello.MetricsAddr,
			Live:        live,
		}
	}
	return eps
}

// Summary fetches shard p's boundary summary over its connection,
// paired with the hello identity the server presented at dial time.
func (cl *Client) Summary(ctx context.Context, p int) (SummaryInfo, error) {
	cc := cl.conns[p]
	sum, err := cc.Summary(ctx)
	if err != nil {
		return SummaryInfo{}, err
	}
	return SummaryInfo{Hello: cc.hello, Summary: sum}, nil
}

// Close closes every connection and waits for the reader goroutines to
// exit; outstanding Submits receive error replies.
func (cl *Client) Close() error {
	cl.once.Do(func() {
		for _, cc := range cl.conns {
			cc.fail(ErrClosed)
			cc.c.Close()
		}
		for _, cc := range cl.conns {
			<-cc.done
		}
	})
	return nil
}

// Submit encodes and writes the batch to the connection (Replica
// interface). The Reply arrives on replyc when the response frame is
// read, or immediately with an error if the connection is broken.
func (cc *clientConn) Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	cc.mu.Lock()
	if cc.broken != nil {
		err := cc.broken
		cc.mu.Unlock()
		replyc <- Reply{Shard: cc.shard, Err: err}
		return
	}
	// Register before writing: the reader pops pending FIFO as response
	// frames arrive, and a response can only follow a completed write.
	cc.pending = append(cc.pending, pendingReq{replyc: replyc})
	cc.wbuf = wire.AppendTasks(cc.wbuf[:0], h, tasks)
	err := wire.WriteFrame(cc.bw, cc.wbuf)
	if err == nil {
		err = cc.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("shard %d (%s): write: %w", cc.shard, cc.addr, err)
		cc.broken = err
		cc.pending = cc.pending[:len(cc.pending)-1]
		cc.mu.Unlock()
		cc.c.Close() // wake the reader so it fails any earlier pending
		replyc <- Reply{Shard: cc.shard, Err: err}
		return
	}
	cc.met.get().frameOut(len(cc.wbuf))
	cc.mu.Unlock()
}

// Summary requests the shard's boundary summary and waits for the
// response frame (Replica interface). The returned slices alias the
// reader's decode buffers: valid until the next Submit or Summary on
// this connection. On ctx cancellation the connection is torn down —
// the protocol has no way to abandon one in-flight request without
// desynchronizing the FIFO.
func (cc *clientConn) Summary(ctx context.Context) (wire.Summary, error) {
	sumc := make(chan summaryReply, 1)
	cc.mu.Lock()
	if cc.broken != nil {
		err := cc.broken
		cc.mu.Unlock()
		return wire.Summary{}, err
	}
	cc.pending = append(cc.pending, pendingReq{sumc: sumc})
	cc.wbuf = wire.AppendSummaryRequest(cc.wbuf[:0])
	err := wire.WriteFrame(cc.bw, cc.wbuf)
	if err == nil {
		err = cc.bw.Flush()
	}
	if err != nil {
		err = fmt.Errorf("shard %d (%s): write: %w", cc.shard, cc.addr, err)
		cc.broken = err
		cc.pending = cc.pending[:len(cc.pending)-1]
		cc.mu.Unlock()
		cc.c.Close()
		return wire.Summary{}, err
	}
	cc.met.get().frameOut(len(cc.wbuf))
	cc.mu.Unlock()
	select {
	case sr := <-sumc:
		return sr.sum, sr.err
	case <-ctx.Done():
		cc.fail(ctx.Err())
		cc.c.Close()
		// fail (here or in the reader) delivers exactly one summaryReply
		// to the buffered channel; drain it so nothing dangles.
		sr := <-sumc
		if sr.err == nil {
			return sr.sum, nil // response raced the cancellation and won
		}
		return wire.Summary{}, ctx.Err()
	}
}

// Hello reports the identity the server presented at dial time (Replica
// interface).
func (cc *clientConn) Hello() wire.Hello { return cc.hello }

// Endpoint reports the dialed address and dial-time hello; Replicated
// detects it to cache endpoint identity for its Endpoints() view.
func (cc *clientConn) Endpoint() (string, wire.Hello) { return cc.addr, cc.hello }

// Close closes the connection and waits for its reader goroutine to
// exit; pending Submits receive error replies (Replica interface).
func (cc *clientConn) Close() error {
	cc.fail(ErrClosed)
	cc.c.Close()
	<-cc.done
	return nil
}

// fail marks the connection broken and delivers err to every pending
// request — task batches get an error Reply, summary requests an error
// summaryReply.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken == nil {
		cc.broken = err
	} else {
		err = cc.broken
	}
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	for _, pr := range pending {
		if pr.replyc != nil {
			pr.replyc <- Reply{Shard: cc.shard, Err: err}
		} else {
			pr.sumc <- summaryReply{err: err}
		}
	}
}

func (cc *clientConn) readLoop() {
	defer close(cc.done)
	br := bufio.NewReader(cc.c)
	var rbuf []byte
	var results []wire.Result
	var arena []uint32
	for {
		p, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			cc.fail(fmt.Errorf("shard %d (%s): read: %w", cc.shard, cc.addr, err))
			return
		}
		cc.met.get().frameIn(len(p))
		rbuf = p
		ty, err := wire.MsgType(p)
		if err == nil && ty == wire.MsgError {
			msg, derr := wire.DecodeError(p)
			if derr != nil {
				msg = "undecodable server error"
			}
			cc.fail(fmt.Errorf("shard %d (%s): server error: %s", cc.shard, cc.addr, msg))
			return
		}
		// Match the frame to the oldest pending request BEFORE decoding:
		// the decode reuses results/arena, whose previous contents the
		// coordinator may still be reading — only a response matching a
		// pending request guarantees those buffers are quiescent (the
		// engine consumes a round fully before submitting the next). The
		// request's tag decides which decoder the frame must satisfy.
		// pending can only grow between this peek and the pop, since only
		// this goroutine pops.
		cc.mu.Lock()
		var head pendingReq
		if len(cc.pending) > 0 {
			head = cc.pending[0]
		}
		cc.mu.Unlock()
		switch {
		case head.replyc == nil && head.sumc == nil:
			cc.fail(fmt.Errorf("shard %d (%s): unsolicited response frame", cc.shard, cc.addr))
			return
		case head.sumc != nil:
			sum, err := wire.DecodeSummary(p)
			if err != nil {
				cc.met.get().decodeErr()
				cc.fail(fmt.Errorf("shard %d (%s): bad summary: %w", cc.shard, cc.addr, err))
				return
			}
			if cc.pop() {
				head.sumc <- summaryReply{sum: sum}
			}
		default:
			var info wire.ResultsInfo
			info, results, arena, err = wire.DecodeResults(p, results[:0], arena[:0])
			if err != nil {
				cc.met.get().decodeErr()
				cc.fail(fmt.Errorf("shard %d (%s): bad response: %w", cc.shard, cc.addr, err))
				return
			}
			if cc.pop() {
				head.replyc <- Reply{
					Shard:     cc.shard,
					Results:   results,
					Batch:     info.Batch,
					HasTiming: info.HasTiming,
					Timing:    info.Timing,
				}
			}
		}
	}
}

// pop removes the head pending request, reporting whether the caller
// now owns delivering its response. It reports false when a concurrent
// fail (Close, or a cancelled Summary) already consumed the queue and
// delivered errors — the response is then dropped, never double-sent.
func (cc *clientConn) pop() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.pending) == 0 {
		return false
	}
	cc.pending = cc.pending[1:]
	return true
}
