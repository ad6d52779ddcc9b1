package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
)

// gatedQuerier holds every QueryBatchErr until the test releases it: a
// round announces itself on entered (carrying its batch) and answers
// true for every query, with err, once it can receive from gate. A test
// sets err before the release of the round that is to return it.
type gatedQuerier struct {
	entered chan []dsr.Query
	gate    chan struct{}
	err     error
}

func newGatedQuerier() *gatedQuerier {
	// Buffered past any number of rounds a test holds, so announcing a
	// round never blocks it.
	return &gatedQuerier{entered: make(chan []dsr.Query, 64), gate: make(chan struct{})}
}

func (g *gatedQuerier) QueryBatchErr(queries []dsr.Query) ([]bool, error) {
	g.entered <- queries
	<-g.gate
	ans := make([]bool, len(queries))
	for i := range ans {
		ans[i] = true
	}
	return ans, g.err
}

// round waits for the next round to enter the querier and returns the
// first source vertex of each query it carries, which the tests use as
// the query's sequence number.
func (g *gatedQuerier) round(t *testing.T) []graph.VertexID {
	t.Helper()
	select {
	case qs := <-g.entered:
		seq := make([]graph.VertexID, len(qs))
		for i, q := range qs {
			seq[i] = q.S[0]
		}
		return seq
	case <-time.After(10 * time.Second):
		t.Fatal("no round entered the querier")
		return nil
	}
}

// idle fails the test if a round entered the querier that should not
// have.
func (g *gatedQuerier) idle(t *testing.T) {
	t.Helper()
	select {
	case qs := <-g.entered:
		t.Fatalf("a round of %d departed that should still be waiting", len(qs))
	default:
	}
}

func (g *gatedQuerier) release() { g.gate <- struct{}{} }

// waitForming blocks until n queries wait in the batcher.
func waitForming(t *testing.T, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		b.mu.Lock()
		got := len(b.cur)
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queries forming, want %d", got, n)
		}
	}
}

// waitCount blocks until c reads n.
func waitCount(t *testing.T, c *obs.Counter, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.Load() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d, want %d", c.Load(), n)
		}
	}
}

// seqPending is an admitted query whose sequence number is seq,
// arrived now.
func seqPending(seq int) *pending {
	return &pending{
		q:     dsr.Query{S: ids(graph.VertexID(seq)), T: ids(0)},
		ready: make(chan struct{}),
		start: time.Now(),
	}
}

func wantSeq(t *testing.T, got []graph.VertexID, from, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("round carried %d queries %v, want %d", len(got), got, n)
	}
	for i, v := range got {
		if int(v) != from+i {
			t.Fatalf("round carried %v, want %d..%d in order", got, from, from+n-1)
		}
	}
}

func wantSettled(t *testing.T, ps []*pending) {
	t.Helper()
	for i, p := range ps {
		select {
		case <-p.ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never settled", i)
		}
		if p.err != nil || !p.ans {
			t.Fatalf("query %d = (%v, %v), want true", i, p.ans, p.err)
		}
	}
}

// TestDispatchIdleDepartsAtOnce: a lone query on an idle batcher is a
// batch of one, at once.
func TestDispatchIdleDepartsAtOnce(t *testing.T) {
	reg := obs.NewRegistry()
	g := newGatedQuerier()
	b := newBatcher(g, nil, Options{Metrics: reg}.withDefaults())
	p := seqPending(1)
	b.enqueue(p)
	wantSeq(t, g.round(t), 1, 1)
	g.release()
	wantSettled(t, []*pending{p})
	b.close()
	if got := reg.Histogram("dsr_serve_dispatch_wait_ns").Count(); got != 1 {
		t.Fatalf("dispatch wait samples = %d, want 1", got)
	}
}

// TestDispatchCoalescesBehindRound: whatever arrives during a held
// round leaves as one batch when the round returns — MaxBatch at a
// time, in arrival order.
func TestDispatchCoalescesBehindRound(t *testing.T) {
	const maxBatch = 8
	g := newGatedQuerier()
	b := newBatcher(g, nil, Options{MaxBatch: maxBatch}.withDefaults())
	var ps []*pending
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			p := seqPending(len(ps))
			ps = append(ps, p)
			b.enqueue(p)
		}
	}

	enqueue(1)
	wantSeq(t, g.round(t), 0, 1)
	enqueue(5)
	g.idle(t)
	g.release()
	wantSeq(t, g.round(t), 1, 5)

	enqueue(maxBatch + 5)
	g.idle(t)
	g.release()
	wantSeq(t, g.round(t), 6, maxBatch)
	g.release()
	wantSeq(t, g.round(t), 6+maxBatch, 5)
	g.release()

	wantSettled(t, ps)
	b.close()
}

// countingQuerier answers every query true, counting the queries it
// was asked and noting whether two rounds were ever inside it at once.
type countingQuerier struct {
	in, queries atomic.Int64
	overlapped  atomic.Bool
}

func (c *countingQuerier) QueryBatchErr(queries []dsr.Query) ([]bool, error) {
	if c.in.Add(1) > 1 {
		c.overlapped.Store(true)
	}
	c.queries.Add(int64(len(queries)))
	ans := make([]bool, len(queries))
	for i := range ans {
		ans[i] = true
	}
	runtime.Gosched() // widen the round, so an overlapping one would show
	c.in.Add(-1)
	return ans, nil
}

// TestDispatchOneRoundAtATime: concurrent senders never put two rounds
// in the engine at once, every query goes to the engine and settles
// exactly once — settle panics on a second close of ready — and no
// query waits while the engine is free.
func TestDispatchOneRoundAtATime(t *testing.T) {
	const senders, perSender = 8, 250
	var q countingQuerier
	b := newBatcher(&q, nil, Options{MaxBatch: 16}.withDefaults())
	var released atomic.Int64

	stop := make(chan struct{})
	stranded := make(chan int, 1)
	go func() {
		defer close(stranded)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.mu.Lock()
			n, busy := len(b.cur), b.busy
			b.mu.Unlock()
			if n > 0 && !busy {
				stranded <- n
				return
			}
			runtime.Gosched()
		}
	}()

	ps := make([]*pending, senders*perSender)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s * perSender; i < (s+1)*perSender; i++ {
				ps[i] = seqPending(i)
				ps[i].done = func() { released.Add(1) }
				b.enqueue(ps[i])
			}
		}(s)
	}
	wg.Wait()
	wantSettled(t, ps)
	b.close()
	close(stop)
	if n, ok := <-stranded; ok {
		t.Fatalf("%d queries waited with no round in the engine", n)
	}
	if q.overlapped.Load() {
		t.Fatal("two rounds were in the engine at once")
	}
	if got := q.queries.Load(); got != int64(len(ps)) {
		t.Fatalf("the engine was asked %d queries, want %d", got, len(ps))
	}
	if got := released.Load(); got != int64(len(ps)) {
		t.Fatalf("%d queries settled, want %d", got, len(ps))
	}
}

// TestDispatchCloseDrains: close with one round held and a batch
// forming behind it answers every admitted query exactly once — settle panics on a
// second close of ready — and returns only when no batcher goroutine
// is left.
func TestDispatchCloseDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGatedQuerier()
	var released atomic.Int64
	b := newBatcher(g, nil, Options{}.withDefaults())
	ps := make([]*pending, 4)
	for i := range ps {
		ps[i] = seqPending(i)
		ps[i].done = func() { released.Add(1) }
	}
	b.enqueue(ps[0])
	wantSeq(t, g.round(t), 0, 1)
	for _, p := range ps[1:] {
		b.enqueue(p)
	}
	closed := make(chan struct{})
	go func() {
		b.close()
		close(closed)
	}()
	// close must be waiting on the held round, with the batch behind it.
	for closing := false; !closing; runtime.Gosched() {
		b.mu.Lock()
		closing = b.closed
		b.mu.Unlock()
	}
	select {
	case <-closed:
		t.Fatal("close returned with a round still held")
	default:
	}
	late := seqPending(9)
	b.enqueue(late)
	if !errors.Is(late.err, ErrServerClosed) {
		t.Fatalf("enqueue after close: err = %v, want ErrServerClosed", late.err)
	}
	g.release()
	wantSeq(t, g.round(t), 1, 3)
	g.release()
	<-closed
	wantSettled(t, ps)
	if got := released.Load(); got != int64(len(ps)) {
		t.Fatalf("admission released %d times for %d queries", got, len(ps))
	}
	// The batcher's goroutines were gone when close returned; the test's
	// own closer may still be on its way out.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d: close left a batcher goroutine behind", before, runtime.NumGoroutine())
		}
	}
}

// gatedServer is a Server over a gated querier on a loopback listener,
// shut down (again, if the test already did) with the test.
func gatedServer(t *testing.T, o Options) (*gatedQuerier, *Server, string) {
	t.Helper()
	g := newGatedQuerier()
	srv := New(g, o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-served
	})
	return g, srv, ln.Addr().String()
}

// TestServeFlushesBeforeBlocking: a client pipelines q1 and q2 on one
// connection; q1 settles while q2's round is held. q1's answer must be
// readable then — not parked in the writer's buffer until q2 settles.
func TestServeFlushesBeforeBlocking(t *testing.T) {
	g, srv, addr := gatedServer(t, Options{CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Send(ids(1), ids(0))
	wantSeq(t, g.round(t), 1, 1)
	c.Send(ids(2), ids(0))
	waitForming(t, srv.batch, 1)
	g.release()
	wantSeq(t, g.round(t), 2, 1) // q2 is in the querier, held

	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if ans, err := c.Recv(); err != nil || !ans {
		t.Fatalf("q1 while q2 is held = (%v, %v), want true", ans, err)
	}
	g.release()
	if ans, err := c.Recv(); err != nil || !ans {
		t.Fatalf("q2 = (%v, %v), want true", ans, err)
	}
}

// TestServeOneWritePerRound: a round carrying 16 answers for one
// session wakes its writer once and reaches the socket as one write.
func TestServeOneWritePerRound(t *testing.T) {
	reg := obs.NewRegistry()
	g, srv, addr := gatedServer(t, Options{Metrics: reg, CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	writes := reg.Counter("dsr_serve_socket_writes_total")

	c.Send(ids(0), ids(0))
	wantSeq(t, g.round(t), 0, 1)
	for i := 1; i <= 16; i++ {
		c.Send(ids(graph.VertexID(i)), ids(0))
	}
	waitForming(t, srv.batch, 16)
	g.release()
	wantSeq(t, g.round(t), 1, 16)
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	before := writes.Load()
	g.release()
	for i := 1; i <= 16; i++ {
		if ans, err := c.Recv(); err != nil || !ans {
			t.Fatalf("answer %d = (%v, %v), want true", i, ans, err)
		}
	}
	if got := writes.Load() - before; got != 1 {
		t.Fatalf("16 answers of one round took %d socket writes, want 1", got)
	}
}

// TestServeShutdownDrainsHeldRound: Shutdown with one round held and a
// batch forming behind it answers every query already read, in order.
func TestServeShutdownDrainsHeldRound(t *testing.T) {
	g, srv, addr := gatedServer(t, Options{CacheEntries: -1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fmt.Fprintln(conn, "0 | 0")
	wantSeq(t, g.round(t), 0, 1)
	fmt.Fprint(conn, "1 | 0\n2 | 0\n")
	waitForming(t, srv.batch, 2)

	down := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		down <- srv.Shutdown(ctx)
	}()
	g.release()
	wantSeq(t, g.round(t), 1, 2)
	g.release()
	if err := <-down; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		if line, err := r.ReadString('\n'); err != nil || line != "true\n" {
			t.Fatalf("answer %d = (%q, %v), want true", i, line, err)
		}
	}
	if line, err := r.ReadString('\n'); err == nil {
		t.Fatalf("a fourth answer %q for three queries", line)
	}
}

// TestServeShutdownBoundedByBudget: a round the engine never returns
// does not hold Shutdown past its budget. Shutdown reports the expiry,
// and once the engine ends the round (as closing it would) the batcher
// has nothing left running.
func TestServeShutdownBoundedByBudget(t *testing.T) {
	g, srv, addr := gatedServer(t, Options{CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(ids(0), ids(0))
	wantSeq(t, g.round(t), 0, 1)

	const budget = 100 * time.Millisecond
	down := make(chan error, 1)
	start := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		down <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-down:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
		}
		t.Logf("Shutdown returned after %v on a %v budget", time.Since(start), budget)
	case <-time.After(budget + 5*time.Second):
		g.release() // so that the test's cleanup can shut down
		t.Fatalf("Shutdown still blocked %v after its %v budget ran out", time.Since(start)-budget, budget)
	}

	g.release()
	closed := make(chan struct{})
	go func() {
		srv.batch.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("batcher still running a round the engine has returned")
	}
}
