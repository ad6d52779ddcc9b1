package serve

import (
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
)

// chainGraph builds 0 -> 1 -> ... -> n-1.
func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	return b.Build()
}

// startServer boots a server over an in-process engine on a loopback
// listener and tears both down with the test.
func startServer(t *testing.T, g *graph.Graph, o Options) (*Server, string, *dsr.Engine) {
	t.Helper()
	eng, err := dsr.Build(g, dsr.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv := New(eng, o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servec := make(chan error, 1)
	go func() { servec <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-servec; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String(), eng
}

func TestServeBasic(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, _ := startServer(t, chainGraph(t, 8), Options{Metrics: reg})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if ans, err := c.Query(ids(0), ids(7)); err != nil || !ans {
		t.Fatalf("0->7 = (%v, %v), want true", ans, err)
	}
	if ans, err := c.Query(ids(7), ids(0)); err != nil || ans {
		t.Fatalf("7->0 = (%v, %v), want false", ans, err)
	}
	// Same sets, permuted: must be a cache hit.
	before := reg.Counter("dsr_cache_hits_total").Load()
	if ans, err := c.Query(ids(0), ids(7)); err != nil || !ans {
		t.Fatalf("repeat 0->7 = (%v, %v), want true", ans, err)
	}
	if got := reg.Counter("dsr_cache_hits_total").Load(); got != before+1 {
		t.Fatalf("cache hits %d -> %d, want +1", before, got)
	}
	if got := reg.Counter("dsr_serve_queries_total").Load(); got != 3 {
		t.Fatalf("dsr_serve_queries_total = %d, want 3", got)
	}
}

// TestServeParseErrors: malformed lines get an in-order "error parse"
// response and never reach the engine; the connection stays usable.
func TestServeParseErrors(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, _ := startServer(t, chainGraph(t, 8), Options{Metrics: reg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	lines := "no separator here\n0 | \nx | 7\n0 | 7\n"
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 0, 256)
	buf := make([]byte, 256)
	for !strings.HasSuffix(string(r), "true\n") {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, r)
		}
		r = append(r, buf[:n]...)
	}
	got := strings.Split(strings.TrimSpace(string(r)), "\n")
	if len(got) != 4 {
		t.Fatalf("got %d responses %q, want 4", len(got), got)
	}
	for i := 0; i < 3; i++ {
		if !strings.HasPrefix(got[i], "error parse") {
			t.Fatalf("response %d = %q, want error parse", i, got[i])
		}
	}
	if got[3] != "true" {
		t.Fatalf("response 3 = %q, want true", got[3])
	}
	if got := reg.Counter("dsr_serve_parse_errors_total").Load(); got != 3 {
		t.Fatalf("parse errors = %d, want 3", got)
	}
}

// TestServePipelinedOrder: a client that fires many requests before
// reading gets its answers back in request order.
func TestServePipelinedOrder(t *testing.T) {
	g := chainGraph(t, 32)
	_, addr, _ := startServer(t, g, Options{CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = 24
	want := make([]bool, q)
	for i := 0; i < q; i++ {
		s, tt := graph.VertexID(i%32), graph.VertexID((i*7)%32)
		want[i] = s <= tt // chain reachability
		if err := c.Send(ids(s), ids(tt)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < q; i++ {
		ans, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ans != want[i] {
			t.Fatalf("query %d: got %v, want %v", i, ans, want[i])
		}
	}
}

// TestServeCrossClientBatching: client A's query holds the engine;
// clients B and C arrive during its round and share the next one. If
// batching were per connection, B and C would take a round each.
func TestServeCrossClientBatching(t *testing.T) {
	reg := obs.NewRegistry()
	g, srv, addr := gatedServer(t, Options{Metrics: reg, CacheEntries: -1})
	clients := make([]*Client, 3)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	clients[0].Send(ids(0), ids(7))
	wantSeq(t, g.round(t), 0, 1)
	clients[1].Send(ids(1), ids(7))
	clients[2].Send(ids(2), ids(7))
	waitForming(t, srv.batch, 2)
	g.release()
	shared := g.round(t)
	slices.Sort(shared)
	wantSeq(t, shared, 1, 2)
	g.release()
	for i, c := range clients {
		if ans, err := c.Recv(); err != nil || !ans {
			t.Fatalf("client %d = (%v, %v), want true", i, ans, err)
		}
	}
	if got := reg.Counter("dsr_serve_batches_total").Load(); got != 2 {
		t.Fatalf("dsr_serve_batches_total = %d, want 2 for 3 queries", got)
	}
}

// TestServeOverloadPerClient: with MaxPerClient 1 and the first query's
// round held, a pipelining client's second and third requests are shed
// with the client scope — and still answered in order.
func TestServeOverloadPerClient(t *testing.T) {
	reg := obs.NewRegistry()
	g, _, addr := gatedServer(t, Options{Metrics: reg, MaxPerClient: 1, CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if err := c.Send(ids(0), ids(graph.VertexID(5+i))); err != nil {
			t.Fatal(err)
		}
	}
	wantSeq(t, g.round(t), 0, 1)
	waitCount(t, reg.Counter(obs.Name("dsr_serve_shed_total", "scope", "client")), 2)
	g.release()
	if ans, err := c.Recv(); err != nil || !ans {
		t.Fatalf("first query = (%v, %v), want true", ans, err)
	}
	for i := 0; i < 2; i++ {
		_, err := c.Recv()
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.Scope != "client" {
			t.Fatalf("shed query %d: err = %v, want OverloadError{client}", i, err)
		}
	}
}

// TestServeOverloadServer: the server-wide queue bound sheds with the
// server scope once total outstanding crosses MaxQueued.
func TestServeOverloadServer(t *testing.T) {
	reg := obs.NewRegistry()
	g, _, addr := gatedServer(t, Options{Metrics: reg, MaxQueued: 1, MaxPerClient: 8, CacheEntries: -1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Send(ids(0), ids(5))
	c.Send(ids(0), ids(6))
	wantSeq(t, g.round(t), 0, 1)
	waitCount(t, reg.Counter(obs.Name("dsr_serve_shed_total", "scope", "server")), 1)
	g.release()
	if ans, err := c.Recv(); err != nil || !ans {
		t.Fatalf("first query = (%v, %v), want true", ans, err)
	}
	_, err = c.Recv()
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Scope != "server" {
		t.Fatalf("err = %v, want OverloadError{server}", err)
	}
}

// fakeQuerier fails every round with err.
type fakeQuerier struct {
	err error
}

func (f *fakeQuerier) QueryBatchErr(queries []dsr.Query) ([]bool, error) {
	return make([]bool, len(queries)), f.err
}

// TestBatcherPartialFailure: a *dsr.BatchError fails exactly the
// flagged queries; the rest are answered and cached.
func TestBatcherPartialFailure(t *testing.T) {
	be := &dsr.BatchError{
		Partitions: []dsr.PartitionError{{Partition: 1, Err: errors.New("down")}},
		Failed:     []bool{false, true},
	}
	g := newGatedQuerier()
	cache := NewCache(8, nil)
	b := newBatcher(g, cache, Options{}.withDefaults())
	defer b.close()

	// A held round keeps both queries waiting, so they share the next.
	b.enqueue(seqPending(9))
	wantSeq(t, g.round(t), 9, 1)
	ps := []*pending{seqPending(0), seqPending(1)}
	ps[0].key, ps[1].key = "a", "b"
	b.enqueue(ps[0])
	b.enqueue(ps[1])
	g.release()
	wantSeq(t, g.round(t), 0, 2)
	g.err = be
	g.release()

	<-ps[0].ready
	if ps[0].err != nil || !ps[0].ans {
		t.Fatalf("query 0 = (%v, %v), want clean true", ps[0].ans, ps[0].err)
	}
	if _, ok := cache.Get("a"); !ok {
		t.Fatal("clean answer not cached")
	}
	<-ps[1].ready
	if !errors.Is(ps[1].err, error(be)) {
		t.Fatalf("query 1 err = %v, want the batch error", ps[1].err)
	}
	if _, ok := cache.Get("b"); ok {
		t.Fatal("failed answer must not be cached")
	}
}

// TestBatcherTotalFailure: a non-BatchError failure fails every query
// and caches nothing.
func TestBatcherTotalFailure(t *testing.T) {
	boom := errors.New("engine gone")
	fq := &fakeQuerier{err: boom}
	cache := NewCache(8, nil)
	b := newBatcher(fq, cache, Options{}.withDefaults())
	p := &pending{q: dsr.Query{S: ids(0), T: ids(1)}, key: "a", ready: make(chan struct{})}
	b.enqueue(p)
	<-p.ready
	if !errors.Is(p.err, boom) {
		t.Fatalf("err = %v, want %v", p.err, boom)
	}
	if cache.Len() != 0 {
		t.Fatal("failure cached")
	}
}

// TestBatcherClosedRejects: enqueue after close settles immediately
// with ErrServerClosed instead of stranding the writer.
func TestBatcherClosedRejects(t *testing.T) {
	b := newBatcher(&fakeQuerier{}, nil, Options{}.withDefaults())
	b.close()
	p := &pending{ready: make(chan struct{})}
	b.enqueue(p)
	select {
	case <-p.ready:
	case <-time.After(time.Second):
		t.Fatal("pending not settled after enqueue on closed batcher")
	}
	if !errors.Is(p.err, ErrServerClosed) {
		t.Fatalf("err = %v, want ErrServerClosed", p.err)
	}
}

func TestParseQuery(t *testing.T) {
	q, err := parseQuery("3 1 2 | 9 8")
	if err != nil {
		t.Fatal(err)
	}
	if S, T := q.S, q.T; len(S) != 3 || len(T) != 2 || S[0] != 3 || T[1] != 8 {
		t.Fatalf("parsed S=%v T=%v", S, T)
	}
	for _, bad := range []string{"1 2 3", "| 1", "1 |", "a | 1", "1 | 4294967296"} {
		if _, err := parseQuery(bad); !errors.Is(err, errParse) {
			t.Fatalf("parseQuery(%q) err = %v, want parse error", bad, err)
		}
	}
}
