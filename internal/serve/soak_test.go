package serve

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// lagReplica delays every submit by a fixed amount: a deterministic
// straggler.
type lagReplica struct {
	inner shard.Replica
	d     time.Duration
}

func (s *lagReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(shard.Reply)) {
	time.AfterFunc(s.d, func() { s.inner.Submit(h, tasks, done) })
}
func (s *lagReplica) Summary(ctx context.Context) (wire.Summary, error) { return s.inner.Summary(ctx) }
func (s *lagReplica) Hello() wire.Hello                                 { return s.inner.Hello() }
func (s *lagReplica) Close() error                                      { return s.inner.Close() }

func soakGraph(rng *rand.Rand, n, deg int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)))
		}
	}
	return b.Build()
}

func soakSet(rng *rand.Rand, n, size int) []graph.VertexID {
	s := make([]graph.VertexID, size)
	for i := range s {
		s[i] = graph.VertexID(rng.Intn(n))
	}
	return s
}

// TestServeSoak is the serving layer's end-to-end: N concurrent
// clients hammer one server backed by a k=3, R=2 replicated engine
// whose first replica — the one rounds land on while it is idle — lags
// 20ms and is waited for. Every answer must match the whole-graph
// oracle, the shared cache must actually hit, and nothing may be shed
// at these limits.
func TestServeSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const k, n = 3, 120
	g := soakGraph(rng, n, 2)

	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		sub, pp := subs[p], p
		groups[p] = []shard.ReplicaDialer{
			func(context.Context) (shard.Replica, error) {
				return &lagReplica{inner: shard.NewLocalReplica(shard.New(pp, sub)), d: 20 * time.Millisecond}, nil
			},
			func(context.Context) (shard.Replica, error) {
				return shard.NewLocalReplica(shard.New(pp, sub)), nil
			},
		}
	}
	reg := obs.NewRegistry()
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dsr.ConnectTransport(t.Context(), tr, k, n, dsr.Options{Metrics: reg})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	defer eng.Close()

	srv := New(eng, Options{Metrics: reg, MaxBatch: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servec := make(chan error, 1)
	go func() { servec <- srv.Serve(ln) }()

	// A fixed pool of queries with precomputed oracle answers: clients
	// drawing from a shared pool is what makes the cache (and
	// cross-client batch sharing) observable.
	type pq struct {
		S, T []graph.VertexID
		want bool
	}
	pool := make([]pq, 40)
	for i := range pool {
		S, T := soakSet(rng, n, 3), soakSet(rng, n, 3)
		pool[i] = pq{S: S, T: T, want: dsr.NaiveReach(g, S, T)}
	}

	const clients, perClient = 8, 60
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seed))
			c, err := Dial(ln.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				q := pool[crng.Intn(len(pool))]
				ans, err := c.Query(q.S, q.T)
				if err != nil {
					errc <- err
					return
				}
				if ans != q.want {
					t.Errorf("client query %v|%v: got %v, oracle %v", q.S, q.T, ans, q.want)
				}
			}
		}(int64(ci) + 1)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-servec; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	total := clients * perClient
	if got := reg.Counter("dsr_serve_queries_total").Load(); got != uint64(total) {
		t.Fatalf("dsr_serve_queries_total = %d, want %d", got, total)
	}
	hits := reg.Counter("dsr_cache_hits_total").Load()
	if hits == 0 {
		t.Fatal("cache never hit despite clients sharing a 40-query pool")
	}
	batches := reg.Counter("dsr_serve_batches_total").Load()
	misses := reg.Counter("dsr_cache_misses_total").Load()
	if batches == 0 || batches > misses {
		t.Fatalf("batches = %d (misses %d): every batch should carry >= 1 missed query", batches, misses)
	}
	shed := reg.Counter(obs.Name("dsr_serve_shed_total", "scope", "client")).Load() +
		reg.Counter(obs.Name("dsr_serve_shed_total", "scope", "server")).Load()
	if shed != 0 {
		t.Fatalf("%d queries shed at default limits", shed)
	}
}
