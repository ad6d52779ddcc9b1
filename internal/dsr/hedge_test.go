package dsr

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// slowReplica delays every submit by a fixed amount — a deterministic
// straggler, unlike chaos's seeded delays.
type slowReplica struct {
	inner shard.Replica
	d     time.Duration
}

func (s *slowReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(shard.Reply)) {
	time.AfterFunc(s.d, func() { s.inner.Submit(h, tasks, done) })
}
func (s *slowReplica) Summary(ctx context.Context) (wire.Summary, error) { return s.inner.Summary(ctx) }
func (s *slowReplica) Hello() wire.Hello                                 { return s.inner.Hello() }
func (s *slowReplica) Close() error                                      { return s.inner.Close() }

// fleetCell is one cell of the ownership-and-hedging matrix: a
// hash-partitioned k × R fleet of in-process or TCP replicas whose last
// replica of every partition is a deterministic straggler (the only
// replica, when R = 1), with the transport's hedging on or off.
type fleetCell struct {
	tcp   bool
	R     int
	hedge bool
}

func (c fleetCell) String() string {
	kind := map[bool]string{false: "in-process", true: "tcp"}[c.tcp]
	return fmt.Sprintf("%s/R=%d/hedge=%v", kind, c.R, c.hedge)
}

const (
	cellStraggle = 15 * time.Millisecond
	cellDeadline = 2 * time.Millisecond
)

// open stands the cell's fleet up over g and connects an engine to it
// through the exported ConnectTransport hook, transport and engine
// sharing reg.
func (c fleetCell) open(t *testing.T, g *graph.Graph, k int, reg *obs.Registry) *Engine {
	t.Helper()
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		for r := 0; r < c.R; r++ {
			sh := shard.New(p, subs[p])
			dial := func(context.Context) (shard.Replica, error) { return shard.NewLocalReplica(sh), nil }
			if c.tcp {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := shard.NewServer(sh, k, g.NumVertices(), g.Fingerprint(), pt.Digest())
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				dial = shard.TCPReplicaDialer(p, ln.Addr().String(), k, g.NumVertices(), g.Fingerprint(), pt.Digest())
			}
			if r == c.R-1 {
				fast := dial
				dial = func(ctx context.Context) (shard.Replica, error) {
					rep, err := fast(ctx)
					if err != nil {
						return nil, err
					}
					return &slowReplica{inner: rep, d: cellStraggle}, nil
				}
			}
			groups[p] = append(groups[p], dial)
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{
		ReconnectEvery: -1,
		Metrics:        reg,
		Hedge:          shard.HedgeOptions{Enabled: c.hedge, Percentile: 0.95, Min: time.Millisecond, Max: cellDeadline},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), Options{Metrics: reg})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// fixedPointReach is the second oracle: the reachable set grown to its
// fixed point by relaxing every edge until a pass adds nothing — no
// queue, no frontier, nothing shared with NaiveReach's BFS.
func fixedPointReach(g *graph.Graph, S, T []graph.VertexID) bool {
	in := func(v graph.VertexID) bool { return int(v) < g.NumVertices() }
	reach := make([]bool, g.NumVertices())
	for _, s := range S {
		if in(s) {
			reach[s] = true
		}
	}
	for grew := true; grew; {
		grew = false
		g.Edges(func(u, v graph.VertexID) {
			if reach[u] && !reach[v] {
				reach[v], grew = true, true
			}
		})
	}
	return slices.ContainsFunc(T, func(t graph.VertexID) bool { return in(t) && reach[t] })
}

// transposed returns g with every edge reversed.
func transposed(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	g.Edges(func(u, v graph.VertexID) { b.AddEdge(v, u) })
	return b.Build()
}

// TestFleetMatrixDifferential judges the transport's ownership and
// hedging rules by answers: hedging on/off × R ∈ {1, 2, 3} × in-process
// and TCP replicas, one straggler per partition, every round checked
// against two independent oracles (BFS and edge relaxation to a fixed
// point) and two properties that need none — union, Q(S₁∪S₂, T) =
// Q(S₁, T) ∨ Q(S₂, T), and transpose, Q(S, T) on G = Q(T, S) on Gᵀ
// through a second fleet of the same cell. A hedging cell with siblings
// must see hedges fire and win against the straggler; any other cell
// must count none.
func TestFleetMatrixDifferential(t *testing.T) {
	const k, n, rounds, batch = 3, 80, 12, 6
	for _, tcp := range []bool{false, true} {
		for _, R := range []int{1, 2, 3} {
			for _, hedge := range []bool{false, true} {
				cell := fleetCell{tcp: tcp, R: R, hedge: hedge}
				t.Run(cell.String(), func(t *testing.T) {
					rng := rand.New(rand.NewSource(20260927))
					g := randomGraph(rng, n, 2)
					gT := transposed(g)
					reg := obs.NewRegistry()
					e, eT := cell.open(t, g, k, reg), cell.open(t, gT, k, nil)

					for round := 0; round < rounds; round++ {
						// Queries in threes: S₁, S₂ and their union against one T.
						queries, flipped := make([]Query, batch), make([]Query, batch)
						for i := 0; i < batch; i += 3 {
							s1, s2, tt := randomSet(rng, n, 3), randomSet(rng, n, 3), randomSet(rng, n, 4)
							queries[i], queries[i+1] = Query{S: s1, T: tt}, Query{S: s2, T: tt}
							queries[i+2] = Query{S: slices.Concat(s1, s2), T: tt}
						}
						for i, q := range queries {
							flipped[i] = Query{S: q.T, T: q.S}
						}
						got, err := e.QueryBatchErr(queries)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						gotT, err := eT.QueryBatchErr(flipped)
						if err != nil {
							t.Fatalf("round %d on the transpose: %v", round, err)
						}
						for i, q := range queries {
							if bfs, fix := NaiveReach(g, q.S, q.T), fixedPointReach(g, q.S, q.T); got[i] != bfs || got[i] != fix {
								t.Fatalf("round %d query %d: got %v, BFS oracle %v, fixed-point oracle %v (S=%v T=%v)", round, i, got[i], bfs, fix, q.S, q.T)
							}
							if gotT[i] != got[i] {
								t.Fatalf("round %d query %d: %v on G, %v flipped on the transpose (S=%v T=%v)", round, i, got[i], gotT[i], q.S, q.T)
							}
						}
						for i := 0; i < batch; i += 3 {
							if got[i+2] != (got[i] || got[i+1]) {
								t.Fatalf("round %d: Q(S1,T)=%v, Q(S2,T)=%v, Q(S1∪S2,T)=%v", round, got[i], got[i+1], got[i+2])
							}
						}
					}

					var hedges, wins uint64
					for p := 0; p < k; p++ {
						hedges += reg.Counter(obs.Name("dsr_hedges_total", "partition", p)).Load()
						wins += reg.Counter(obs.Name("dsr_hedge_wins_total", "partition", p)).Load()
					}
					for _, h := range e.Health() {
						if h.Live != R || h.Retries != 0 || h.Failovers != 0 || h.Redials != 0 {
							t.Errorf("a clean run moved the failover books: %+v", h)
						}
					}
					switch {
					case !hedge || R == 1:
						if hedges != 0 || wins != 0 {
							t.Fatalf("%d hedges, %d wins in a cell that cannot hedge", hedges, wins)
						}
					case hedges == 0 || wins == 0 || wins > hedges:
						t.Fatalf("%d hedges, %d wins against a %v straggler under a %v deadline", hedges, wins, cellStraggle, cellDeadline)
					}
				})
			}
		}
	}
}

// stallReplica accepts batches and answers none of them until it is
// closed; then it fails every batch it holds with shard.ErrClosed, as a
// TCP connection fails its pending requests. The embedded replica serves
// Summary and Hello. Each parked batch is signalled on parked, if set.
type stallReplica struct {
	shard.Replica
	parked chan<- struct{}

	mu    sync.Mutex
	dones []func(shard.Reply)
}

func (s *stallReplica) Submit(_ wire.BatchHeader, _ []wire.Task, done func(shard.Reply)) {
	s.mu.Lock()
	s.dones = append(s.dones, done)
	s.mu.Unlock()
	if s.parked != nil {
		s.parked <- struct{}{}
	}
}

func (s *stallReplica) Close() error {
	s.mu.Lock()
	dones := s.dones
	s.dones = nil
	s.mu.Unlock()
	for _, done := range dones {
		done(shard.Reply{Err: shard.ErrClosed})
	}
	return s.Replica.Close()
}

// TestHedgedRoundReturnsPastHungSibling: a round is over as soon as
// every partition has one answer. The second replica of every partition
// hangs from its first batch on, for good; with hedging on, that round
// is answered by the sibling, and every later one finds the hung replica
// busy and never goes near it — the engine keeps no state on a
// straggler's behalf, so nothing it does afterwards can wait on one.
func TestHedgedRoundReturnsPastHungSibling(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	const k, n = 3, 80
	g := randomGraph(rng, n, 2)
	groups := make([][]shard.ReplicaDialer, k)
	for r := 0; r < 2; r++ {
		for p, sh := range loopbackShards(t, g, graph.Hash(), k) {
			groups[p] = append(groups[p], func(context.Context) (shard.Replica, error) {
				if rep := shard.NewLocalReplica(sh); r == 0 {
					return rep, nil
				} else {
					return &stallReplica{Replica: rep}, nil
				}
			})
		}
	}
	reg := obs.NewRegistry()
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{
		ReconnectEvery: -1,
		Metrics:        reg,
		Hedge:          shard.HedgeOptions{Enabled: true, Min: time.Millisecond, Max: cellDeadline},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, n, Options{})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 10; round++ {
		S, T := randomSet(rng, n, 4), randomSet(rng, n, 4)
		if got, want := e.Query(S, T), NaiveReach(g, S, T); got != want {
			t.Fatalf("round %d: got %v, oracle %v (S=%v T=%v)", round, got, want, S, T)
		}
	}
	for p := 0; p < k; p++ {
		if wins := reg.Counter(obs.Name("dsr_hedge_wins_total", "partition", p)).Load(); wins != 1 {
			t.Errorf("partition %d: %d hedge wins, want the one round that met the hung replica", p, wins)
		}
	}
}

// TestHedgeOverSetsOfOne: hedging enabled over the two singletons of a
// 2+1+1 fleet, which answer well after the deadline. A set of one has
// no sibling to hedge on (and re-running the batch on the replica whose
// reply the coordinator is still reading would race), so only the set
// with a sibling is ever hedged, answers stay oracle-correct, no round
// errors, and no singleton is ever retried or failed over. (Fleets of
// nothing but singletons are the R = 1 cells of the matrix above.)
func TestHedgeOverSetsOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	const k, n = 3, 400
	g := randomGraph(rng, n, 2)
	// Partition 0 is a prompt replica beside a 30ms straggler, 1 and 2
	// are singletons 5ms slow, the deadline is 2ms: every round finds
	// the singletons unanswered when it fires, every other round the
	// straggler too.
	shards := func() []*shard.Shard { return loopbackShards(t, g, graph.Hash(), k) }
	groups := make([][]shard.ReplicaDialer, k)
	for p, sh := range shards() {
		d := 5 * time.Millisecond
		if p == 0 {
			d = 30 * time.Millisecond
		}
		groups[p] = []shard.ReplicaDialer{func(context.Context) (shard.Replica, error) {
			return &slowReplica{inner: shard.NewLocalReplica(sh), d: d}, nil
		}}
	}
	twin := shards()[0]
	groups[0] = append(groups[0], func(context.Context) (shard.Replica, error) {
		return shard.NewLocalReplica(twin), nil
	})
	reg := obs.NewRegistry()
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{
		ReconnectEvery: -1,
		Metrics:        reg,
		Hedge:          shard.HedgeOptions{Enabled: true, Min: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, n, Options{Metrics: reg})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	defer e.Close()

	for round := 0; round < 20; round++ {
		queries := make([]Query, 16)
		for i := range queries {
			queries[i] = Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)}
		}
		got, err := e.QueryBatchErr(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, q := range queries {
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("round %d query %d: got %v, oracle %v (S=%v T=%v)", round, i, got[i], want, q.S, q.T)
			}
		}
	}
	for _, h := range e.Health() {
		hedges := reg.Counter(obs.Name("dsr_hedges_total", "partition", h.Partition)).Load()
		if h.Replicas > 1 {
			if hedges == 0 {
				t.Errorf("partition %d has a sibling and was never hedged; the test proved nothing", h.Partition)
			}
			continue
		}
		if hedges != 0 {
			t.Errorf("partition %d: %d hedges counted on a set of one", h.Partition, hedges)
		}
		if h.Live != 1 || h.Retries != 0 || h.Failovers != 0 {
			t.Errorf("hedging disturbed a set of one: %+v", h)
		}
	}
}

// TestHedgeWarnsWithoutSiblings: asking Connect to hedge over a fleet in
// which no partition has a sibling replica gets one warning at connect,
// not one per round, and a fleet that answers and never hedges.
func TestHedgeWarnsWithoutSiblings(t *testing.T) {
	g := build(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	addrs, stop := bootShardServers(t, g, 3)
	defer stop()
	var log strings.Builder
	reg := obs.NewRegistry()
	e, err := Connect(t.Context(), ClusterSpec{
		Groups:  addrs,
		Metrics: reg,
		Hedge:   shard.HedgeOptions{Enabled: true, Min: time.Nanosecond, Max: time.Microsecond},
		Log:     obs.NewLogger(&log, obs.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 50; i++ {
		if !e.Query(V(0), V(5)) || e.Query(V(5), V(0)) {
			t.Fatal("wrong answers with hedging requested over sets of one")
		}
	}
	if got := log.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "hedging disabled") {
		t.Fatalf("want exactly one warning that hedging is disabled, got:\n%s", got)
	}
	for p := 0; p < 3; p++ {
		if n := reg.Counter(obs.Name("dsr_hedges_total", "partition", p)).Load(); n != 0 {
			t.Errorf("partition %d: %d hedges counted on a set of one", p, n)
		}
	}
}
