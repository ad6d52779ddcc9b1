package dsr

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// TestHedgeDelay pins the deadline estimator: Max until every partition
// has enough samples, then the slowest partition's quantile clamped to
// [Min, Max].
func TestHedgeDelay(t *testing.T) {
	opt := HedgeOptions{Enabled: true, Percentile: 0.5, Min: time.Millisecond, Max: 50 * time.Millisecond}
	h := newHedgeState(nil, make([]bool, 2), opt)

	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("cold delay = %v, want Max", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(0, 2*time.Millisecond)
	}
	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("delay with one cold partition = %v, want Max", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(1, 4*time.Millisecond)
	}
	// The slowest partition (p1, ~4ms) governs; log-bucketing may round
	// up by one bucket (<= 6.25%).
	d := h.delay()
	if d < 4*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("warm delay = %v, want ~4ms (slowest partition's quantile)", d)
	}

	// Clamps: huge samples hit Max, tiny ones hit Min.
	for i := 0; i < hedgeMinSamples; i++ {
		h.observe(0, time.Second)
	}
	if d := h.delay(); d != 50*time.Millisecond {
		t.Fatalf("delay = %v, want Max clamp", d)
	}
	lo := newHedgeState(nil, make([]bool, 1), opt)
	for i := 0; i < hedgeMinSamples; i++ {
		lo.observe(0, 10*time.Microsecond)
	}
	if d := lo.delay(); d != time.Millisecond {
		t.Fatalf("delay = %v, want Min clamp", d)
	}

	// Defaults fill zeros.
	def := HedgeOptions{Enabled: true}.withDefaults()
	if def.Percentile != 0.99 || def.Min != time.Millisecond || def.Max != 100*time.Millisecond {
		t.Fatalf("bad defaults: %+v", def)
	}
}

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

// newHedgedEngine builds a k-partition R=2 in-process replicated engine
// through the exported ConnectTransport hook: replica 0 of every
// partition answers promptly, replica 1 sleeps `slow` per submit.
func newHedgedEngine(t *testing.T, g *graph.Graph, k int, slow time.Duration, o Options) *Engine {
	t.Helper()
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := partition.Extract(g, pt)
	for _, sub := range subs {
		sub.Condensation()
		sub.Index()
	}
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		sub, pp := subs[p], p
		groups[p] = []shard.ReplicaDialer{
			func(context.Context) (shard.Replica, error) {
				return shard.NewLocalReplica(shard.New(pp, sub)), nil
			},
			func(context.Context) (shard.Replica, error) {
				return &slowReplica{inner: shard.NewLocalReplica(shard.New(pp, sub)), d: slow}, nil
			},
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), o)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	return e
}

// TestHedgedEngineDifferential: with one deterministically slow replica
// per partition and hedging armed, every answer must still match the
// whole-graph oracle, hedges must actually fire, and at least one hedge
// must win its race (the primary is 30ms slower than the deadline).
func TestHedgedEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const k, n = 3, 80
	g := randomGraph(rng, n, 2)
	reg := obs.NewRegistry()
	e := newHedgedEngine(t, g, k, 30*time.Millisecond, Options{
		Metrics: reg,
		Hedge:   HedgeOptions{Enabled: true, Percentile: 0.95, Min: time.Millisecond, Max: 2 * time.Millisecond},
	})
	defer e.Close()

	for round := 0; round < 20; round++ {
		queries := make([]Query, 6)
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

	var hedges, wins uint64
	for p := 0; p < k; p++ {
		hedges += reg.Counter(obs.Name("dsr_hedges_total", "partition", p)).Load()
		wins += reg.Counter(obs.Name("dsr_hedge_wins_total", "partition", p)).Load()
	}
	if hedges == 0 {
		t.Fatal("no hedge ever fired despite a 30ms straggler and a 2ms deadline")
	}
	if wins == 0 {
		t.Fatal("no hedge ever won despite the sibling being 30ms faster")
	}
	if wins > hedges {
		t.Fatalf("hedge wins (%d) exceed hedges sent (%d)", wins, hedges)
	}
}

// TestHedgeOverSetsOfOne: hedging enabled over partitions that are sets
// of one — the in-process transport and a TCP R = 1 fleet under a
// deadline so short that nearly every round outlasts it, and the two
// singletons of a 2+1+1 fleet that answer well after the deadline. A
// set of one has no sibling to hedge on (and re-running the batch on
// the replica whose reply the coordinator is still reading would race),
// so it must never be asked: hedging is not armed at all over a fleet
// of nothing but singletons, dsr_hedges_total counts only partitions
// that have a sibling, answers stay oracle-correct (and race-free under
// -race), no round errors, and no singleton is ever retried or failed
// over.
func TestHedgeOverSetsOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	const k, n = 3, 400
	g := randomGraph(rng, n, 2)
	hedge := HedgeOptions{Enabled: true, Min: time.Nanosecond, Max: 20 * time.Microsecond}
	fleets := []struct {
		name   string
		rounds int
		boot   func(*testing.T, *obs.Registry) *Engine
	}{
		{"in-process", 300, func(t *testing.T, reg *obs.Registry) *Engine {
			tr := shard.NewLoopback(loopbackShards(t, g, graph.Hash(), k))
			e, err := ConnectTransport(t.Context(), tr, k, n, Options{Metrics: reg, Hedge: hedge})
			if err != nil {
				tr.Close()
				t.Fatal(err)
			}
			return e
		}},
		{"tcp", 300, func(t *testing.T, reg *obs.Registry) *Engine {
			addrs, stop := bootShardServers(t, g, k)
			t.Cleanup(stop)
			e, err := Connect(t.Context(), ClusterSpec{Groups: addrs, Metrics: reg, Hedge: hedge})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		// Partition 0 is a prompt replica beside a 30ms straggler, 1 and 2
		// are singletons 5ms slow, the deadline is 2ms: every round finds
		// the singletons unanswered when it fires, every other round the
		// straggler too.
		{"2+1+1", 20, func(t *testing.T, reg *obs.Registry) *Engine {
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
			tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			e, err := ConnectTransport(t.Context(), tr, k, n, Options{
				Metrics: reg,
				Hedge:   HedgeOptions{Enabled: true, Min: time.Millisecond, Max: 2 * time.Millisecond},
			})
			if err != nil {
				tr.Close()
				t.Fatal(err)
			}
			return e
		}},
	}
	for _, fleet := range fleets {
		t.Run(fleet.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			e := fleet.boot(t, reg)
			defer e.Close()
			siblings := false
			for _, h := range e.Health() {
				siblings = siblings || h.Replicas > 1
			}
			if armed := e.hedge != nil; armed != siblings {
				t.Fatalf("hedging armed = %v over a fleet with siblings = %v", armed, siblings)
			}
			for round := 0; round < fleet.rounds; round++ {
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
				if e.stale && !siblings {
					t.Fatalf("round %d left stragglers though no hedge was ever sent", round)
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
		})
	}
}

// TestHedgeIgnoredWithoutSiblings: enabling hedging on a fleet with no
// sibling replicas (Build's sets of one) must disable it with one
// warning at construction, not break queries or warn per round.
func TestHedgeIgnoredWithoutSiblings(t *testing.T) {
	g := build(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	var log strings.Builder
	e, err := Build(g, Options{K: 3, Hedge: HedgeOptions{Enabled: true}, Log: obs.NewLogger(&log, obs.LevelWarn)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.hedge != nil {
		t.Fatal("hedge state exists on a sibling-less transport")
	}
	if !e.Query(V(0), V(5)) || e.Query(V(5), V(0)) {
		t.Fatal("wrong answers with hedging requested on loopback")
	}
	if got := log.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "hedging disabled") {
		t.Fatalf("want exactly one warning that hedging is disabled, got:\n%s", got)
	}
}
