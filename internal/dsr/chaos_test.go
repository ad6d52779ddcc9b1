package dsr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/shard/chaos"
)

// newChaosEngine builds a replicated in-process engine: R chaos-wrapped
// local replicas per partition, each redial producing a fresh replica
// (fresh Shard scratch) exactly like a fresh TCP connection would. The
// coordinator is wired through the same summary path as Build/Connect —
// it learns the boundary structure from whichever replica of each
// partition serves the connect-time summary fetch. Local replicas carry
// no handshake identity, so the global vertex count is pinned
// explicitly, exactly like Build does for its loopback shards.
func newChaosEngine(t testing.TB, g *graph.Graph, strat graph.Partitioner, k, R int,
	f *chaos.Faults, opts shard.ReplicatedOptions) *Engine {
	t.Helper()
	pt, err := strat.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		for r := 0; r < R; r++ {
			sub := subs[p]
			pp := p
			groups[p] = append(groups[p], f.Dialer(p, r, func(context.Context) (shard.Replica, error) {
				return shard.NewLocalReplica(shard.New(pp, sub)), nil
			}))
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), Options{})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	return e
}

// chaosSchedule is one cell of the fault matrix.
type chaosSchedule struct {
	name string
	opts func(R int) chaos.Options
}

// chaosSchedules returns fault schedules that always leave replica 0 of
// every partition untouched — the regime where failover must hide every
// fault, so the engine has to agree with the oracle on every query.
func chaosSchedules(k int, seed int64) []chaosSchedule {
	return []chaosSchedule{
		{"clean", func(int) chaos.Options {
			return chaos.Options{Seed: seed}
		}},
		{"drops", func(int) chaos.Options {
			return chaos.Options{Seed: seed, DropProb: 0.35, ProtectFirst: true}
		}},
		{"drops+delays", func(int) chaos.Options {
			return chaos.Options{Seed: seed, DropProb: 0.3, DelayProb: 0.25,
				MaxDelay: 2 * time.Millisecond, ProtectFirst: true}
		}},
		{"scripted-kills", func(R int) chaos.Options {
			// Every non-protected replica dies after a couple of submits
			// and comes back later; the reconnect loop has to pick the
			// revived ones up while queries keep flowing.
			var script []chaos.Event
			for p := 0; p < k; p++ {
				for r := 1; r < R; r++ {
					script = append(script,
						chaos.Event{Part: p, Replica: r, After: 2 + r, Action: chaos.Kill},
						chaos.Event{Part: p, Replica: r, After: 6 + r, Action: chaos.Revive})
				}
			}
			return chaos.Options{Seed: seed, DropProb: 0.1, ProtectFirst: true, Script: script}
		}},
	}
}

// TestChaosDifferentialInProcess is the in-process half of the chaos
// differential matrix: hash/range/locality partitionings × R∈{1,2,3}
// replicas × fault schedules, every answer checked against the
// whole-graph oracle. One replica per partition survives every
// schedule, so failover must make the faults invisible: any error —
// and any wrong answer — fails the test.
func TestChaosDifferentialInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	strategies := []graph.Partitioner{graph.Hash(), graph.Range(), locality.New(locality.Options{Seed: 20260728})}
	const k = 3
	for _, R := range []int{1, 2, 3} {
		for si, strat := range strategies {
			for _, sched := range chaosSchedules(k, int64(1000*R+si)) {
				t.Run(fmt.Sprintf("R=%d/%s/%s", R, strat.Name(), sched.name), func(t *testing.T) {
					n := 30 + rng.Intn(90)
					g := randomGraph(rng, n, []float64{1, 2, 4}[rng.Intn(3)])
					f := chaos.New(sched.opts(R))
					e := newChaosEngine(t, g, strat, k, R, f,
						shard.ReplicatedOptions{ReconnectEvery: 2 * time.Millisecond})
					defer e.Close()
					for round := 0; round < 4; round++ {
						queries := make([]Query, 12)
						for i := range queries {
							queries[i] = Query{S: randomSet(rng, n, 5), T: randomSet(rng, n, 5)}
						}
						got, err := e.QueryBatchErr(queries)
						if err != nil {
							t.Fatalf("round %d: batch failed despite a live replica per partition: %v", round, err)
						}
						for i, q := range queries {
							if want := NaiveReach(g, q.S, q.T); got[i] != want {
								t.Fatalf("round %d query %d: got %v, oracle %v (S=%v T=%v)",
									round, i, got[i], want, q.S, q.T)
							}
						}
					}
				})
			}
		}
	}
}

// TestChaosPartitionLossNeverWrong drives batches while whole
// partitions die and come back: whatever the fault state, the engine
// must answer with the oracle or fail the query — never answer wrong.
func TestChaosPartitionLossNeverWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const k, n = 3, 80
	for _, R := range []int{1, 2} {
		g := randomGraph(rng, n, 2)
		f := chaos.New(chaos.Options{Seed: int64(R)})
		e := newChaosEngine(t, g, graph.Hash(), k, R, f,
			shard.ReplicatedOptions{ReconnectEvery: -1})
		defer e.Close()

		sawFailure := false
		for round := 0; round < 12; round++ {
			// Rounds 4..7: partition 0 fully dead. Before and after: alive.
			switch round {
			case 4:
				for r := 0; r < R; r++ {
					f.Kill(0, r)
				}
			case 8:
				for r := 0; r < R; r++ {
					f.Revive(0, r)
				}
			}
			queries := make([]Query, 10)
			for i := range queries {
				queries[i] = Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)}
			}
			got, err := e.QueryBatchErr(queries)
			var be *BatchError
			switch {
			case err == nil:
				for i, q := range queries {
					if want := NaiveReach(g, q.S, q.T); got[i] != want {
						t.Fatalf("R=%d round %d query %d: got %v, oracle %v", R, round, i, got[i], want)
					}
				}
			case errors.As(err, &be):
				sawFailure = true
				if len(be.Partitions) != 1 || be.Partitions[0].Partition != 0 {
					t.Fatalf("R=%d round %d: unexpected dead partitions: %v", R, round, err)
				}
				for i, q := range queries {
					want := NaiveReach(g, q.S, q.T)
					if !be.Failed[i] && got[i] != want {
						t.Fatalf("R=%d round %d query %d: unfailed answer wrong: got %v, oracle %v",
							R, round, i, got[i], want)
					}
					// A failed query must never claim true, and a query the
					// engine answered true is by construction correct.
					if be.Failed[i] && got[i] {
						t.Fatalf("R=%d round %d query %d: failed query answered true", R, round, i)
					}
				}
			default:
				t.Fatalf("R=%d round %d: non-partial error: %v", R, round, err)
			}
			if round >= 8 && err != nil {
				t.Fatalf("R=%d round %d: still failing after revival: %v", R, round, err)
			}
		}
		if !sawFailure {
			t.Fatalf("R=%d: partition loss never surfaced — schedule ineffective", R)
		}
		e.Close()
	}
}

// chainEngine builds the deterministic partial-failure fixture: the
// chain 0→1→2→3→4→5 range-partitioned into {0,1},{2,3},{4,5} over
// chaos-wrapped replicas, so tests know exactly which query consults
// which partition.
func chainEngine(t *testing.T, R int) (*Engine, *chaos.Faults) {
	t.Helper()
	g := build(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	f := chaos.New(chaos.Options{})
	e := newChaosEngine(t, g, graph.Range(), 3, R, f, shard.ReplicatedOptions{ReconnectEvery: -1})
	return e, f
}

// V is shorthand for a vertex set literal.
func V(vs ...graph.VertexID) []graph.VertexID { return vs }

// TestQueryBatchErrPartialFailure pins the partial-failure contract:
// which queries fail when a partition dies, the error names the dead
// partition exactly once, and every other query in the same batch is
// still answered.
func TestQueryBatchErrPartialFailure(t *testing.T) {
	e, f := chainEngine(t, 1)
	defer e.Close()
	f.Kill(1, 0) // partition 1 = vertices {2, 3}, all replicas down

	queries := []Query{
		{S: V(0), T: V(1)},    // healthy p0 only: local hit
		{S: V(4), T: V(5)},    // healthy p2 only: local hit
		{S: V(2), T: V(3)},    // sources and targets inside the dead partition
		{S: V(0), T: V(5)},    // p0 → p2; p1 is crossed via precomputed summaries only
		{S: V(3), T: V(5)},    // sources in the dead partition: forward search lost
		{S: V(0), T: V(3)},    // targets in the dead partition: backward search lost
		{S: V(2), T: V(2)},    // trivial overlap: answered during assembly, no shard consulted
		{S: nil, T: V(0)},     // degenerate: answered during assembly
		{S: V(3, 0), T: V(1)}, // one source lost with p1, but p0 proves it true anyway
		{S: V(5), T: V(0)},    // healthy partitions, genuinely false
	}
	got, err := e.QueryBatchErr(queries)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Partitions) != 1 || be.Partitions[0].Partition != 1 || be.Partitions[0].Err == nil {
		t.Fatalf("dead partition not reported exactly once: %+v", be.Partitions)
	}
	wantFailed := []bool{false, false, true, false, true, true, false, false, false, false}
	wantAns := []bool{true, true, false, true, false, false, true, false, true, false}
	for i := range queries {
		if be.Failed[i] != wantFailed[i] {
			t.Errorf("query %d: Failed = %v, want %v", i, be.Failed[i], wantFailed[i])
		}
		if got[i] != wantAns[i] {
			t.Errorf("query %d: answer = %v, want %v", i, got[i], wantAns[i])
		}
	}
	if t.Failed() {
		t.Logf("error was: %v", err)
	}
}

// TestQueryBatchErrAcrossFinishChunks is the partial-failure contract
// on a round of 160 queries: every query below reaches the boundary
// finish, and the verdicts — a `false` on short coverage fails, a
// proven `true` survives, covered answers stand — must not depend on
// where in the round a query rode.
func TestQueryBatchErrAcrossFinishChunks(t *testing.T) {
	e, f := chainEngine(t, 1)
	defer e.Close()
	f.Kill(2, 0) // partition 2 = vertices {4, 5}

	pattern := []Query{
		{S: V(3, 5), T: V(2)}, // 5 is lost with p2; 3 does not reach 2: an unproven false
		{S: V(0, 5), T: V(3)}, // 5 is lost, but 0 → 3 is proven over the boundary
		{S: V(3), T: V(2)},    // fully covered, genuinely false
		{S: V(0), T: V(3)},    // fully covered, true over the boundary
	}
	wantFailed := []bool{true, false, false, false}
	wantAns := []bool{false, true, false, true}
	const reps = 40
	var queries []Query
	for r := 0; r < reps; r++ {
		queries = append(queries, pattern...)
	}
	got, err := e.QueryBatchErr(queries)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if swept := sweptLastRound(e); swept != len(queries) {
		t.Fatalf("%d of %d queries reached the finish, want all of them", swept, len(queries))
	}
	for i := range queries {
		if be.Failed[i] != wantFailed[i%len(pattern)] || got[i] != wantAns[i%len(pattern)] {
			t.Errorf("query %d (pattern %d): failed = %v, answer = %v; want %v, %v",
				i, i%len(pattern), be.Failed[i], got[i], wantFailed[i%len(pattern)], wantAns[i%len(pattern)])
		}
	}
}

// TestQueryBatchErrMultiplePartitionsDown: one error entry per dead
// partition, in ascending partition order.
func TestQueryBatchErrMultiplePartitionsDown(t *testing.T) {
	e, f := chainEngine(t, 1)
	defer e.Close()
	f.Kill(1, 0)
	f.Kill(2, 0)

	got, err := e.QueryBatchErr([]Query{
		{S: V(0), T: V(1)}, // p0: still answered
		{S: V(2), T: V(5)}, // both dead partitions
	})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Partitions) != 2 || be.Partitions[0].Partition != 1 || be.Partitions[1].Partition != 2 {
		t.Fatalf("partitions = %+v, want exactly [1, 2]", be.Partitions)
	}
	if be.Failed[0] || !be.Failed[1] {
		t.Fatalf("Failed = %v, want [false true]", be.Failed)
	}
	if !got[0] || got[1] {
		t.Fatalf("answers = %v, want [true false]", got)
	}
}

// TestQueryBatchErrRecoversAfterRevive: once the dead partition's
// replicas are back, the next batch redials on demand and the error
// disappears.
func TestQueryBatchErrRecoversAfterRevive(t *testing.T) {
	e, f := chainEngine(t, 2)
	defer e.Close()
	f.Kill(1, 0)
	f.Kill(1, 1)
	if _, err := e.QueryBatchErr([]Query{{S: V(2), T: V(3)}}); err == nil {
		t.Fatal("fully dead partition did not error")
	}
	f.Revive(1, 0)
	got, err := e.QueryBatchErr([]Query{{S: V(2), T: V(3)}})
	if err != nil {
		t.Fatalf("batch still failing after revive: %v", err)
	}
	if !got[0] {
		t.Fatal("2 ~> 3 answered false after revive")
	}
}

// TestQueryPanicsOnlyWhenAnswerUnknown: the panicking entry points
// tolerate a lost partition when the answer is proven anyway, and
// panic when it is not.
func TestQueryPanicsOnlyWhenAnswerUnknown(t *testing.T) {
	e, f := chainEngine(t, 1)
	defer e.Close()
	f.Kill(1, 0)

	// Healthy-partition query: no panic, right answer.
	if !e.Query(V(0), V(1)) {
		t.Fatal("0 ~> 1 = false")
	}
	// Sound-true query despite the dead partition: no panic.
	if !e.Query(V(3, 0), V(1)) {
		t.Fatal("{3,0} ~> 1 = false")
	}
	// Unknown-answer query: must panic, silence would be a wrong false.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Query on a dead partition did not panic")
			}
		}()
		e.Query(V(2), V(3))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("QueryBatch on a dead partition did not panic")
			}
		}()
		e.QueryBatch([]Query{{S: V(2), T: V(3)}})
	}()
}
