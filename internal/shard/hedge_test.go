package shard

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/obs"
	"dsr/internal/wire"
)

// gatedReplica holds every submitted batch until the gate is released —
// a deterministic "slow replica" for hedging tests — and then, if fail
// is set, answers it with an error instead of running it. Like any
// Replica it does the waiting on a goroutine of its own, not the
// submitter's, and Close answers what is in flight: it opens the gate.
type gatedReplica struct {
	inner   Replica
	gate    chan struct{}
	open    sync.Once
	fail    atomic.Bool
	submits atomic.Int32
	handed  atomic.Pointer[wire.Task] // first task of the latest batch
}

func newGated(sh *Shard) *gatedReplica {
	return &gatedReplica{inner: NewLocalReplica(sh), gate: make(chan struct{})}
}

// release opens the gate for good: held batches proceed, later ones
// pass straight through.
func (g *gatedReplica) release() { g.open.Do(func() { close(g.gate) }) }

func (g *gatedReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(Reply)) {
	g.handed.Store(&tasks[0])
	g.submits.Add(1)
	go func() {
		<-g.gate
		if g.fail.Load() {
			done(Reply{Err: errGated})
			return
		}
		g.inner.Submit(h, tasks, done)
	}()
}

func (g *gatedReplica) Summary(ctx context.Context) (wire.Summary, error) {
	return g.inner.Summary(ctx)
}
func (g *gatedReplica) Hello() wire.Hello { return g.inner.Hello() }
func (g *gatedReplica) Close() error {
	g.release()
	return g.inner.Close()
}

var errGated = errors.New("gated: injected failure")

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hedgeDeadline is the deadline every test transport below runs on:
// Max, since no test feeds the estimator its 16 samples per partition.
const hedgeDeadline = 2 * time.Millisecond

var testHedge = HedgeOptions{Enabled: true, Min: time.Millisecond, Max: hedgeDeadline}

// hedgedSet is a transport over the chain fixture whose partition 0 is
// the given replicas, in order (endpoint 0 serves the first batch; a nil
// one is an endpoint whose dial always fails, counted in dials), and
// whose partitions 1 and 2 are sets of one: the gated solo and a plain
// local replica.
type hedgedSet struct {
	*Replicated
	reg   *obs.Registry
	solo  *gatedReplica
	dials atomic.Int32
}

func newHedgedSet(t *testing.T, opts ReplicatedOptions, replicas ...Replica) *hedgedSet {
	t.Helper()
	shards, _ := chainFixture(t)
	hs := &hedgedSet{reg: obs.NewRegistry(), solo: newGated(shards[1])}
	groups := [][]ReplicaDialer{nil, {func(context.Context) (Replica, error) { return hs.solo, nil }}, {localDialer(shards[2])}}
	for _, rep := range replicas {
		groups[0] = append(groups[0], func(context.Context) (Replica, error) {
			if rep == nil {
				hs.dials.Add(1)
				return nil, errors.New("endpoint down")
			}
			return rep, nil
		})
	}
	opts.ReconnectEvery, opts.Metrics = -1, hs.reg
	tr, err := NewReplicated(t.Context(), groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	hs.Replicated = tr
	return hs
}

func (hs *hedgedSet) hedges() uint64 {
	return hs.reg.Counter(obs.Name("dsr_hedges_total", "partition", 0)).Load()
}
func (hs *hedgedSet) wins() uint64 {
	return hs.reg.Counter(obs.Name("dsr_hedge_wins_total", "partition", 0)).Load()
}

// chainTask is the batch of the tests below: forward from vertex 0,
// which partition 0 of the chain fixture answers with boundary vertex 1.
var chainTask = []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}

func wantChainAnswer(t *testing.T, who string, rep Reply) {
	t.Helper()
	if rep.Err != nil || rep.Shard != 0 || len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
		t.Fatalf("%s answered wrong: %+v", who, rep)
	}
}

func recv(t *testing.T, replyc <-chan Reply) Reply {
	t.Helper()
	select {
	case rep := <-replyc:
		return rep
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
		return Reply{}
	}
}

// TestHedgeLandsOnIdleSibling: a batch stuck on a slow replica is
// re-sent, after the deadline and by the transport itself, to the idle
// sibling, whose answer is the Submit's one Reply. The reply of a
// hedged call owns its memory; the loser's late answer is dropped
// unread, and its replica goes back into the rotation.
func TestHedgeLandsOnIdleSibling(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	slow := newGated(shardsA[0])
	hs := newHedgedSet(t, ReplicatedOptions{Hedge: testHedge}, slow, NewLocalReplica(shardsB[0]))

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}
	replyc := make(chan Reply, 2)
	sent := time.Now()
	hs.Submit(0, wire.BatchHeader{Batch: 3}, tasks, replyc)
	first := recv(t, replyc)
	if waited := time.Since(sent); waited < hedgeDeadline {
		t.Fatalf("answered after %v: the hedge left before its %v deadline", waited, hedgeDeadline)
	}
	wantChainAnswer(t, "hedge", first)
	// The caller's task memory is the caller's again once the Reply is
	// in: the straggler must be holding a copy.
	if held := slow.handed.Load(); held == &tasks[0] || &held.Seeds[0] == &tasks[0].Seeds[0] || held.Seeds[0] != 0 {
		t.Fatalf("the straggler reads the caller's tasks: %+v", held)
	}
	if first.Batch != 3 || slow.submits.Load() != 1 || hs.hedges() != 1 || hs.wins() != 1 {
		t.Fatalf("batch %d, %d submits to the slow replica, %d hedges, %d wins; want 3, 1, 1, 1",
			first.Batch, slow.submits.Load(), hs.hedges(), hs.wins())
	}

	// Different batches through the sibling while the loser still holds
	// its replica: the hedged reply must not be a view of its buffers.
	for i := 0; i < 2; i++ {
		if later := submitOne(t, hs, 0, 5); later.Err != nil {
			t.Fatal(later.Err)
		}
	}
	wantChainAnswer(t, "hedge, two submits later,", first)
	if slow.submits.Load() != 1 {
		t.Fatal("a busy replica was handed a second batch")
	}

	slow.release()
	waitFor(t, "the loser's replica to serve again", func() bool {
		wantChainAnswer(t, "a later batch", submitOne(t, hs, 0, 0))
		return slow.submits.Load() > 1
	})
	if len(replyc) != 0 {
		t.Fatalf("the loser's reply was delivered too: %+v", <-replyc)
	}
	if h := hs.Health()[0]; h.Live != 2 || h.Retries != 0 || h.Failovers != 0 || h.Redials != 0 {
		t.Fatalf("a hedge moved the failover books: %+v", h)
	}
}

// TestHedgeNoIdleSibling: with the sibling dead the deadline passes and
// nothing happens — no hedge counted, no redial, no error surfaced —
// and the primary answers when it answers.
func TestHedgeNoIdleSibling(t *testing.T) {
	shards, _ := chainFixture(t)
	slow := newGated(shards[0])
	hs := newHedgedSet(t, ReplicatedOptions{Hedge: testHedge}, slow, nil)
	dials := hs.dials.Load()

	replyc := make(chan Reply, 1)
	hs.Submit(0, wire.BatchHeader{}, chainTask, replyc)
	time.Sleep(10 * hedgeDeadline)
	if len(replyc) != 0 || hs.hedges() != 0 || hs.dials.Load() != dials {
		t.Fatalf("%d replies, %d hedges, %d redials with no idle sibling; want none", len(replyc), hs.hedges(), hs.dials.Load()-dials)
	}
	slow.release()
	wantChainAnswer(t, "primary", recv(t, replyc))
	if hs.wins() != 0 || hs.Health()[0].Failovers != 0 {
		t.Fatalf("%d wins, health %+v after an unhedged call", hs.wins(), hs.Health()[0])
	}
}

// TestHedgeSetOfOne: a set of one on a hedging transport is the unarmed
// path — however long its replica takes, no hedge is counted and the
// books don't move — and that path, like an R = 2 set's on a transport
// that does not hedge, costs no allocation and hands over replies that
// alias the replica's buffers.
func TestHedgeSetOfOne(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	hs := newHedgedSet(t, ReplicatedOptions{Hedge: testHedge}, NewLocalReplica(shardsA[0]), NewLocalReplica(shardsB[0]))

	replyc := make(chan Reply, 1)
	hs.Submit(1, wire.BatchHeader{}, chainTask, replyc)
	time.Sleep(10 * hedgeDeadline)
	if len(replyc) != 0 {
		t.Fatal("the gated set of one answered")
	}
	hs.solo.release()
	if rep := recv(t, replyc); rep.Err != nil || rep.Shard != 1 {
		t.Fatalf("the set of one: %+v", rep)
	}
	for p := 0; p < 3; p++ {
		if n := hs.reg.Counter(obs.Name("dsr_hedges_total", "partition", p)).Load(); n != 0 {
			t.Errorf("partition %d: %d hedges though only a set of one was ever slow", p, n)
		}
	}
	if h := hs.Health()[1]; h != (PartitionHealth{Partition: 1, Replicas: 1, Live: 1}) {
		t.Fatalf("waiting out the deadline disturbed a set of one: %+v", h)
	}

	plain, err := NewReplicated(t.Context(), [][]ReplicaDialer{{localDialer(shardsA[1]), localDialer(shardsB[1])}}, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for _, path := range []struct {
		name     string
		tr       *Replicated
		p        int
		replicas int
	}{
		{"set of one beside a hedging set", hs.Replicated, 2, 1},
		{"R = 2 without hedging", plain, 0, 2},
	} {
		// Once round the rotation and back onto the same replica, the
		// reply is the same memory: nothing was copied out.
		var results [3]*wire.Result
		for i := range results {
			path.tr.Submit(path.p, wire.BatchHeader{}, chainTask, replyc)
			rep := recv(t, replyc)
			if rep.Err != nil || len(rep.Results) != 1 {
				t.Fatalf("%s: %+v", path.name, rep)
			}
			results[i] = &rep.Results[0]
		}
		if results[0] != results[path.replicas] {
			t.Errorf("%s: replies do not alias the replica's buffers", path.name)
		}
		if raceEnabled {
			continue // instrumentation allocates
		}
		if allocs := testing.AllocsPerRun(200, func() {
			path.tr.Submit(path.p, wire.BatchHeader{}, chainTask, replyc)
			<-replyc
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per unarmed Submit, want 0", path.name, allocs)
		}
	}
}

// TestHedgePrimaryFailsWhileHedgeOutstanding: a primary that dies with
// its hedge still out does not fail the batch and does not redial — the
// hedge's answer is the Reply — and when the hedge dies too the
// coordinator gets one ReplicaSetError naming both replicas.
func TestHedgePrimaryFailsWhileHedgeOutstanding(t *testing.T) {
	for _, hedgeFails := range []bool{false, true} {
		name := "hedge answers"
		if hedgeFails {
			name = "both fail"
		}
		t.Run(name, func(t *testing.T) {
			shardsA, _ := chainFixture(t)
			shardsB, _ := chainFixture(t)
			a, b := newGated(shardsA[0]), newGated(shardsB[0])
			hs := newHedgedSet(t, ReplicatedOptions{Hedge: testHedge}, a, b)

			replyc := make(chan Reply, 2)
			hs.Submit(0, wire.BatchHeader{}, chainTask, replyc)
			waitFor(t, "the hedge to reach the sibling", func() bool { return b.submits.Load() == 1 })
			a.fail.Store(true)
			a.release()
			waitFor(t, "the primary's replica to be marked dead", func() bool { return hs.Health()[0].Failovers == 1 })
			time.Sleep(5 * time.Millisecond)
			if len(replyc) != 0 {
				t.Fatalf("the primary's failure was surfaced with the hedge still out: %+v", <-replyc)
			}
			b.fail.Store(hedgeFails)
			b.release()
			rep := recv(t, replyc)
			if !hedgeFails {
				wantChainAnswer(t, "hedge", rep)
				if h := hs.Health()[0]; hs.wins() != 1 || h.Redials != 0 || h.Retries != 0 {
					t.Fatalf("%d wins, health %+v; want the hedge's win and no redial", hs.wins(), h)
				}
				return
			}
			var rse *ReplicaSetError
			if !errors.As(rep.Err, &rse) || len(rse.Replicas) != 2 || rse.Replicas[0].Err != errGated || rse.Replicas[1].Err != errGated {
				t.Fatalf("both replicas failed, reply = %+v; want a ReplicaSetError naming both", rep)
			}
			waitFor(t, "both replicas to be marked dead", func() bool { return hs.Health()[0].Live == 0 })
			if len(replyc) != 0 {
				t.Fatalf("a second reply for one Submit: %+v", <-replyc)
			}
		})
	}
}

// TestHedgeCloseInFlight: Close with a primary and its hedge both still
// out fails the call with its one Reply and leaves no goroutine behind;
// nor does a deadline that had not fired yet.
func TestHedgeCloseInFlight(t *testing.T) {
	for _, fired := range []bool{true, false} {
		before := runtime.NumGoroutine()
		shardsA, _ := chainFixture(t)
		shardsB, _ := chainFixture(t)
		a, b := newGated(shardsA[0]), newGated(shardsB[0])
		opts := ReplicatedOptions{Hedge: testHedge}
		if !fired {
			opts.Hedge.Min, opts.Hedge.Max = time.Hour, time.Hour
		}
		hs := newHedgedSet(t, opts, a, b)
		replyc := make(chan Reply, 2)
		hs.Submit(0, wire.BatchHeader{}, chainTask, replyc)
		if fired {
			waitFor(t, "the hedge to reach the sibling", func() bool { return b.submits.Load() == 1 })
		}
		hs.Close()
		if len(replyc) != 1 {
			t.Fatalf("fired=%v: %d replies after Close, want the one", fired, len(replyc))
		}
		if rep := <-replyc; rep.Err == nil {
			wantChainAnswer(t, "a replica closed mid-batch", rep)
		}
		waitFor(t, "transport goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
		if b.submits.Load() != map[bool]int32{true: 1, false: 0}[fired] {
			t.Fatalf("fired=%v: sibling saw %d submits", fired, b.submits.Load())
		}
	}
}

// TestReplicaSetErrorNamesBusyReplicas: a batch that finds every
// replica of its partition alive but still serving an earlier batch
// fails — the transport does not queue — but says what it found: busy
// replicas are not reported as failed ones, and a replica that did fail
// under this batch still is.
func TestReplicaSetErrorNamesBusyReplicas(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	a, b := newGated(shardsA[0]), newGated(shardsB[0])
	hs := newHedgedSet(t, ReplicatedOptions{}, a, b)

	held := make(chan Reply, 2)
	hs.Submit(0, wire.BatchHeader{}, chainTask, held)
	hs.Submit(0, wire.BatchHeader{}, chainTask, held)
	waitFor(t, "both replicas to be busy", func() bool { return a.submits.Load() == 1 && b.submits.Load() == 1 })

	var rse *ReplicaSetError
	if rep := submitOne(t, hs, 0, 0); !errors.As(rep.Err, &rse) {
		t.Fatalf("a third batch over two busy replicas: %+v, want a ReplicaSetError", rep)
	}
	for _, re := range rse.Replicas {
		if msg := re.Err.Error(); !strings.Contains(msg, "busy") || strings.Contains(msg, "failed") {
			t.Errorf("replica %d is alive and busy, reported as %q", re.Replica, msg)
		}
	}
	if h := hs.Health()[0]; h.Live != 2 || h.Failovers != 0 {
		t.Fatalf("busy replicas were written off: %+v", h)
	}

	// Now one that really fails under the batch, beside a busy one.
	b.fail.Store(true)
	b.release()
	if rep := recv(t, held); rep.Err == nil {
		t.Fatal("the held batch on the failing replica succeeded")
	}
	waitFor(t, "the failed replica to be marked dead", func() bool { return hs.Health()[0].Live == 1 })
	if rep := submitOne(t, hs, 0, 0); !errors.As(rep.Err, &rse) {
		t.Fatalf("a batch over one busy and one dead replica: %+v, want a ReplicaSetError", rep)
	}
	if msg := rse.Replicas[0].Err.Error(); !strings.Contains(msg, "busy") {
		t.Errorf("replica 0 is alive and busy, reported as %q", msg)
	}
	if rse.Replicas[1].Err != errGated {
		t.Errorf("replica 1 failed, reported as %q", rse.Replicas[1].Err)
	}
	a.release()
	wantChainAnswer(t, "the first held batch", recv(t, held))
}

// TestHedgeDelay pins the deadline estimator: Max until every partition
// has enough samples, then the slowest partition's quantile clamped to
// [Min, Max].
func TestHedgeDelay(t *testing.T) {
	newEstimator := func(k int) *Replicated {
		r := &Replicated{hedge: HedgeOptions{Enabled: true, Percentile: 0.5, Min: time.Millisecond, Max: 50 * time.Millisecond}}
		for p := 0; p < k; p++ {
			r.sets = append(r.sets, &replicaSet{primary: &obs.Histogram{}})
		}
		return r
	}
	observe := func(r *Replicated, p int, d time.Duration) {
		for i := 0; i < hedgeMinSamples; i++ {
			r.sets[p].primary.Observe(int64(d))
		}
	}
	r := newEstimator(2)
	if d := r.hedgeDelay(); d != 50*time.Millisecond {
		t.Fatalf("cold delay = %v, want Max", d)
	}
	observe(r, 0, 2*time.Millisecond)
	if d := r.hedgeDelay(); d != 50*time.Millisecond {
		t.Fatalf("delay with one cold partition = %v, want Max", d)
	}
	observe(r, 1, 4*time.Millisecond)
	// The slowest partition (p1, ~4ms) governs; log-bucketing may round
	// up by one bucket (<= 6.25%).
	if d := r.hedgeDelay(); d < 4*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("warm delay = %v, want ~4ms (slowest partition's quantile)", d)
	}

	// Clamps: huge samples hit Max, tiny ones hit Min.
	observe(r, 0, time.Second)
	if d := r.hedgeDelay(); d != 50*time.Millisecond {
		t.Fatalf("delay = %v, want Max clamp", d)
	}
	lo := newEstimator(1)
	observe(lo, 0, 10*time.Microsecond)
	if d := lo.hedgeDelay(); d != time.Millisecond {
		t.Fatalf("delay = %v, want Min clamp", d)
	}

	// Defaults fill zeros.
	def := HedgeOptions{Enabled: true}.withDefaults()
	if def.Percentile != 0.99 || def.Min != time.Millisecond || def.Max != 100*time.Millisecond {
		t.Fatalf("bad defaults: %+v", def)
	}
}
