package shard

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/wire"
)

// gatedReplica holds every submitted batch until the gate is released —
// a deterministic "slow replica" for hedging tests. Like any Replica it
// does the waiting on a goroutine of its own, not the submitter's.
type gatedReplica struct {
	inner   Replica
	gate    chan struct{}
	submits atomic.Int32
}

func (g *gatedReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(Reply)) {
	g.submits.Add(1)
	go func() {
		<-g.gate
		g.inner.Submit(h, tasks, done)
	}()
}

func (g *gatedReplica) Summary(ctx context.Context) (wire.Summary, error) {
	return g.inner.Summary(ctx)
}
func (g *gatedReplica) Hello() wire.Hello { return g.inner.Hello() }
func (g *gatedReplica) Close() error      { return g.inner.Close() }

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

// TestSubmitHedgeGoesToIdleSibling: with the primary submit stuck on a
// slow replica, a hedge is answered — correctly — by the idle sibling,
// and the slow primary still delivers once released (the caller drains
// both).
func TestSubmitHedgeGoesToIdleSibling(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	slow := &gatedReplica{inner: NewLocalReplica(shardsA[0]), gate: make(chan struct{})}
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return slow, nil },
		func(ctx context.Context) (Replica, error) { return NewLocalReplica(shardsB[0]), nil },
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}
	replyc := make(chan Reply, 2)
	tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
	waitFor(t, "primary submit to reach the slow replica", func() bool { return slow.submits.Load() == 1 })

	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	select {
	case rep := <-hedgec:
		if rep.Err != nil {
			t.Fatalf("hedge did not reach the idle sibling: %v", rep.Err)
		}
		if rep.Shard != 0 || len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
			t.Fatalf("hedge answered wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hedge reply never arrived while primary was stuck")
	}

	close(slow.gate)
	select {
	case rep := <-replyc:
		if rep.Err != nil || len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
			t.Fatalf("released primary answered wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("primary reply never arrived after release")
	}
	if got := slow.submits.Load(); got != 1 {
		t.Fatalf("slow replica served %d submits, want 1 (hedge must not queue behind it)", got)
	}
}

// TestSubmitHedgeNoIdleSibling: a hedge fails fast with
// ErrNoIdleSibling when the partition's only replica is already
// serving the primary, and never redials dead siblings.
func TestSubmitHedgeNoIdleSibling(t *testing.T) {
	shards, _ := chainFixture(t)
	slow := &gatedReplica{inner: NewLocalReplica(shards[0]), gate: make(chan struct{})}
	dials := atomic.Int32{}
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return slow, nil },
		func(ctx context.Context) (Replica, error) {
			// A dead sibling: fails at construction and on every redial.
			dials.Add(1)
			return nil, errors.New("endpoint down")
		},
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dialsAtStart := dials.Load()

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}
	replyc := make(chan Reply, 1)
	tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
	waitFor(t, "primary submit to reach the slow replica", func() bool { return slow.submits.Load() == 1 })

	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	rep := <-hedgec
	if !errors.Is(rep.Err, ErrNoIdleSibling) {
		t.Fatalf("hedge error = %v, want ErrNoIdleSibling", rep.Err)
	}
	if dials.Load() != dialsAtStart {
		t.Fatal("hedge redialed a dead sibling; hedges must not dial")
	}

	close(slow.gate)
	if rep := <-replyc; rep.Err != nil {
		t.Fatalf("primary: %v", rep.Err)
	}

	tr.Close()
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	if rep := <-hedgec; !errors.Is(rep.Err, ErrClosed) {
		t.Fatalf("hedge on closed transport = %v, want ErrClosed", rep.Err)
	}
}

// TestSubmitHedgeSetOfOneRefuses: a set of one refuses a hedge even
// while its replica sits idle — the primary's reply may be waiting,
// unread, in the coordinator's channel, aliasing that replica's buffers
// — and the refusal is on the channel before SubmitHedge returns.
func TestSubmitHedgeSetOfOneRefuses(t *testing.T) {
	shards, _ := chainFixture(t)
	tr := NewLoopback(shards)
	defer tr.Close()

	first := submitOne(t, tr, 0, 0)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	want := slices.Clone(first.Results[0].Boundary)

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{5}}}
	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	if len(hedgec) != 1 {
		t.Fatal("SubmitHedge returned before the refusal was delivered")
	}
	if rep := <-hedgec; !errors.Is(rep.Err, ErrNoIdleSibling) || rep.Shard != 0 {
		t.Fatalf("hedge on an idle set of one = %+v, want ErrNoIdleSibling from shard 0", rep)
	}
	if got := first.Results[0].Boundary; !slices.Equal(got, want) {
		t.Fatalf("the hedge ran over the primary's reply: boundary %v, was %v", got, want)
	}
	if h := tr.Health()[0]; h.Live != 1 || h.Retries != 0 || h.Failovers != 0 {
		t.Fatalf("a refused hedge moved the books: %+v", h)
	}
}

// TestReplicatedReplyOwnsMemory: a Reply from a partition with sibling
// replicas must stay valid after further submits to the same partition
// — with hedging, two batches for one partition are in flight at once,
// so replies cannot alias replica decode buffers.
func TestReplicatedReplyOwnsMemory(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return NewLocalReplica(shardsA[0]), nil },
		func(ctx context.Context) (Replica, error) { return NewLocalReplica(shardsB[0]), nil },
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	first := submitOne(t, tr, 0, 0)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	// Different batches — an unowned seed, so an empty result — once
	// round the rotation and back onto the replica that served the first
	// would scribble over its arena if the reply hadn't been copied out.
	for i := 0; i < 2; i++ {
		if later := submitOne(t, tr, 0, 5); later.Err != nil {
			t.Fatal(later.Err)
		}
	}
	if len(first.Results) != 1 || !slices.Equal(chainReached(0, first.Results[0].Boundary), []uint32{1}) {
		t.Fatalf("first reply mutated by a later submit: %+v", first.Results)
	}
}
