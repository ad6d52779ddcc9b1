package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/wire"
)

// flakyControl is the shared fault state for one test endpoint: every
// redial of the endpoint produces a fresh replica instance (as a real
// dialer would produce a fresh connection) that consults this control.
type flakyControl struct {
	failNext atomic.Int32 // submits to fail with an injected error
	submits  atomic.Int32 // total submits served across all instances
	dialDown atomic.Bool  // endpoint refuses redials while true
}

// dialer returns a ReplicaDialer for the endpoint. The shard may be
// shared across successive instances because at most one instance is
// live at a time (a failed instance is closed before a redial).
func (fc *flakyControl) dialer(sh *Shard) ReplicaDialer {
	return func(ctx context.Context) (Replica, error) {
		if fc.dialDown.Load() {
			return nil, errors.New("endpoint down")
		}
		return &flakyReplica{ctl: fc, inner: NewLocalReplica(sh)}, nil
	}
}

type flakyReplica struct {
	ctl   *flakyControl
	inner Replica
}

func (f *flakyReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(Reply)) {
	f.ctl.submits.Add(1)
	for {
		n := f.ctl.failNext.Load()
		if n <= 0 {
			break
		}
		if f.ctl.failNext.CompareAndSwap(n, n-1) {
			done(Reply{Err: errors.New("flaky: injected failure")})
			return
		}
	}
	f.inner.Submit(h, tasks, done)
}

func (f *flakyReplica) Summary(ctx context.Context) (wire.Summary, error) {
	if f.ctl.dialDown.Load() {
		return wire.Summary{}, errors.New("flaky: endpoint down")
	}
	return f.inner.Summary(ctx)
}

func (f *flakyReplica) Hello() wire.Hello { return f.inner.Hello() }

func (f *flakyReplica) Close() error { return f.inner.Close() }

// numLive reads partition p's live-replica count off Health.
func numLive(tr *Replicated, p int) int { return tr.Health()[p].Live }

// localGroups builds R flaky-wrapped local replicas per partition of
// the chain fixture; each replica gets its own Shard instance, as the
// Replica contract requires.
func localGroups(t testing.TB, R int) ([][]ReplicaDialer, [][]*flakyControl) {
	t.Helper()
	ctls := make([][]*flakyControl, 3)
	groups := make([][]ReplicaDialer, 3)
	for p := 0; p < 3; p++ {
		ctls[p] = make([]*flakyControl, R)
		groups[p] = make([]ReplicaDialer, R)
		for r := 0; r < R; r++ {
			shards, _ := chainFixture(t)
			fc := &flakyControl{}
			ctls[p][r] = fc
			groups[p][r] = fc.dialer(shards[p])
		}
	}
	return groups, ctls
}

// submitOne runs one forward task through the transport and returns the
// reply.
func submitOne(t *testing.T, tr Transport, p int, seed int32) Reply {
	t.Helper()
	replyc := make(chan Reply, 1)
	tr.Submit(p, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{seed}}}, replyc)
	return recv(t, replyc)
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

// chainTask is a batch of one task: forward from vertex 0, which
// partition 0 of the chain fixture answers with boundary vertex 1.
var chainTask = []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}

func wantChainAnswer(t *testing.T, who string, rep Reply) {
	t.Helper()
	if rep.Err != nil || rep.Shard != 0 || len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
		t.Fatalf("%s answered wrong: %+v", who, rep)
	}
}

// gatedReplica holds every submitted batch and every summary fetch
// until the gate is released — a deterministic slow replica — and then,
// if fail is set, answers a held batch with an error instead of running
// it. Like any Replica it does the waiting on a goroutine of its own,
// not the submitter's, and Close answers what is in flight: it opens
// the gate.
type gatedReplica struct {
	inner   Replica
	gate    chan struct{}
	open    sync.Once
	fail    atomic.Bool
	submits atomic.Int32
	fetches atomic.Int32
	handed  atomic.Pointer[wire.Task] // first task of the latest batch
}

func newGated(sh *Shard) *gatedReplica {
	return &gatedReplica{inner: NewLocalReplica(sh), gate: make(chan struct{})}
}

// dialer returns a ReplicaDialer that hands out g itself.
func (g *gatedReplica) dialer() ReplicaDialer {
	return func(context.Context) (Replica, error) { return g, nil }
}

// release opens the gate for good: held calls proceed, later ones pass
// straight through.
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
	g.fetches.Add(1)
	<-g.gate
	return g.inner.Summary(ctx)
}
func (g *gatedReplica) Hello() wire.Hello { return g.inner.Hello() }
func (g *gatedReplica) Close() error {
	g.release()
	return g.inner.Close()
}

var errGated = errors.New("gated: injected failure")

// TestReplicatedFailsOverMidQuery: a batch whose chosen replica dies
// mid-query is retried on the sibling and still answered correctly.
func TestReplicatedFailsOverMidQuery(t *testing.T) {
	groups, flaky := localGroups(t, 2)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Fail each replica's next submit alternately over several rounds:
	// every round must still produce the right answer via the sibling.
	for round := 0; round < 6; round++ {
		flaky[0][round%2].failNext.Store(1)
		rep := submitOne(t, tr, 0, 0)
		if rep.Err != nil {
			t.Fatalf("round %d: failover did not rescue the batch: %v", round, rep.Err)
		}
		if len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
			t.Fatalf("round %d: wrong failover result: %+v", round, rep.Results)
		}
		if rep.Shard != 0 {
			t.Fatalf("round %d: reply names shard %d, want 0", round, rep.Shard)
		}
	}
}

// TestReplicatedAllReplicasFail: when every replica of a partition
// fails in one submit, the error reply details each replica's failure
// and other partitions keep answering.
func TestReplicatedAllReplicasFail(t *testing.T) {
	groups, flaky := localGroups(t, 3)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	for _, fr := range flaky[1] {
		fr.failNext.Store(100)
	}
	rep := submitOne(t, tr, 1, 2)
	if rep.Err == nil {
		t.Fatal("all replicas failing did not error")
	}
	var rse *ReplicaSetError
	if !errors.As(rep.Err, &rse) {
		t.Fatalf("error is %T, want *ReplicaSetError: %v", rep.Err, rep.Err)
	}
	if rse.Part != 1 || len(rse.Replicas) != 3 {
		t.Fatalf("bad error shape: %+v", rse)
	}
	for _, re := range rse.Replicas {
		if re.Err == nil || !strings.Contains(re.Err.Error(), "injected failure") {
			t.Fatalf("replica %d detail missing: %v", re.Replica, re.Err)
		}
	}
	if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
		t.Fatalf("healthy partition failed: %v", rep.Err)
	}
}

// TestReplicatedReconnects: a replica marked dead is revived by the
// background reconnect loop once its dialer succeeds again.
func TestReplicatedReconnects(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	ctlA, ctlB := &flakyControl{}, &flakyControl{}
	groups := [][]ReplicaDialer{{ctlA.dialer(shardsA[0]), ctlB.dialer(shardsB[0])}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Kill replica 0: its next submit fails, marking it dead, while the
	// dialer also refuses — NumLive must drop to 1.
	ctlA.dialDown.Store(true)
	ctlA.failNext.Store(1000)
	for numLive(tr, 0) == 2 {
		if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
			t.Fatalf("submit during failover: %v", rep.Err)
		}
	}

	// Bring the endpoint back: the reconnect loop must restore it.
	ctlA.failNext.Store(0)
	ctlA.dialDown.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for numLive(tr, 0) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reconnected: NumLive = %d", numLive(tr, 0))
		}
		time.Sleep(time.Millisecond)
	}
	if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
		t.Fatalf("submit after reconnect: %v", rep.Err)
	}
}

// TestReplicatedRedialsWhenNoneLive: with background reconnection
// disabled and every replica dead, a submit performs a last-resort
// redial instead of failing a recoverable situation.
func TestReplicatedRedialsWhenNoneLive(t *testing.T) {
	shards, _ := chainFixture(t)
	ctl := &flakyControl{}
	groups := [][]ReplicaDialer{{ctl.dialer(shards[0])}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Kill it: the submit fails (marking it dead), and with the dialer
	// down too, further submits keep erroring — with dialer detail.
	ctl.dialDown.Store(true)
	ctl.failNext.Store(1)
	if rep := submitOne(t, tr, 0, 0); rep.Err == nil {
		t.Fatal("dead single replica did not error")
	}
	if rep := submitOne(t, tr, 0, 0); rep.Err == nil ||
		!strings.Contains(rep.Err.Error(), "endpoint down") {
		t.Fatalf("error lacks dialer detail: %v", rep.Err)
	}
	// Endpoint returns: the very next submit must redial and succeed.
	ctl.dialDown.Store(false)
	if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
		t.Fatalf("submit after endpoint returned: %v", rep.Err)
	}
	if numLive(tr, 0) != 1 {
		t.Fatalf("NumLive = %d after redial, want 1", numLive(tr, 0))
	}
}

// TestReplicatedAffinity: successive submits land on the first idle
// healthy replica, so a partition's rounds stay on one warm replica and
// its sibling stands by; a batch that finds that replica busy goes to
// the sibling.
func TestReplicatedAffinity(t *testing.T) {
	groups, flaky := localGroups(t, 2)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 8; i++ {
		if rep := submitOne(t, tr, 2, 4); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	a, b := flaky[2][0].submits.Load(), flaky[2][1].submits.Load()
	if a != 8 || b != 0 {
		t.Fatalf("submits not kept on the first replica: replica 0 served %d, replica 1 served %d", a, b)
	}
	held := tr.sets[2].pick(nil) // replica 0, busy as if serving a batch
	if rep := submitOne(t, tr, 2, 4); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	tr.sets[2].release(held)
	if b := flaky[2][1].submits.Load(); b != 1 {
		t.Fatalf("a submit that found replica 0 busy: replica 1 served %d, want 1", b)
	}
}

// TestReplicatedSubmitAliasesReplies: a batch that succeeds at its
// first replica is handed over as that replica answered it — back onto
// the same replica, the next reply is the same memory — and the
// transport spends no allocation on it, on a set of one and on a set
// with a standby alike.
func TestReplicatedSubmitAliasesReplies(t *testing.T) {
	for _, R := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", R), func(t *testing.T) {
			groups, _ := localGroups(t, R)
			tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			replyc := make(chan Reply, 1)
			var results [2]*wire.Result
			for i := range results {
				tr.Submit(0, wire.BatchHeader{}, chainTask, replyc)
				rep := recv(t, replyc)
				wantChainAnswer(t, "the first replica", rep)
				results[i] = &rep.Results[0]
			}
			if results[0] != results[1] {
				t.Error("replies do not alias the replica's buffers")
			}
			if raceEnabled {
				return // instrumentation allocates
			}
			if allocs := testing.AllocsPerRun(200, func() {
				tr.Submit(0, wire.BatchHeader{}, chainTask, replyc)
				<-replyc
			}); allocs != 0 {
				t.Errorf("%v allocs per Submit, want 0", allocs)
			}
		})
	}
}

// TestReplicaSetErrorNamesBusyReplicas: a batch that finds every
// replica of its partition alive but still serving an earlier call —
// a concurrent Submit's batch, or a Summary's fetch — fails, since the
// transport does not queue, but says what it found: busy replicas are
// not reported as failed ones, and a replica that did fail under this
// batch still is.
func TestReplicaSetErrorNamesBusyReplicas(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	a, b := newGated(shardsA[0]), newGated(shardsB[0])
	tr, err := NewReplicated(t.Context(), [][]ReplicaDialer{{a.dialer(), b.dialer()}}, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	held := make(chan Reply, 2)
	tr.Submit(0, wire.BatchHeader{}, chainTask, held)
	tr.Submit(0, wire.BatchHeader{}, chainTask, held)
	waitFor(t, "both replicas to be busy", func() bool { return a.submits.Load() == 1 && b.submits.Load() == 1 })
	if a.handed.Load() != &chainTask[0] {
		t.Fatal("the replica was handed a copy of the caller's tasks")
	}

	var rse *ReplicaSetError
	if rep := submitOne(t, tr, 0, 0); !errors.As(rep.Err, &rse) {
		t.Fatalf("a third batch over two busy replicas: %+v, want a ReplicaSetError", rep)
	}
	for _, re := range rse.Replicas {
		if msg := re.Err.Error(); !strings.Contains(msg, "busy") || strings.Contains(msg, "failed") {
			t.Errorf("replica %d is alive and busy, reported as %q", re.Replica, msg)
		}
	}
	if h := tr.Health()[0]; h.Live != 2 || h.Failovers != 0 {
		t.Fatalf("busy replicas were written off: %+v", h)
	}

	// Now one that really fails under the batch, beside a busy one.
	b.fail.Store(true)
	b.release()
	if rep := recv(t, held); rep.Err == nil {
		t.Fatal("the held batch on the failing replica succeeded")
	}
	waitFor(t, "the failed replica to be marked dead", func() bool { return tr.Health()[0].Live == 1 })
	if rep := submitOne(t, tr, 0, 0); !errors.As(rep.Err, &rse) {
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

	// A summary fetch holds its replica too: a batch whose only other
	// replica fails under it finds the fetching one busy.
	c, d := newGated(shardsA[0]), newGated(shardsB[0])
	tr2, err := NewReplicated(t.Context(), [][]ReplicaDialer{{c.dialer(), d.dialer()}}, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	fetched := make(chan error, 1)
	go func() {
		_, err := tr2.Summary(t.Context(), 0)
		fetched <- err
	}()
	waitFor(t, "the summary fetch to hold replica 0", func() bool { return c.fetches.Load() == 1 })
	d.fail.Store(true)
	d.release()
	if rep := submitOne(t, tr2, 0, 0); !errors.As(rep.Err, &rse) {
		t.Fatalf("a batch beside a summary fetch, its sibling failing: %+v, want a ReplicaSetError", rep)
	}
	if msg := rse.Replicas[0].Err.Error(); !strings.Contains(msg, "busy") {
		t.Errorf("replica 0 is alive and fetching a summary, reported as %q", msg)
	}
	if rse.Replicas[1].Err != errGated {
		t.Errorf("replica 1 failed, reported as %q", rse.Replicas[1].Err)
	}
	c.release()
	if err := <-fetched; err != nil {
		t.Fatalf("the held summary fetch: %v", err)
	}
}

// TestReplicatedConstructionNeedsOneLivePerPartition: a partition with
// zero reachable replicas fails construction with per-replica detail;
// one live replica is enough even if siblings are down.
func TestReplicatedConstructionNeedsOneLivePerPartition(t *testing.T) {
	shards, _ := chainFixture(t)
	bad := func(ctx context.Context) (Replica, error) { return nil, errors.New("nobody home") }
	good := func(ctx context.Context) (Replica, error) { return NewLocalReplica(shards[0]), nil }

	if _, err := NewReplicated(t.Context(), [][]ReplicaDialer{{bad, bad}}, ReplicatedOptions{ReconnectEvery: -1}); err == nil ||
		!strings.Contains(err.Error(), "nobody home") {
		t.Fatalf("all-dead partition accepted: %v", err)
	}
	if _, err := NewReplicated(t.Context(), [][]ReplicaDialer{{}}, ReplicatedOptions{ReconnectEvery: -1}); err == nil {
		t.Fatal("empty replica group accepted")
	}
	if _, err := NewReplicated(t.Context(), nil, ReplicatedOptions{}); err == nil {
		t.Fatal("empty deployment accepted")
	}
	tr, err := NewReplicated(t.Context(), [][]ReplicaDialer{{bad, good}}, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatalf("one-live partition refused: %v", err)
	}
	if numLive(tr, 0) != 1 {
		t.Fatalf("NumLive = %d, want 1", numLive(tr, 0))
	}
	tr.Close()
}

// TestReplicatedCloseSemantics: Close is idempotent, joins its
// goroutines, and later submits answer ErrClosed.
func TestReplicatedCloseSemantics(t *testing.T) {
	groups, _ := localGroups(t, 2)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	tr.Close()
	tr.Close()
	if rep := submitOne(t, tr, 0, 0); !errors.Is(rep.Err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", rep.Err)
	}
}

// TestReplicatedSummaryFailover: a replica that fails its summary fetch
// is marked dead and the sibling serves it — the connect-time analogue
// of mid-query failover.
func TestReplicatedSummaryFailover(t *testing.T) {
	groups, flaky := localGroups(t, 2)
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Take one replica of partition 1 down; whichever order the set
	// tries them, the fetch must succeed via the survivor.
	flaky[1][0].dialDown.Store(true)
	for round := 0; round < 4; round++ {
		info, err := tr.Summary(t.Context(), 1)
		if err != nil {
			t.Fatalf("round %d: summary failover failed: %v", round, err)
		}
		if !slices.Equal(info.Summary.Boundary, []uint32{2, 3}) {
			t.Fatalf("round %d: boundary %v, want [2 3]", round, info.Summary.Boundary)
		}
	}
	// Both replicas down: the summary fetch reports the full failure.
	flaky[1][1].dialDown.Store(true)
	tr.sets[1].closeAll()
	tr.sets[1].mu.Lock()
	tr.sets[1].closed = false // reopen the set with every replica dead
	tr.sets[1].mu.Unlock()
	if _, err := tr.Summary(t.Context(), 1); err == nil {
		t.Fatal("summary with no replica left succeeded")
	}
}

// serveOne boots a single shard server on an ephemeral port and returns
// its address, the server handle (for Shutdown), and a hard-stop func.
func serveOne(t testing.TB, sh *Shard, numShards, numVertices int) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sh, numShards, numVertices, testGraphSum, testPartSum)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ln)
	}()
	var once sync.Once
	return ln.Addr().String(), srv, func() {
		once.Do(func() {
			srv.Close()
			wg.Wait()
		})
	}
}

// TestReplicatedTCPFailover runs the failover path against real TCP
// replica servers: two servers for one partition, one killed between
// batches, answers keep coming from the survivor.
func TestReplicatedTCPFailover(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)

	addrA, _, stopA := serveOne(t, shardsA[0], 1, 6)
	addrB, _, stopB := serveOne(t, shardsB[0], 1, 6)
	defer stopB()

	tr, err := DialReplicated(t.Context(), [][]string{{addrA, addrB}}, 6, testGraphSum, testPartSum,
		ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if rep := submitOne(t, tr, 0, 0); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	stopA() // kill replica 0's server
	// Keep submitting until a round lands on the dead connection and
	// the transport notices (NumLive drops to 1). Every single reply must
	// stay correct throughout — mid-query failover rescues the batches
	// that hit the corpse.
	deadline := time.Now().Add(10 * time.Second)
	for numLive(tr, 0) != 1 {
		rep := submitOne(t, tr, 0, 0)
		if rep.Err != nil {
			t.Fatalf("reply errored despite a live sibling: %v", rep.Err)
		}
		if len(rep.Results) != 1 || !slices.Equal(chainReached(0, rep.Results[0].Boundary), []uint32{1}) {
			t.Fatalf("wrong answer during failover: %+v", rep.Results)
		}
		if time.Now().After(deadline) {
			t.Fatal("dead replica never detected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParseGroups covers the replica address group syntax.
func TestParseGroups(t *testing.T) {
	groups, err := ParseGroups([]string{"a:1|b:1", " c:2 ", "d:3| e:3 |f:3"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:1"}, {"c:2"}, {"d:3", "e:3", "f:3"}}
	for p := range want {
		if !slices.Equal(groups[p], want[p]) {
			t.Fatalf("group %d = %v, want %v", p, groups[p], want[p])
		}
	}
	for _, bad := range []string{"", "a||b", "|a", "a|"} {
		if _, err := ParseGroups([]string{bad}); err == nil {
			t.Errorf("ParseGroups(%q) accepted", bad)
		}
	}
}

// TestServerShutdownDrains: Shutdown closes idle connections, refuses
// new ones, and every batch racing the drain either gets a complete,
// correct response or a clean connection error — never a hang or a
// corrupt frame.
func TestServerShutdownDrains(t *testing.T) {
	shards, _ := chainFixture(t)
	addr, srv, stop := serveOne(t, shards[0], 3, 6)
	defer stop()

	// An idle connection: handshake done, no request in flight.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadFrame(idle, nil); err != nil {
		t.Fatal(err)
	}

	// A storm of one-request connections racing the drain.
	const N = 8
	results := make(chan error, N)
	start := make(chan struct{})
	for i := 0; i < N; i++ {
		go func() {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				results <- nil // refused outright: fine under drain
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := wire.ReadFrame(c, nil); err != nil {
				results <- nil
				return
			}
			<-start
			req := wire.AppendTasks(nil, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Seeds: []int32{0}}})
			if err := wire.WriteFrame(c, req); err != nil {
				results <- nil
				return
			}
			p, err := wire.ReadFrame(c, nil)
			if err != nil {
				results <- nil // dropped before the batch began executing: fine
				return
			}
			_, res, _, err := wire.DecodeResults(p, nil, nil)
			if err != nil {
				results <- fmt.Errorf("corrupt response during drain: %v", err)
				return
			}
			if len(res) != 1 || !slices.Equal(chainReached(0, res[0].Boundary), []uint32{1}) {
				results <- fmt.Errorf("wrong response during drain: %+v", res)
				return
			}
			results <- nil
		}()
	}
	close(start)
	srv.Shutdown()
	for i := 0; i < N; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	// The idle connection must have been closed by the drain...
	idle.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(idle, nil); err == nil {
		t.Fatal("idle connection survived Shutdown")
	}
	// ...new connections are refused or immediately closed...
	if c, err := net.Dial("tcp", addr); err == nil {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.ReadFrame(c, nil); err == nil {
			t.Fatal("new connection served after Shutdown")
		}
		c.Close()
	}
	// ...and Shutdown stays idempotent alongside Close.
	srv.Shutdown()
}
