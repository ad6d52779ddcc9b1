package chaos

import (
	"context"
	"maps"
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

// stubReplica answers every submit successfully with a canned result.
type stubReplica struct{}

func (stubReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(shard.Reply)) {
	done(shard.Reply{Results: []wire.Result{{Query: 42}}})
}
func (stubReplica) Summary(ctx context.Context) (wire.Summary, error) {
	return wire.Summary{Boundary: []uint32{42}}, nil
}
func (stubReplica) Hello() wire.Hello { return wire.Hello{} }
func (stubReplica) Close() error      { return nil }

// submit pushes one dummy task through a replica and reports whether it
// succeeded.
func submit(t *testing.T, rep shard.Replica) error {
	t.Helper()
	replyc := make(chan shard.Reply, 1)
	rep.Submit(wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward}}, func(r shard.Reply) { replyc <- r })
	select {
	case r := <-replyc:
		return r.Err
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
		return nil
	}
}

// decisions runs n submits through a fresh injector and records which
// ones were dropped.
func decisions(t *testing.T, opts Options, part, replica, n int) []bool {
	t.Helper()
	f := New(opts)
	rep := f.Replica(part, replica, stubReplica{})
	out := make([]bool, n)
	for i := range out {
		out[i] = submit(t, rep) != nil
	}
	return out
}

// TestFaultsDeterministic: identical seeds make identical decisions;
// the sequence actually mixes drops and successes; a different seed
// diverges.
func TestFaultsDeterministic(t *testing.T) {
	opts := Options{Seed: 42, DropProb: 0.5}
	a := decisions(t, opts, 1, 2, 200)
	b := decisions(t, opts, 1, 2, 200)
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("degenerate sequence: %d drops of %d", drops, len(a))
	}
	if c := decisions(t, Options{Seed: 43, DropProb: 0.5}, 1, 2, 200); slices.Equal(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
	// Replica identity salts the rng too: another replica of the same
	// partition sees its own sequence.
	if d := decisions(t, opts, 1, 3, 200); slices.Equal(a, d) {
		t.Fatal("different replicas produced identical fault sequences")
	}
}

// TestFaultsScript: a kill/revive schedule keyed on submit counts fires
// exactly where scripted, refuses dials while dead, and state survives
// redials.
func TestFaultsScript(t *testing.T) {
	f := New(Options{Script: []Event{
		{Part: 0, Replica: 1, After: 2, Action: Kill},
		{Part: 0, Replica: 1, After: 5, Action: Revive},
	}})
	dialer := f.Dialer(0, 1, func(ctx context.Context) (shard.Replica, error) { return stubReplica{}, nil })
	rep, err := dialer(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 8; i++ {
		failed := submit(t, rep) != nil
		got = append(got, failed)
		if failed {
			// The transport would redial after a failure; while dead the
			// dial must be refused, afterwards it must succeed and the
			// schedule must pick up where it left off.
			fresh, derr := dialer(t.Context())
			if f.isDead(0, 1) {
				if derr == nil || !strings.Contains(derr.Error(), "killed") {
					t.Fatalf("submit %d: dial of killed replica: %v", i, derr)
				}
			} else if derr != nil {
				t.Fatalf("submit %d: dial of revived replica failed: %v", i, derr)
			} else {
				rep = fresh
			}
		}
	}
	want := []bool{false, false, true, true, true, false, false, false}
	if !slices.Equal(got, want) {
		t.Fatalf("schedule fired wrong: got %v, want %v", got, want)
	}
	if n := f.Submits(0, 1); n != 8 {
		t.Fatalf("Submits = %d, want 8", n)
	}
	// An unscripted replica of the same partition is untouched.
	other := f.Replica(0, 0, stubReplica{})
	if err := submit(t, other); err != nil {
		t.Fatalf("unscripted replica faulted: %v", err)
	}
}

// TestFaultsProtectFirst: replica 0 is exempt from seeded drops and
// scripted kills but not from manual Kill.
func TestFaultsProtectFirst(t *testing.T) {
	f := New(Options{
		Seed:         7,
		DropProb:     1,
		ProtectFirst: true,
		Script:       []Event{{Part: 2, Replica: 0, After: 0, Action: Kill}},
	})
	r0 := f.Replica(2, 0, stubReplica{})
	r1 := f.Replica(2, 1, stubReplica{})
	for i := 0; i < 20; i++ {
		if err := submit(t, r0); err != nil {
			t.Fatalf("protected replica 0 faulted: %v", err)
		}
		if err := submit(t, r1); err == nil {
			t.Fatal("unprotected replica 1 never dropped at DropProb=1")
		}
	}
	f.Kill(2, 0)
	if err := submit(t, r0); err == nil {
		t.Fatal("manual Kill did not override protection")
	}
	f.Revive(2, 0)
	if err := submit(t, r0); err != nil {
		t.Fatalf("revived replica still dead: %v", err)
	}
}

// TestFaultCountersMatchSchedule: with Metrics set, every injected
// fault lands in the registry — and because every decision is a pure
// function of (Seed, per-replica submit counts), a second injector
// with identical Options replayed over the recorded submit counts must
// produce the exact same counters. That differential proves the
// telemetry reports the seeded schedule, not goroutine luck.
func TestFaultCountersMatchSchedule(t *testing.T) {
	opts := Options{
		Seed:      99,
		DropProb:  0.3,
		DelayProb: 0.25,
		MaxDelay:  time.Microsecond,
		Script: []Event{
			{Part: 1, Replica: 1, After: 5, Action: Kill},
			{Part: 1, Replica: 1, After: 9, Action: Revive},
		},
	}
	type pr struct{ p, r int }
	replicas := []pr{{0, 0}, {0, 1}, {1, 0}, {1, 1}}

	regA := obs.NewRegistry()
	oa := opts
	oa.Metrics = regA
	f := New(oa)
	drops := make(map[pr]uint64)
	for _, x := range replicas {
		rep := f.Replica(x.p, x.r, stubReplica{})
		for i := 0; i < 40; i++ {
			if err := submit(t, rep); err != nil && strings.Contains(err.Error(), "injected drop") {
				drops[x]++
			}
		}
	}
	// The registry must agree exactly with what the transport saw.
	for _, x := range replicas {
		name := obs.Name("chaos_drops_total", "partition", x.p, "replica", x.r)
		if got := regA.Counter(name).Load(); got != drops[x] {
			t.Errorf("%s = %d, transport observed %d drops", name, got, drops[x])
		}
	}
	if got := regA.Counter(obs.Name("chaos_kills_total", "partition", 1, "replica", 1)).Load(); got != 1 {
		t.Errorf("scripted kill counted %d times, want 1", got)
	}
	if regA.Counter(obs.Name("chaos_delays_total", "partition", 0, "replica", 0)).Load() == 0 {
		t.Error("no delays counted at DelayProb=0.25 over 40 submits")
	}

	// Replay: a fresh injector, same Options, driven by the recorded
	// per-replica submit counts, must fill an identical registry.
	regB := obs.NewRegistry()
	ob := opts
	ob.Metrics = regB
	g := New(ob)
	for _, x := range replicas {
		rep := g.Replica(x.p, x.r, stubReplica{})
		for i := 0; i < f.Submits(x.p, x.r); i++ {
			submit(t, rep)
		}
	}
	a, b := regA.Snapshot().Counters, regB.Snapshot().Counters
	if !maps.Equal(a, b) {
		t.Fatalf("replayed fault counters diverge:\n first: %v\nreplay: %v", a, b)
	}
}

// TestFaultCountersManualKill: chaos_kills_total counts dead
// transitions, not Kill calls — a double Kill is one kill, a
// revive-then-kill is two — and a submit rejected by a dead replica is
// not a drop.
func TestFaultCountersManualKill(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(Options{Metrics: reg})
	rep := f.Replica(3, 0, stubReplica{})
	kills := reg.Counter(obs.Name("chaos_kills_total", "partition", 3, "replica", 0))
	drops := reg.Counter(obs.Name("chaos_drops_total", "partition", 3, "replica", 0))
	f.Kill(3, 0)
	f.Kill(3, 0) // already dead: not a new transition
	if got := kills.Load(); got != 1 {
		t.Fatalf("kills after double Kill = %d, want 1", got)
	}
	if err := submit(t, rep); err == nil {
		t.Fatal("submit to killed replica succeeded")
	}
	if got := drops.Load(); got != 0 {
		t.Fatalf("dead-replica rejection counted as a drop: %d", got)
	}
	f.Revive(3, 0)
	f.Kill(3, 0)
	if got := kills.Load(); got != 2 {
		t.Fatalf("kills after revive+kill = %d, want 2", got)
	}
}

// TestFaultsDelay: delays fire without breaking the reply path.
func TestFaultsDelay(t *testing.T) {
	f := New(Options{Seed: 1, DelayProb: 1, MaxDelay: time.Millisecond})
	rep := f.Replica(0, 0, stubReplica{})
	for i := 0; i < 5; i++ {
		if err := submit(t, rep); err != nil {
			t.Fatalf("delayed submit errored: %v", err)
		}
	}
}

// bootShard starts one real TCP shard server over a 3-vertex chain
// (0->1->2, one partition) and returns its address and a stop func.
func bootShard(t *testing.T) (string, func()) {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	pt, err := graph.Range().Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	srv := shard.NewServer(shard.New(0, subs[0]), 1, 3, 0, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		srv.Close()
		wg.Wait()
	}
}

// TestProxyForwardsKillsRevives: a clean proxy is transparent to the
// dial handshake and the request/response loop; Kill severs and
// refuses, Revive restores.
func TestProxyForwardsKillsRevives(t *testing.T) {
	addr, stop := bootShard(t)
	defer stop()
	px, err := NewProxy(addr, ProxyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	dial := shard.TCPReplicaDialer(0, px.Addr(), 1, 3, 0, 0)
	rep, err := dial(t.Context())
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	if err := submit(t, rep); err != nil {
		t.Fatalf("submit through proxy: %v", err)
	}

	px.Kill()
	// The live connection must die...
	deadline := time.Now().Add(10 * time.Second)
	for submit(t, rep) == nil {
		if time.Now().After(deadline) {
			t.Fatal("connection survived proxy Kill")
		}
		time.Sleep(time.Millisecond)
	}
	rep.Close()
	// ...and new dials must fail while killed.
	if fresh, err := dial(t.Context()); err == nil {
		fresh.Close()
		t.Fatal("dial succeeded through a killed proxy")
	}

	px.Revive()
	rep2, err := dial(t.Context())
	if err != nil {
		t.Fatalf("dial after Revive: %v", err)
	}
	defer rep2.Close()
	if err := submit(t, rep2); err != nil {
		t.Fatalf("submit after Revive: %v", err)
	}
}

// TestProxyCutsMidFrame: with CutProb=1 the very first frame (the
// server hello) is truncated mid-payload — the dialer must fail with a
// clean error, never hang or accept a short frame.
func TestProxyCutsMidFrame(t *testing.T) {
	addr, stop := bootShard(t)
	defer stop()
	px, err := NewProxy(addr, ProxyOptions{Seed: 9, CutProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	done := make(chan error, 1)
	go func() {
		rep, err := shard.TCPReplicaDialer(0, px.Addr(), 1, 3, 0, 0)(context.Background())
		if err == nil {
			rep.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake succeeded across a cut frame")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dial hung on a cut frame")
	}
}
