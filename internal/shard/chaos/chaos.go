// Package chaos is the deterministic fault-injection harness for the
// DSR replication tests: seeded, reproducible faults at the two layers
// where a distributed deployment actually breaks.
//
//   - Faults wraps shard.Replica / shard.ReplicaDialer with per-submit
//     drops, delays, scripted kill/revive schedules, and manual kills —
//     the in-process harness that drives every failover path of the
//     replica-aware transport without a socket in sight.
//   - Proxy (proxy.go) sits between a coordinator and a real TCP shard
//     server and injects faults at frame granularity — delayed frames,
//     connections cut mid-frame, whole replicas killed and revived —
//     so the same failover paths are exercised over genuine TCP.
//
// All randomized decisions come from rngs derived from Options.Seed,
// one per (partition, replica) pair — decisions for a replica depend
// only on the seed and that replica's own submit sequence, never on
// how goroutines interleave globally, so a failing schedule replays.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dsr/internal/obs"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// Action is what a scripted Event does to its replica.
type Action uint8

const (
	// Kill marks the replica dead: submits fail and redials are refused
	// until a Revive.
	Kill Action = iota
	// Revive brings a killed replica back: redials succeed again.
	Revive
)

// Event is one scripted fault: when replica (Part, Replica) has
// handled After submits, Action fires. Scheduling on the replica's own
// submit count (not wall time) keeps schedules deterministic.
type Event struct {
	Part, Replica int
	After         int
	Action        Action
}

// Options configures a Faults injector.
type Options struct {
	// Seed derives every per-replica rng. Two injectors with the same
	// seed make identical decisions for identical submit sequences.
	Seed int64
	// DropProb is the per-submit probability that the submit fails with
	// an injected transport error instead of reaching the replica —
	// the mid-query send/recv failure the transport must retry on a
	// sibling.
	DropProb float64
	// DelayProb and MaxDelay inject latency: with probability
	// DelayProb a submit sleeps uniformly in (0, MaxDelay] first.
	DelayProb float64
	MaxDelay  time.Duration
	// Script is the deterministic kill/revive schedule.
	Script []Event
	// ProtectFirst exempts replica 0 of every partition from seeded
	// drops/delays and scripted kills. Differential suites use it to
	// guarantee one survivor per partition, which is exactly the regime
	// where failover must still produce oracle-identical answers.
	// Manual Kill is not exempted — tests that take a whole partition
	// down do it explicitly.
	ProtectFirst bool
	// Metrics, when non-nil, records every injected fault into the
	// registry: chaos_drops_total, chaos_delays_total, and
	// chaos_kills_total, each labeled {partition,replica}. Because every
	// decision is deterministic in (Seed, per-replica submit counts),
	// these counters are exactly reproducible — the differential test
	// replays a schedule and demands identical registries.
	Metrics *obs.Registry
}

// Faults injects deterministic faults into wrapped replicas. One
// Faults instance spans a whole deployment: per-replica state (submit
// counts, dead flags, script cursors) survives redials, so a replica
// the transport kills and re-dials keeps its place in the schedule.
type Faults struct {
	opts Options
	mu   sync.Mutex
	reps map[[2]int]*replicaFaults
}

type replicaFaults struct {
	rng     *rand.Rand
	submits int
	dead    bool
	script  []Event // this replica's events, in Script order
	next    int
	// Fault counters (nil without Options.Metrics; nil-safe no-ops).
	drops, delays, kills *obs.Counter
}

// New builds an injector from opts.
func New(opts Options) *Faults {
	return &Faults{opts: opts, reps: make(map[[2]int]*replicaFaults)}
}

func (f *Faults) state(part, replica int) *replicaFaults {
	key := [2]int{part, replica}
	rf := f.reps[key]
	if rf == nil {
		rf = &replicaFaults{
			rng:    rand.New(rand.NewSource(f.opts.Seed + int64(part)*1_000_003 + int64(replica)*7_919)),
			drops:  f.opts.Metrics.Counter(obs.Name("chaos_drops_total", "partition", part, "replica", replica)),
			delays: f.opts.Metrics.Counter(obs.Name("chaos_delays_total", "partition", part, "replica", replica)),
			kills:  f.opts.Metrics.Counter(obs.Name("chaos_kills_total", "partition", part, "replica", replica)),
		}
		for _, ev := range f.opts.Script {
			if ev.Part == part && ev.Replica == replica {
				rf.script = append(rf.script, ev)
			}
		}
		f.reps[key] = rf
	}
	return rf
}

// Kill manually marks a replica dead (submits fail, redials refused)
// until Revive. Unlike scripted kills, Kill applies even to replicas
// protected by ProtectFirst — taking a whole partition down is always
// an explicit act.
func (f *Faults) Kill(part, replica int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rf := f.state(part, replica)
	if !rf.dead {
		rf.kills.Inc()
	}
	rf.dead = true
}

// Revive reverses a Kill (manual or scripted).
func (f *Faults) Revive(part, replica int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.state(part, replica).dead = false
}

// Submits reports how many submits the replica has handled (across
// redials) — observability for tests.
func (f *Faults) Submits(part, replica int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state(part, replica).submits
}

// decide advances the replica's schedule by one submit and returns the
// injected delay and/or failure for it.
func (f *Faults) decide(part, replica int) (time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rf := f.state(part, replica)
	protected := f.opts.ProtectFirst && replica == 0
	for rf.next < len(rf.script) && rf.script[rf.next].After <= rf.submits {
		ev := rf.script[rf.next]
		rf.next++
		if ev.Action == Kill && protected {
			continue
		}
		if ev.Action == Kill && !rf.dead {
			rf.kills.Inc()
		}
		rf.dead = ev.Action == Kill
	}
	rf.submits++
	if rf.dead {
		return 0, fmt.Errorf("chaos: partition %d replica %d is killed", part, replica)
	}
	if protected {
		return 0, nil
	}
	var delay time.Duration
	if f.opts.DelayProb > 0 && rf.rng.Float64() < f.opts.DelayProb && f.opts.MaxDelay > 0 {
		delay = time.Duration(1 + rf.rng.Int63n(int64(f.opts.MaxDelay)))
		rf.delays.Inc()
	}
	if f.opts.DropProb > 0 && rf.rng.Float64() < f.opts.DropProb {
		rf.drops.Inc()
		return delay, fmt.Errorf("chaos: injected drop (partition %d replica %d submit %d)", part, replica, rf.submits)
	}
	return delay, nil
}

// dead reports whether the replica is currently killed, without
// advancing its schedule — the dialer's view.
func (f *Faults) isDead(part, replica int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state(part, replica).dead
}

// Replica wraps inner with this injector's faults for (part, replica).
func (f *Faults) Replica(part, replica int, inner shard.Replica) shard.Replica {
	return &chaosReplica{f: f, part: part, replica: replica, inner: inner}
}

// Dialer wraps inner: dials are refused while the replica is killed
// (so a reconnect loop cannot resurrect it until the schedule revives
// it), and the dialed replica is fault-wrapped.
func (f *Faults) Dialer(part, replica int, inner shard.ReplicaDialer) shard.ReplicaDialer {
	return func(ctx context.Context) (shard.Replica, error) {
		if f.isDead(part, replica) {
			return nil, fmt.Errorf("chaos: partition %d replica %d is killed (dial refused)", part, replica)
		}
		rep, err := inner(ctx)
		if err != nil {
			return nil, err
		}
		return f.Replica(part, replica, rep), nil
	}
}

type chaosReplica struct {
	f             *Faults
	part, replica int
	inner         shard.Replica
}

// Submit decides the batch's fate now — scripted schedules count
// submits — and acts on it after the injected delay, off the caller's
// goroutine: a Replica must not make its submitter wait.
func (cr *chaosReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(shard.Reply)) {
	delay, err := cr.f.decide(cr.part, cr.replica)
	time.AfterFunc(delay, func() {
		if err != nil {
			done(shard.Reply{Shard: cr.part, Err: err})
			return
		}
		cr.inner.Submit(h, tasks, done)
	})
}

// Summary fails only while the replica is killed; it deliberately does
// NOT run decide(). Scripted schedules are keyed on per-replica submit
// counts, and summary fetches happen at connect time — letting them
// advance the schedule would shift every subsequent scripted event by
// however many summary fetches the coordinator happened to make. A
// mid-fetch death is instead injected with a manual Kill.
func (cr *chaosReplica) Summary(ctx context.Context) (wire.Summary, error) {
	if cr.f.isDead(cr.part, cr.replica) {
		return wire.Summary{}, fmt.Errorf("chaos: partition %d replica %d is killed", cr.part, cr.replica)
	}
	return cr.inner.Summary(ctx)
}

func (cr *chaosReplica) Hello() wire.Hello { return cr.inner.Hello() }

func (cr *chaosReplica) Close() error { return cr.inner.Close() }
