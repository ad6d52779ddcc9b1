package main

import (
	"testing"
	"time"

	"dsr/internal/wire"
)

const msec = time.Millisecond

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 10 * msec, End: 30 * msec}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 20 * msec},
		{"one child", []span{{Start: 12 * msec, End: 20 * msec}}, 12 * msec},
		{"parallel RPCs overlap", []span{{Start: 12 * msec, End: 20 * msec}, {Start: 13 * msec, End: 22 * msec}, {Start: 12 * msec, End: 18 * msec}}, 10 * msec},
		{"disjoint", []span{{Start: 11 * msec, End: 12 * msec}, {Start: 20 * msec, End: 25 * msec}}, 14 * msec},
		{"nested", []span{{Start: 12 * msec, End: 28 * msec}, {Start: 15 * msec, End: 16 * msec}}, 4 * msec},
		{"sticking out", []span{{Start: 5 * msec, End: 15 * msec}, {Start: 25 * msec, End: 40 * msec}}, 10 * msec},
		{"outside", []span{{Start: 0, End: 5 * msec}}, 20 * msec},
		{"covering", []span{{Start: 0, End: 50 * msec}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQueryStagesSumToTheQuery(t *testing.T) {
	q := span{Start: 1 * msec, End: 21 * msec}
	r := &roundTrace{span: span{Start: 3 * msec, End: 18 * msec}, rpcs: []span{
		{Start: 5 * msec, End: 11 * msec, Part: 0, Timing: wire.ServerTiming{Search: uint64(2 * msec)}},
		{Start: 6 * msec, End: 16 * msec, Part: 1, Timing: wire.ServerTiming{Decode: uint64(msec), Queue: uint64(msec), Search: uint64(4 * msec), Encode: uint64(msec)}},
	}}
	for name, rt := range map[string]*roundTrace{"round with RPCs": r, "round settled at assembly": {span: r.span}, "cache hit": nil} {
		st := queryStages(q, rt)
		var sum time.Duration
		for _, d := range st {
			sum += d
		}
		if sum != q.End-q.Start {
			t.Errorf("%s: stages sum to %v, query took %v", name, sum, q.End-q.Start)
		}
	}
	st := queryStages(q, r)
	// The blocking RPC is partition 1's: it replied last.
	want := [numStages]time.Duration{2 * msec, 2 * msec, 1 * msec, 3 * msec, msec, msec, 4 * msec, msec, 2 * msec, 3 * msec, 0}
	if st != want {
		t.Errorf("stages %v, want %v", st, want)
	}
}

// Rounds overlap as seen from outside (they queue on the engine lock),
// so RPCs are matched to the round that ends next after their last
// reply.
func TestAssembleLinksRPCsByRoundEnd(t *testing.T) {
	tr := newTracer(2)
	tr.rounds = []span{
		{Start: 0, End: 10 * msec},        // ran first
		{Start: 1 * msec, End: 20 * msec}, // waited for the lock, ran second
		{Start: 2 * msec, End: 21 * msec}, // settled at assembly: no RPCs
	}
	tr.rpcs = []span{
		{Start: 2 * msec, End: 8 * msec, Part: 0, Batch: 1}, {Start: 2 * msec, End: 9 * msec, Part: 1, Batch: 1},
		{Start: 11 * msec, End: 19 * msec, Part: 0, Batch: 2}, {Start: 11 * msec, End: 17 * msec, Part: 1, Batch: 2},
	}
	rounds := tr.assemble()
	got := []int{len(rounds[0].rpcs), len(rounds[1].rpcs), len(rounds[2].rpcs)}
	if got[0] != 2 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("RPCs per round %v, want [2 2 0]", got)
	}
	if rounds[0].rpcs[0].Batch != 1 || rounds[1].rpcs[0].Batch != 2 {
		t.Errorf("batches landed on the wrong rounds")
	}
	if d := selfTime(rounds[1].span, rounds[1].rpcs); d != 11*msec {
		t.Errorf("second round's self time %v, want 11ms (10 waiting + 1 after)", d)
	}
}
