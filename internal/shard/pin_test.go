package shard

import (
	"context"
	"strings"
	"testing"

	"dsr/internal/wire"
)

// TestReplicatedPinSweepsMismatches: Pin must kill currently-live
// replicas whose dial-time hello contradicts the pinned fleet identity,
// for each identity field, and keep matching replicas serving.
func TestReplicatedPinSweepsMismatches(t *testing.T) {
	probe := func(t *testing.T, r *Replicated) error {
		t.Helper()
		replyc := make(chan Reply, 1)
		r.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}, replyc)
		return (<-replyc).Err
	}
	cases := []struct {
		name    string
		pin     Expect
		wantErr string // "" means the fleet must keep serving
	}{
		{"matching pin keeps serving", Expect{NumVertices: 6, Graph: testGraphSum, Part: testPartSum}, ""},
		{"skipped fields keep serving", Expect{NumVertices: -1}, ""},
		{"vertex count mismatch", Expect{NumVertices: 5, Graph: testGraphSum, Part: testPartSum}, "vertices"},
		{"graph fingerprint mismatch", Expect{NumVertices: 6, Graph: testGraphSum + 1, Part: testPartSum}, "different graph"},
		{"partitioning digest mismatch", Expect{NumVertices: 6, Graph: testGraphSum, Part: testPartSum + 1}, "different partitioning"},
		{"summary digest mismatch", Expect{NumVertices: 6, Graph: testGraphSum, Part: testPartSum, Summaries: []uint64{1, 1, 1}}, "different summary"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shards, _ := chainFixture(t)
			addrs, stop := serveShards(t, shards, 6)
			defer stop()
			groups := make([][]string, len(addrs))
			for i, a := range addrs {
				groups[i] = []string{a}
			}
			r, err := DialReplicated(t.Context(), groups, 6, testGraphSum, testPartSum,
				ReplicatedOptions{ReconnectEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.Pin(c.pin)
			err = probe(t, r)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("fleet stopped serving after matching pin: %v", err)
				}
				return
			}
			// The sweep killed the replica, and the pinned identity also
			// blocks the in-query redial of the same server.
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("probe error = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestReplicatedPinExemptsLocalReplicas: in-process replicas present no
// handshake identity (hello NumShards == 0), so any pin leaves them
// alone.
func TestReplicatedPinExemptsLocalReplicas(t *testing.T) {
	shards, _ := chainFixture(t)
	groups := make([][]ReplicaDialer, len(shards))
	for p, sh := range shards {
		sh := sh
		groups[p] = []ReplicaDialer{func(context.Context) (Replica, error) {
			return NewLocalReplica(sh), nil
		}}
	}
	r, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Pin(Expect{NumVertices: 999, Graph: 1, Part: 1})
	replyc := make(chan Reply, 1)
	r.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}, replyc)
	if rep := <-replyc; rep.Err != nil {
		t.Fatalf("local replica killed by pin it is exempt from: %v", rep.Err)
	}
}
