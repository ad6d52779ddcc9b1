package shard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dsr/internal/wire"
)

// helloReplica is an in-process replica that presents a handshake
// identity, as a dialed TCP one does.
type helloReplica struct {
	Replica
	hello wire.Hello
}

func (r helloReplica) Hello() wire.Hello { return r.hello }

// chainHello is the hello partition p of the chain fixture presents.
func chainHello(shards []*Shard, p int) wire.Hello {
	return wire.Hello{ShardID: uint32(p), NumShards: uint32(len(shards)), NumVertices: 6,
		Graph: testGraphSum, Partitioning: testPartSum, SummaryDigest: shards[p].Summary().Digest()}
}

// probe submits one task to partition p and returns the Reply's error.
func probe(r *Replicated, p int) error {
	replyc := make(chan Reply, 1)
	r.Submit(p, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{int32(2 * p)}}}, replyc)
	return (<-replyc).Err
}

// TestReplicatedPinSweepsMismatches: construction takes the fleet
// identity from the live replicas' hellos and holds every live replica
// to it. In a 3×2 fleet of the chain fixture, partition 1's second
// replica is given a hello that disagrees on one identity field per
// case: construction fails with a *MismatchError naming that field,
// against shard 0 (where the identity came from) or, for the summary
// digest, against the sibling. A matching fleet — zero fingerprints
// and digests skipping their checks — serves. The same replica down at
// construction is refused at its redial and stays dead.
func TestReplicatedPinSweepsMismatches(t *testing.T) {
	shards, _ := chainFixture(t)
	cases := []struct {
		name  string
		odd   func(*wire.Hello)
		field string // "" means the fleet must serve
		partA int
	}{
		{name: "matching pin keeps serving", odd: func(*wire.Hello) {}},
		{name: "skipped fields keep serving", odd: func(h *wire.Hello) { h.Graph, h.Partitioning, h.SummaryDigest = 0, 0, 0 }},
		{name: "vertex count mismatch", odd: func(h *wire.Hello) { h.NumVertices = 5 }, field: "vertex count"},
		{name: "graph fingerprint mismatch", odd: func(h *wire.Hello) { h.Graph++ }, field: "graph fingerprint"},
		{name: "partitioning digest mismatch", odd: func(h *wire.Hello) { h.Partitioning++ }, field: "partitioning digest"},
		{name: "summary digest mismatch", odd: func(h *wire.Hello) { h.SummaryDigest++ }, field: "summary digest", partA: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oddHello := chainHello(shards, 1)
			c.odd(&oddHello)
			// oddUp gates the odd replica's dialer: down, it fails to dial.
			oddUp := true
			groups := make([][]ReplicaDialer, len(shards))
			for p, sh := range shards {
				for i := 0; i < 2; i++ {
					h, odd := chainHello(shards, p), p == 1 && i == 1
					if odd {
						h = oddHello
					}
					groups[p] = append(groups[p], func(context.Context) (Replica, error) {
						if odd && !oddUp {
							return nil, errors.New("down")
						}
						return helloReplica{NewLocalReplica(sh), h}, nil
					})
				}
			}
			r, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
			if c.field == "" {
				if err != nil {
					t.Fatalf("matching fleet refused: %v", err)
				}
				defer r.Close()
				for p := range shards {
					if err := probe(r, p); err != nil {
						t.Fatalf("partition %d: %v", p, err)
					}
				}
				return
			}
			var me *MismatchError
			if !errors.As(err, &me) || me.Field != c.field || me.PartA != c.partA || me.PartB != 1 {
				t.Fatalf("construction = %v, want a %s MismatchError between shards %d and 1", err, c.field, c.partA)
			}
			if !strings.Contains(err.Error(), "fleet mismatch") {
				t.Fatalf("%v does not name the fleet mismatch", err)
			}

			// Down at construction, the odd replica is held to the
			// identity at its redial and kept dead.
			oddUp = false
			r, err = NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			oddUp = true
			r.sets[1].redial(t.Context(), nil)
			if h := r.Health()[1]; h.Live != 1 || h.Redials != 1 {
				t.Fatalf("after the odd replica's redial: %+v, want it kept dead", h)
			}
			if err := r.sets[1].allFailed().Replicas[1].Err; !errors.As(err, &me) || me.Field != c.field {
				t.Fatalf("odd replica's error %v, want a %s MismatchError", err, c.field)
			}
		})
	}
}

// TestReplicatedPinExemptsLocalReplicas: in-process replicas present no
// handshake identity (hello NumShards == 0), so they neither set the
// fleet identity nor are held to it, beside replicas that do.
func TestReplicatedPinExemptsLocalReplicas(t *testing.T) {
	shards, _ := chainFixture(t)
	groups := make([][]ReplicaDialer, len(shards))
	for p, sh := range shards {
		groups[p] = []ReplicaDialer{
			func(context.Context) (Replica, error) { return NewLocalReplica(sh), nil },
			func(context.Context) (Replica, error) {
				return helloReplica{NewLocalReplica(sh), chainHello(shards, p)}, nil
			},
		}
	}
	r, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for p := range shards {
		if err := probe(r, p); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
}

// TestReplicatedSummaryRefusesUnannouncedDigest: a replica whose summary
// is not the one its hello announced is refused by Summary like a
// failed fetch, so a coordinator never stitches a summary the fleet
// identity does not vouch for.
func TestReplicatedSummaryRefusesUnannouncedDigest(t *testing.T) {
	shards, _ := chainFixture(t)
	groups := make([][]ReplicaDialer, len(shards))
	for p, sh := range shards {
		h := chainHello(shards, p)
		if p == 0 {
			h.SummaryDigest++
		}
		groups[p] = []ReplicaDialer{func(context.Context) (Replica, error) { return helloReplica{NewLocalReplica(sh), h}, nil }}
	}
	r, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Summary(t.Context(), 0); err == nil || !strings.Contains(err.Error(), "announced") {
		t.Fatalf("summary of partition 0 = %v, want a refusal naming the announced digest", err)
	}
	if _, err := r.Summary(t.Context(), 1); err != nil {
		t.Fatalf("summary of partition 1: %v", err)
	}
}
