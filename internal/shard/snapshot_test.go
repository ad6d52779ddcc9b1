package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/snapshot"
	"dsr/internal/wire"
)

// TestShardSnapshotRoundTrip: a shard reconstituted from its own
// snapshot is behaviorally identical to the freshly built one — same
// wire summary (byte for byte) and same Run results on a randomized
// task stream.
func TestShardSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const n, k = 150, 3
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	g := b.Build()
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < k; id++ {
		fresh := New(id, partition.ExtractOne(g, pt, id))
		sn := fresh.Snapshot(k, n, g.Fingerprint(), pt.Digest())
		buf, err := snapshot.Encode(sn)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snapshot.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		restored := FromSnapshot(dec)

		if restored.ID() != fresh.ID() || restored.NumVertices() != fresh.NumVertices() {
			t.Fatalf("shard %d: identity changed: %d/%d -> %d/%d",
				id, fresh.ID(), fresh.NumVertices(), restored.ID(), restored.NumVertices())
		}
		// The summary derived on load must match what a fresh build
		// emits — on the wire, not just semantically.
		a := wire.AppendSummary(nil, fresh.Summary())
		bb := wire.AppendSummary(nil, restored.Summary())
		if !reflect.DeepEqual(a, bb) {
			t.Fatalf("shard %d: encoded summary differs after snapshot round trip", id)
		}

		for q := 0; q < 40; q++ {
			task := wire.Task{
				Kind:  wire.Forward,
				Query: uint32(q),
				Seeds: []int32{int32(rng.Intn(n)), int32(rng.Intn(n))},
			}
			if q%2 == 1 {
				task.Kind = wire.Backward
			}
			if q%3 == 0 {
				task.Targets = []int32{int32(rng.Intn(n))}
			}
			ra := fresh.Run([]wire.Task{task})
			rb := restored.Run([]wire.Task{task})
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("shard %d task %d: Run differs:\nfresh:    %+v\nrestored: %+v", id, q, ra, rb)
			}
		}
	}
}
