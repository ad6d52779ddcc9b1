package dsr

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition"
	"dsr/internal/partition/locality"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// tamperTransport is a loopback fleet whose replies pass through tamper
// (when set) on their way to the coordinator: a shard build with a bug,
// or a frame corrupted into something that still decodes. A reply is
// copied first — its results alias the shard's own buffers.
type tamperTransport struct {
	*shard.Replicated
	tamper func(rep *shard.Reply)
}

func (t *tamperTransport) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- shard.Reply) {
	mid := make(chan shard.Reply, 1)
	t.Replicated.Submit(p, h, tasks, mid)
	rep := <-mid
	if t.tamper != nil {
		rep.Results = slices.Clone(rep.Results)
		for i := range rep.Results {
			rep.Results[i].Boundary = slices.Clone(rep.Results[i].Boundary)
		}
		t.tamper(&rep)
	}
	replyc <- rep
}

// loopbackShards partitions g and builds one shard per partition.
func loopbackShards(t testing.TB, g *graph.Graph, strat graph.Partitioner, k int) []*shard.Shard {
	t.Helper()
	pt, err := strat.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	shards := make([]*shard.Shard, k)
	for p := range shards {
		shards[p] = shard.New(p, subs[p])
	}
	return shards
}

// TestAbsorbRejectsTamperedReplies: what a shard reports is attributed
// by what it echoes, checked against what was asked, and a boundary
// ordinal is checked against the boundary the shard declared at
// connect. Every reply must echo the round's batch ID — a 0 is stale or
// corrupt, not a legacy peer (the hello refuses those). A reply that
// fails any of it poisons the round — an error and no answers, never a
// wrong answer — and the next clean round is answered correctly.
func TestAbsorbRejectsTamperedReplies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	const n, k = 300, 3
	g := gen.Community(rng, n, 4, 1.6, 0.1, 0.02)
	shards := loopbackShards(t, g, graph.Hash(), k)
	tr := &tamperTransport{Replicated: shard.NewLoopback(shards)}
	e, err := ConnectTransport(t.Context(), tr, k, n, Options{})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	defer e.Close()

	// Single-vertex sides in different hash partitions: no shard can see
	// a local hit, so every result's boundary is read.
	queries := make([]Query, 40)
	for i := range queries {
		src, dst := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		for graph.HashPartitionFunc(src, n, k) == graph.HashPartitionFunc(dst, n, k) {
			dst = graph.VertexID(rng.Intn(n))
		}
		queries[i] = Query{S: []graph.VertexID{src}, T: []graph.VertexID{dst}}
	}
	checkClean := func(when string) {
		t.Helper()
		got, err := e.QueryBatchErr(queries)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for i, q := range queries {
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("%s: query %d = %v, oracle %v", when, i, got[i], want)
			}
		}
	}
	checkClean("before tampering")

	// Results come two per query, Forward then Backward.
	onShard := func(p int, f func(res []wire.Result)) func(*shard.Reply) {
		return func(rep *shard.Reply) {
			if rep.Shard == p {
				f(rep.Results)
			}
		}
	}
	boundaryOf := func(p int) uint32 { return uint32(len(shards[p].Summary().Boundary)) }
	cases := []struct {
		name   string
		tamper func(*shard.Reply)
		want   string
	}{
		{"two queries' forward results swapped", onShard(1, func(res []wire.Result) {
			res[0], res[2] = res[2], res[0]
		}), "answered task 0 (kind 0, query 0) as kind 0, query 1"},
		{"one query's forward and backward results swapped", onShard(0, func(res []wire.Result) {
			res[4], res[5] = res[5], res[4]
		}), "answered task 4 (kind 0, query 2) as kind 1, query 2"},
		{"a result echoing a query past the batch", onShard(2, func(res []wire.Result) {
			res[7].Query = uint32(len(queries))
		}), "answered task 7 (kind 1, query 3) as kind 1, query 40"},
		{"an ordinal one past the partition's boundary", onShard(1, func(res []wire.Result) {
			res[3].Boundary = append(res[3].Boundary, boundaryOf(1))
		}), "reported boundary ordinal"},
		{"an ordinal past any boundary on every result", func(rep *shard.Reply) {
			for i := range rep.Results {
				rep.Results[i].Boundary = append(rep.Results[i].Boundary, ^uint32(0))
			}
		}, "reported boundary ordinal"},
		{"a reply echoing batch 0", func(rep *shard.Reply) {
			if rep.Shard == 2 {
				rep.Batch = 0
			}
		}, "echoed batch 0 during batch"},
	}
	for _, c := range cases {
		tr.tamper = c.tamper
		got, err := e.QueryBatchErr(queries)
		var be *BatchError
		if err == nil || errors.As(err, &be) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want a round-poisoning error containing %q", c.name, err, c.want)
		}
		if got != nil {
			t.Fatalf("%s: a poisoned round returned answers %v", c.name, got)
		}
		tr.tamper = nil
		checkClean("after " + c.name)
	}
}

// BenchmarkAbsorb times the coordinator merging one partition's reply
// into a round's per-query state — the serial work under the engine
// lock, per partition per round — on 64-query rounds of the benchmark
// graph: under hash, where replies are long boundary lists, and under
// locality, where most of a reply is Owned counts. One op absorbs
// partition 0's replies to 16 different rounds, so that the gate's
// short runs time the merge and not the clock; ns/reply and ns/ordinal
// (per boundary entry carried) divide it out.
func BenchmarkAbsorb(b *testing.B) {
	g, n := benchGraph()
	const k, batch, rounds = 3, 64, 16
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		shards := loopbackShards(b, g, strat, k)
		lb := shard.NewLoopback(shards)
		e, err := ConnectTransport(b.Context(), lb, k, n, Options{})
		if err != nil {
			lb.Close()
			b.Fatal(err)
		}
		<-e.labelsDone // the background label build allocates: not inside the timed loop
		// A real round leaves its tasks behind; partition 0 answers them
		// once more, outside the engine, for a reply of the real shape.
		// absorb reads nothing of a task but its kind and query, so the
		// copies may outlive the seed arena they alias.
		type captured struct {
			tasks []wire.Task
			rep   shard.Reply
		}
		rng := rand.New(rand.NewSource(batch))
		caps := make([]captured, rounds)
		ordinals := 0
		for r := range caps {
			queries := make([]Query, batch)
			for i := range queries {
				queries[i] = Query{S: randomSet(rng, n, 16), T: randomSet(rng, n, 16)}
			}
			e.QueryBatch(queries)
			caps[r].tasks = slices.Clone(e.r.tasks)
			for _, res := range shards[0].Run(e.r.tasks) {
				res.Boundary = slices.Clone(res.Boundary)
				caps[r].rep.Results = append(caps[r].rep.Results, res)
				ordinals += len(res.Boundary)
			}
		}
		for r := range caps { // absorb holds every reply to the current batch ID
			caps[r].rep.Batch = e.r.batchID
		}
		b.Run(strat.Name(), func(b *testing.B) {
			pass := func() {
				for r := range caps {
					e.r.tasks = caps[r].tasks
					for j := range e.r.qs[:batch] {
						st := &e.r.qs[j]
						st.seeds, st.goals, st.hit = st.seeds[:0], st.goals[:0], false
					}
					if err := e.absorb(&caps[r].rep); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass() // grow every seed and goal list to its steady size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/rounds, "ns/reply")
			b.ReportMetric(ns/float64(max(ordinals, 1)), "ns/ordinal")
		})
		e.Close()
	}
}
