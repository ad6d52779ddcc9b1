package dsr

import (
	"errors"
	"net"
	"strings"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
)

// TestTCPReplicaSummaryDigestRefused: two replicas of one partition that
// present the same deployment identity but ship different boundary
// summaries — what a replica of another build, summarizing differently,
// looks like — must never serve one coordinator together. At connect
// the fleet is refused with a *MismatchError on the summary digest
// (exit 3 in the binaries), whichever of the two the summary was
// fetched from; a replica that only shows up at a redial is refused
// there and kept dead, so a round that needs the partition fails with
// the reason instead of answering from summary edges it does not match,
// and the right replica brought back answers again.
func TestTCPReplicaSummaryDigestRefused(t *testing.T) {
	// Range partitions {0,1,2}, {3,4,5}, {6,7,8} of the chain 0 → … → 8.
	// The odd replica of partition 1 lacks the inner edge 4 → 5, so entry
	// 3 no longer reaches exit 5 and its summary differs.
	const n, k = 9, 3
	chain := func(skip int) *graph.Graph {
		b := graph.NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			if v != skip {
				b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
			}
		}
		return b.Build()
	}
	g, odd := chain(-1), chain(4)
	pt, err := graph.Range().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(sub *partition.Subgraph, p int, addr string) (string, func()) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := shard.NewServer(shard.New(p, sub), k, n, g.Fingerprint(), pt.Digest())
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		return ln.Addr().String(), func() { srv.Close(); <-served }
	}
	subs := partition.Extract(g, pt)
	addrs := make([]string, k)
	stops := make([]func(), k)
	for p := range addrs {
		addrs[p], stops[p] = serve(subs[p], p, "127.0.0.1:0")
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	oddSub := partition.ExtractOne(odd, pt, 1)
	oddAddr, stopOdd := serve(oddSub, 1, "127.0.0.1:0")
	if shard.New(1, oddSub).Summary().Digest() == shard.New(1, subs[1]).Summary().Digest() {
		t.Fatal("fixture: the odd replica ships the same summary")
	}

	for _, group := range []string{addrs[1] + "|" + oddAddr, oddAddr + "|" + addrs[1]} {
		var me *MismatchError
		_, err := Connect(t.Context(), ClusterSpec{Groups: []string{addrs[0], group, addrs[2]}})
		if !errors.As(err, &me) || me.Field != "summary digest" || me.PartA != 1 || me.PartB != 1 {
			t.Fatalf("partition 1 as %s: Connect = %v, want a summary-digest MismatchError on shard 1", group, err)
		}
	}

	// The odd replica is down at connect and comes up on its address
	// afterwards; redials are the rounds' own (no background loop).
	stopOdd()
	groups := [][]string{{addrs[0]}, {addrs[1], oddAddr}, {addrs[2]}}
	tr, err := shard.DialReplicated(t.Context(), groups, -1, 0, 0, shard.ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, -1, Options{})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	defer e.Close()
	_, stopOdd = serve(oddSub, 1, oddAddr)
	defer stopOdd()
	// 4 ⇝ 8 needs partition 1's own search: no other partition proves it.
	from4 := []Query{{S: []graph.VertexID{4}, T: []graph.VertexID{8}}}
	if got, err := e.QueryBatchErr(from4); err != nil || !got[0] {
		t.Fatalf("4 ⇝ 8 with the right replica serving: %v, %v; want true", got, err)
	}

	stops[1]()
	stops[1] = func() {}
	for round := 0; round < 3; round++ {
		got, err := e.QueryBatchErr(from4)
		var be *BatchError
		if !errors.As(err, &be) || len(be.Partitions) != 1 || be.Partitions[0].Partition != 1 || !be.Failed[0] {
			t.Fatalf("round %d with only the odd replica reachable: %v, %v; want partition 1 failed", round, got, err)
		}
		if !strings.Contains(err.Error(), "different summary") {
			t.Fatalf("round %d: %v does not name the summary refusal", round, err)
		}
		if h := e.Health()[1]; h.Live != 0 {
			t.Fatalf("round %d: partition 1 has %d live replicas, want the odd one kept dead", round, h.Live)
		}
	}

	addrs[1], stops[1] = serve(subs[1], 1, addrs[1])
	if got, err := e.QueryBatchErr(from4); err != nil || !got[0] {
		t.Fatalf("4 ⇝ 8 with the right replica back: %v, %v; want true", got, err)
	}
}
