package dsr

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
)

// TestTCPSingleReplicaFleetRecoversFromRestart: a coordinator over a 3×1
// fleet survives a shard restart like one over a replicated fleet does.
// While the shard is down its partition fails — as a *BatchError naming
// it, answers that did not need it still right — and once it is back on
// the same address the next rounds redial it and answer in full, with
// no reconnect of the engine; Health shows the redial. A shard that
// comes back built from a different graph stays refused.
func TestTCPSingleReplicaFleetRecoversFromRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	const n, k, victim = 200, 3, 1
	g := randomGraph(rng, n, 2)
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)

	// serve (re)starts partition p's server on addr, announcing graphSum
	// as its graph fingerprint, and returns where it listens and its stop.
	serve := func(p int, addr string, graphSum uint64) (string, func()) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := shard.NewServer(shard.New(p, subs[p]), k, n, graphSum, pt.Digest())
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		return ln.Addr().String(), func() { srv.Close(); <-served }
	}
	addrs := make([]string, k)
	stops := make([]func(), k)
	for p := range addrs {
		addrs[p], stops[p] = serve(p, "127.0.0.1:0", g.Fingerprint())
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	// Background redial off: every redial below is a round's own last
	// resort, so the test does not wait on a ticker.
	groups := make([][]string, k)
	for p, addr := range addrs {
		groups[p] = []string{addr}
	}
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

	var inVictim []graph.VertexID
	for v := 0; v < n && len(inVictim) < 3; v++ {
		if pt.Part[v] == victim {
			inVictim = append(inVictim, graph.VertexID(v))
		}
	}
	mkBatch := func() []Query {
		batch := []Query{{S: inVictim, T: randomSet(rng, n, 4)}}
		for i := 0; i < 8; i++ {
			batch = append(batch, Query{S: randomSet(rng, n, 4), T: randomSet(rng, n, 4)})
		}
		return batch
	}
	// round answers one batch and checks every answer the error does not
	// disown against the oracle.
	round := func() *BatchError {
		t.Helper()
		batch := mkBatch()
		got, err := e.QueryBatchErr(batch)
		var be *BatchError
		if err != nil && !errors.As(err, &be) {
			t.Fatalf("non-partial error: %v", err)
		}
		for i, q := range batch {
			if be != nil && be.Failed[i] {
				continue
			}
			if want := NaiveReach(g, q.S, q.T); got[i] != want {
				t.Fatalf("query %d: got %v, oracle %v (error: %v)", i, got[i], want, err)
			}
		}
		return be
	}
	// outage runs rounds until the victim's loss surfaces, which it must
	// do as exactly that one partition.
	outage := func() {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); ; {
			if be := round(); be != nil {
				if len(be.Partitions) != 1 || be.Partitions[0].Partition != victim {
					t.Fatalf("wrong dead partition set: %v", be)
				}
				var rse *shard.ReplicaSetError
				if !errors.As(be.Partitions[0].Err, &rse) || rse.Part != victim {
					t.Fatalf("partition error %v does not carry the replica set's detail", be)
				}
				if be.Failed[0] {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("partition loss never surfaced")
			}
		}
	}

	if be := round(); be != nil {
		t.Fatalf("healthy fleet errored: %v", be)
	}
	stops[victim]()
	outage()
	if h := e.Health()[victim]; h.Live != 0 || h.Failovers != 1 {
		t.Fatalf("health during the outage: %+v", h)
	}

	// Back on the same address, but from another graph: the redial runs
	// the handshake against the identity pinned at connect and refuses.
	_, stops[victim] = serve(victim, addrs[victim], g.Fingerprint()+1)
	outage()
	if h := e.Health()[victim]; h.Live != 0 || h.Redials == 0 {
		t.Fatalf("health after a wrong-graph restart: %+v", h)
	}
	stops[victim]()

	// Back for real: the next round redials and answers in full.
	_, stops[victim] = serve(victim, addrs[victim], g.Fingerprint())
	for i := 0; i < 3; i++ {
		if be := round(); be != nil {
			t.Fatalf("round %d after the restart: %v", i, be)
		}
	}
	for p, h := range e.Health() {
		if h.Live != 1 || h.Replicas != 1 {
			t.Errorf("health of partition %d after recovery: %+v", p, h)
		}
	}
	if h := e.Health()[victim]; h.Redials == 0 {
		t.Errorf("recovered without a redial on record: %+v", h)
	}
}
