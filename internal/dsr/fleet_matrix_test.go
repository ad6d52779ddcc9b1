package dsr

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// slowReplica delays every batch by a fixed amount — a deterministic
// straggler, unlike chaos's seeded delays.
type slowReplica struct {
	inner shard.Replica
	d     time.Duration
}

func (s *slowReplica) Run(h wire.BatchHeader, tasks []wire.Task) shard.Reply {
	time.Sleep(s.d)
	return s.inner.Run(h, tasks)
}
func (s *slowReplica) Summary(ctx context.Context) (wire.Summary, error) { return s.inner.Summary(ctx) }
func (s *slowReplica) Hello() wire.Hello                                 { return s.inner.Hello() }
func (s *slowReplica) Close() error                                      { return s.inner.Close() }

// fleetCell is one cell of the ownership matrix: a hash-partitioned
// k × R fleet of in-process or TCP replicas whose first replica of every
// partition — the one rounds land on while it is idle — is a
// deterministic straggler (the only replica, when R = 1).
type fleetCell struct {
	tcp bool
	R   int
}

func (c fleetCell) String() string {
	kind := map[bool]string{false: "in-process", true: "tcp"}[c.tcp]
	return fmt.Sprintf("%s/R=%d", kind, c.R)
}

const cellStraggle = 15 * time.Millisecond

// open stands the cell's fleet up over g and connects an engine to it
// through the exported ConnectTransport hook, transport and engine
// sharing reg.
func (c fleetCell) open(t *testing.T, g *graph.Graph, k int, reg *obs.Registry) *Engine {
	t.Helper()
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := partition.Extract(g, pt)
	groups := make([][]shard.ReplicaDialer, k)
	for p := 0; p < k; p++ {
		for r := 0; r < c.R; r++ {
			sh := shard.New(p, subs[p])
			dial := func(context.Context) (shard.Replica, error) { return shard.NewLocalReplica(sh), nil }
			if c.tcp {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := shard.NewServer(sh, k, g.NumVertices(), g.Fingerprint(), pt.Digest())
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				dial = shard.TCPReplicaDialer(p, ln.Addr().String(), k, g.NumVertices(), g.Fingerprint(), pt.Digest())
			}
			if r == 0 { // the primary: rounds land on the first idle replica
				fast := dial
				dial = func(ctx context.Context) (shard.Replica, error) {
					rep, err := fast(ctx)
					if err != nil {
						return nil, err
					}
					return &slowReplica{inner: rep, d: cellStraggle}, nil
				}
			}
			groups[p] = append(groups[p], dial)
		}
	}
	tr, err := shard.NewReplicated(t.Context(), groups, shard.ReplicatedOptions{ReconnectEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ConnectTransport(t.Context(), tr, k, g.NumVertices(), Options{Metrics: reg})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// fixedPointReach is the second oracle: the reachable set grown to its
// fixed point by relaxing every edge until a pass adds nothing — no
// queue, no frontier, nothing shared with NaiveReach's BFS.
func fixedPointReach(g *graph.Graph, S, T []graph.VertexID) bool {
	in := func(v graph.VertexID) bool { return int(v) < g.NumVertices() }
	reach := make([]bool, g.NumVertices())
	for _, s := range S {
		if in(s) {
			reach[s] = true
		}
	}
	for grew := true; grew; {
		grew = false
		g.Edges(func(u, v graph.VertexID) {
			if reach[u] && !reach[v] {
				reach[v], grew = true, true
			}
		})
	}
	return slices.ContainsFunc(T, func(t graph.VertexID) bool { return in(t) && reach[t] })
}

// transposed returns g with every edge reversed.
func transposed(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	g.Edges(func(u, v graph.VertexID) { b.AddEdge(v, u) })
	return b.Build()
}

// TestFleetMatrixDifferential judges the transport's ownership rules by
// answers: R ∈ {1, 2, 3} × in-process and TCP replicas, one straggler
// per partition — its first replica, the one rounds land on while it is
// idle, and which they wait for — every round checked against two
// independent oracles (BFS and edge relaxation to a fixed point) and two
// properties that need none — union, Q(S₁∪S₂, T) = Q(S₁, T) ∨ Q(S₂, T),
// and transpose, Q(S, T) on G = Q(T, S) on Gᵀ through a second fleet of
// the same cell. A clean run must leave the failover books untouched.
func TestFleetMatrixDifferential(t *testing.T) {
	const k, n, rounds, batch = 3, 80, 12, 6
	for _, tcp := range []bool{false, true} {
		for _, R := range []int{1, 2, 3} {
			cell := fleetCell{tcp: tcp, R: R}
			t.Run(cell.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(20260927))
				g := randomGraph(rng, n, 2)
				gT := transposed(g)
				e, eT := cell.open(t, g, k, obs.NewRegistry()), cell.open(t, gT, k, nil)

				for round := 0; round < rounds; round++ {
					// Queries in threes: S₁, S₂ and their union against one T.
					queries, flipped := make([]Query, batch), make([]Query, batch)
					for i := 0; i < batch; i += 3 {
						s1, s2, tt := randomSet(rng, n, 3), randomSet(rng, n, 3), randomSet(rng, n, 4)
						queries[i], queries[i+1] = Query{S: s1, T: tt}, Query{S: s2, T: tt}
						queries[i+2] = Query{S: slices.Concat(s1, s2), T: tt}
					}
					for i, q := range queries {
						flipped[i] = Query{S: q.T, T: q.S}
					}
					got, err := e.QueryBatchErr(queries)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					gotT, err := eT.QueryBatchErr(flipped)
					if err != nil {
						t.Fatalf("round %d on the transpose: %v", round, err)
					}
					for i, q := range queries {
						if bfs, fix := NaiveReach(g, q.S, q.T), fixedPointReach(g, q.S, q.T); got[i] != bfs || got[i] != fix {
							t.Fatalf("round %d query %d: got %v, BFS oracle %v, fixed-point oracle %v (S=%v T=%v)", round, i, got[i], bfs, fix, q.S, q.T)
						}
						if gotT[i] != got[i] {
							t.Fatalf("round %d query %d: %v on G, %v flipped on the transpose (S=%v T=%v)", round, i, got[i], gotT[i], q.S, q.T)
						}
					}
					for i := 0; i < batch; i += 3 {
						if got[i+2] != (got[i] || got[i+1]) {
							t.Fatalf("round %d: Q(S1,T)=%v, Q(S2,T)=%v, Q(S1∪S2,T)=%v", round, got[i], got[i+1], got[i+2])
						}
					}
				}

				for _, h := range e.Health() {
					if h.Live != R || h.Retries != 0 || h.Failovers != 0 || h.Redials != 0 {
						t.Errorf("a clean run moved the failover books: %+v", h)
					}
				}
			})
		}
	}
}
