// Package workload generates everything the benchmark feeds the
// programs under test — the graph, the query streams, the arrival
// schedule — as pure functions of a seed. The programs themselves see
// only the edge-list file and query lines.
package workload

import (
	"math/rand/v2"

	"dsr/internal/graph"
)

// GraphSpec fixes the shape of the benchmark graph: a community DAG
// with back edges. Vertices belong to shuffled communities (so neither
// vertex IDs nor a hash of them reveal community), edges mostly stay
// inside a community, and every edge points from lower to higher
// random rank except a BackShare fraction that points backwards.
//
// Why not gen.Planted: its graphs collapse into one giant SCC — every
// query answers true and shard-local search is O(1). Here the rank
// orientation keeps the graph mostly acyclic (about a third of random
// set queries are reachable), the back edges create non-trivial SCCs,
// and the community structure gives a locality partitioner a small
// boundary to find while hash partitioning makes ~every vertex
// boundary — the two regimes the benchmark compares.
type GraphSpec struct {
	N           int     // vertices
	Communities int     // communities, near-equal size
	IntraDeg    float64 // intra-community edges per vertex
	UniformDeg  float64 // uniform (any-to-any) edges per vertex
	BackShare   float64 // fraction of edges oriented high→low rank
}

// Default is the benchmark's graph family.
var Default = GraphSpec{N: 200_000, Communities: 16, IntraDeg: 2.5, UniformDeg: 0.05, BackShare: 0.01}

// Streams keep the generator's consumers independent: adding draws to
// one never shifts another's sequence.
const (
	streamGraph = iota + 1
	streamQueries
	streamPool
	streamArrivals
	streamSample
)

func rng(seed uint64, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Graph builds the spec's graph for seed.
func (s GraphSpec) Graph(seed uint64) *graph.Graph {
	r := rng(seed, streamGraph)
	// order[i] is the vertex at shuffled position i; position decides
	// community, so communities are scattered across the ID space.
	order := r.Perm(s.N)
	rank := r.Perm(s.N)
	per := (s.N + s.Communities - 1) / s.Communities

	b := graph.NewBuilder(s.N)
	add := func(u, v int) {
		if u == v {
			return
		}
		if (rank[u] > rank[v]) != (r.Float64() < s.BackShare) {
			u, v = v, u
		}
		b.AddEdge(graph.VertexID(u), graph.VertexID(v))
	}
	for i := 0; i < int(s.IntraDeg*float64(s.N)); i++ {
		pos := r.IntN(s.N)
		lo := pos / per * per
		hi := min(lo+per, s.N)
		add(order[pos], order[lo+r.IntN(hi-lo)])
	}
	for i := 0; i < int(s.UniformDeg*float64(s.N)); i++ {
		add(r.IntN(s.N), r.IntN(s.N))
	}
	return b.Build()
}
