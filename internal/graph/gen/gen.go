// Package gen generates synthetic graphs with known structure for
// benchmarks and partitioner-quality tests. The planted-partition model
// produces graphs with K ground-truth communities: dense inside, sparse
// between. Uniform-random graphs (the existing benchmark workload) show
// ~0 difference between partitioners by construction — every
// partitioning of a structureless graph cuts the same expected number
// of edges — so community structure is what makes partitioner quality
// measurable at all. The rank-oriented community model (Community) adds
// direction: mostly acyclic, so reachability is not trivially true.
package gen

import (
	"fmt"
	"math/rand"

	"dsr/internal/graph"
)

// PlantedConfig describes a planted-partition graph.
type PlantedConfig struct {
	// N is the vertex count, K the number of planted communities
	// (near-equal sizes).
	N, K int
	// IntraDeg and InterDeg are the expected out-degrees of each vertex
	// within its own community and toward other communities. IntraDeg >>
	// InterDeg plants recoverable structure.
	IntraDeg, InterDeg float64
	// Seed makes generation deterministic.
	Seed int64
	// Shuffle scatters community membership across the vertex-ID space.
	// Without it communities are contiguous ID ranges — which a range
	// partitioner solves by accident. With it, recovering the structure
	// requires actually looking at the edges.
	Shuffle bool
}

// Planted generates a planted-partition graph and returns it along with
// the ground-truth community of every vertex. Deterministic for a fixed
// config.
func Planted(cfg PlantedConfig) (*graph.Graph, []int32, error) {
	if cfg.N < 0 || cfg.K < 1 {
		return nil, nil, fmt.Errorf("gen: bad planted config N=%d K=%d", cfg.N, cfg.K)
	}
	if cfg.K > 1 && cfg.N < cfg.K {
		return nil, nil, fmt.Errorf("gen: N=%d smaller than K=%d communities", cfg.N, cfg.K)
	}
	if cfg.IntraDeg < 0 || cfg.InterDeg < 0 {
		return nil, nil, fmt.Errorf("gen: negative degree in config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := make([]int32, cfg.N)
	if cfg.Shuffle {
		// Assign communities round-robin over a random permutation:
		// near-equal sizes, scattered IDs.
		for i, v := range rng.Perm(cfg.N) {
			truth[v] = int32(i % cfg.K)
		}
	} else {
		for v := range truth {
			truth[v] = graph.RangePartitionFunc(graph.VertexID(v), cfg.N, cfg.K)
		}
	}
	members := make([][]graph.VertexID, cfg.K)
	for v, c := range truth {
		members[c] = append(members[c], graph.VertexID(v))
	}

	b := graph.NewBuilder(cfg.N)
	// sample rounds d to an integer stochastically, preserving the
	// expectation for fractional degrees.
	sample := func(d float64) int {
		m := int(d)
		if rng.Float64() < d-float64(m) {
			m++
		}
		return m
	}
	for v := 0; v < cfg.N; v++ {
		c := truth[v]
		own := members[c]
		for i := sample(cfg.IntraDeg); i > 0 && len(own) > 1; i-- {
			w := own[rng.Intn(len(own))]
			for w == graph.VertexID(v) {
				w = own[rng.Intn(len(own))]
			}
			b.AddEdge(graph.VertexID(v), w)
		}
		if cfg.K > 1 {
			for i := sample(cfg.InterDeg); i > 0; i-- {
				// Rejection-sample a vertex outside v's community; with
				// near-equal communities this takes ~K/(K-1) draws.
				w := graph.VertexID(rng.Intn(cfg.N))
				for truth[w] == c {
					w = graph.VertexID(rng.Intn(cfg.N))
				}
				b.AddEdge(graph.VertexID(v), w)
			}
		}
	}
	return b.Build(), truth, nil
}

// Community generates a rank-oriented community graph: vertices fall
// into scattered communities, ~intra edges per vertex stay inside one
// and ~uniform go anywhere, and every edge points from lower to higher
// random rank except a back fraction. Unlike a uniform or planted
// random graph, which collapses into one strongly connected giant, it
// is mostly acyclic with a few non-trivial components — false answers
// exist and cost a full closure — and a locality partitioner finds a
// small boundary in it while hashing makes nearly every vertex boundary.
func Community(rng *rand.Rand, n, communities int, intra, uniform, back float64) *graph.Graph {
	order, rank := rng.Perm(n), rng.Perm(n)
	per := (n + communities - 1) / communities
	b := graph.NewBuilder(n)
	add := func(u, v int) {
		if (rank[u] > rank[v]) != (rng.Float64() < back) {
			u, v = v, u
		}
		b.AddEdge(graph.VertexID(u), graph.VertexID(v))
	}
	for i := 0; i < int(intra*float64(n)); i++ {
		pos := rng.Intn(n)
		lo := pos / per * per
		add(order[pos], order[lo+rng.Intn(min(per, n-lo))])
	}
	for i := 0; i < int(uniform*float64(n)); i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}
