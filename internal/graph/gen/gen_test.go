package gen

import (
	"math/rand"
	"testing"

	"dsr/internal/graph"
)

func TestPlantedShape(t *testing.T) {
	cfg := PlantedConfig{N: 4000, K: 4, IntraDeg: 6, InterDeg: 0.5, Seed: 1, Shuffle: true}
	g, truth, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != cfg.N || len(truth) != cfg.N {
		t.Fatalf("got %d vertices, truth %d, want %d", g.NumVertices(), len(truth), cfg.N)
	}
	// Expected edges: N*(IntraDeg+InterDeg) = 26000; allow 10% slack for
	// the stochastic rounding.
	want := float64(cfg.N) * (cfg.IntraDeg + cfg.InterDeg)
	if m := float64(g.NumEdges()); m < want*0.9 || m > want*1.1 {
		t.Errorf("edge count %v far from expectation %v", m, want)
	}
	// Communities are near-equal.
	sizes := make([]int, cfg.K)
	for _, c := range truth {
		sizes[c]++
	}
	for c, s := range sizes {
		if s < cfg.N/cfg.K-1 || s > cfg.N/cfg.K+1 {
			t.Errorf("community %d has %d members, want ~%d", c, s, cfg.N/cfg.K)
		}
	}
	// Count actual intra/inter edges: structure must be planted as
	// configured (inter edges are ~InterDeg/(IntraDeg+InterDeg) ≈ 7.7%).
	intra, inter := 0, 0
	g.Edges(func(u, v graph.VertexID) {
		if truth[u] == truth[v] {
			intra++
		} else {
			inter++
		}
	})
	if inter == 0 || intra < inter*8 {
		t.Errorf("intra=%d inter=%d: structure not planted as configured", intra, inter)
	}
	// No self-loops: both samplers reject them.
	g.Edges(func(u, v graph.VertexID) {
		if u == v {
			t.Fatalf("self-loop at %d", u)
		}
	})
}

func TestPlantedDeterministic(t *testing.T) {
	cfg := PlantedConfig{N: 500, K: 3, IntraDeg: 4, InterDeg: 1, Seed: 9, Shuffle: true}
	a, _, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same config produced different graphs")
	}
	c, _, err := Planted(PlantedConfig{N: 500, K: 3, IntraDeg: 4, InterDeg: 1, Seed: 10, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestPlantedUnshuffledIsContiguous(t *testing.T) {
	_, truth, err := Planted(PlantedConfig{N: 100, K: 4, IntraDeg: 2, InterDeg: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < len(truth); v++ {
		if truth[v] < truth[v-1] {
			t.Fatalf("unshuffled communities not contiguous at vertex %d", v)
		}
	}
}

func TestPlantedRejectsBadConfig(t *testing.T) {
	for _, cfg := range []PlantedConfig{
		{N: 10, K: 0},
		{N: -1, K: 2},
		{N: 3, K: 5},
		{N: 10, K: 2, IntraDeg: -1},
	} {
		if _, _, err := Planted(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Degenerate but valid: empty graph, single community.
	if g, _, err := Planted(PlantedConfig{N: 0, K: 1}); err != nil || g.NumVertices() != 0 {
		t.Errorf("empty graph: %v, %v", g, err)
	}
	if g, _, err := Planted(PlantedConfig{N: 5, K: 1, IntraDeg: 2}); err != nil || g.NumVertices() != 5 {
		t.Errorf("single community: %v, %v", g, err)
	}
}

// TestCommunityShape: the vertex count and edge budget asked for, and
// the same graph again from the same source.
func TestCommunityShape(t *testing.T) {
	const n = 2000
	g := Community(rand.New(rand.NewSource(9)), n, 8, 2.0, 0.1, 0.01)
	if g.NumVertices() != n {
		t.Fatalf("got %d vertices, want %d", g.NumVertices(), n)
	}
	if m := g.NumEdges(); m > int(2.1*n) || m < int(1.8*n) {
		t.Fatalf("got %d edges, want about %d (duplicates collapse)", m, int(2.1*n))
	}
	again := Community(rand.New(rand.NewSource(9)), n, 8, 2.0, 0.1, 0.01)
	if g.Fingerprint() != again.Fingerprint() {
		t.Fatal("same source, different graph")
	}
}
