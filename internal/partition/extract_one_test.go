package partition

import (
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
)

// extractReference is the k-way extraction this package had before
// Extract became a loop over ExtractOne, kept as ExtractOne's
// reference: one scan of the vertex set assigns every partition's local
// IDs, and two scans of the whole edge set — count, then fill — build
// every partition's CSR at once. It also returns the local-ID map. The
// reverse CSR it once built beside the forward one is left out: a
// Subgraph no longer has one. The boundary lists come from whole-graph
// marks computed the way the partitioners once did (boundaryMarks).
func extractReference(g *graph.Graph, pt *graph.Partitioning) ([]*Subgraph, []int32) {
	n := g.NumVertices()
	local := make([]int32, n)
	subs := make([]*Subgraph, pt.K)
	for p := range subs {
		subs[p] = &Subgraph{}
	}
	for v := 0; v < n; v++ {
		s := subs[pt.Part[v]]
		local[v] = int32(len(s.global))
		s.global = append(s.global, graph.VertexID(v))
	}
	for _, s := range subs {
		s.buildRank()
		s.foff = make([]int64, s.NumVertices()+1)
	}
	// Two passes over the edge set: count, then fill. Cross-partition
	// edges are collected (keyed by their source's partition) on the
	// count pass.
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			s.foff[local[u]+1]++
		} else {
			s := subs[pt.Part[u]]
			s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
		}
	})
	for _, s := range subs {
		for i := 1; i <= s.NumVertices(); i++ {
			s.foff[i] += s.foff[i-1]
		}
		s.fedges = make([]int32, s.foff[s.NumVertices()])
	}
	fcur := make([]int64, n)
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			lu, lv := local[u], local[v]
			s.fedges[s.foff[lu]+fcur[u]] = lv
			fcur[u]++
		}
	})
	entry, exit := boundaryMarks(g, pt)
	for v := 0; v < n; v++ {
		s := subs[pt.Part[v]]
		if entry[v] {
			s.Entries = append(s.Entries, local[v])
		}
		if exit[v] {
			s.Exits = append(s.Exits, local[v])
		}
	}
	return subs, local
}

// boundaryMarks is the single whole-graph edge scan that marked entry
// and exit vertices when a graph.Partitioning still carried the marks:
// u is an exit and v an entry for every edge u→v between partitions.
func boundaryMarks(g *graph.Graph, pt *graph.Partitioning) (entry, exit []bool) {
	entry, exit = make([]bool, g.NumVertices()), make([]bool, g.NumVertices())
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] != pt.Part[v] {
			exit[u], entry[v] = true, true
		}
	})
	return entry, exit
}

// TestExtractOneMatchesExtract differentially checks the single-
// partition extraction (what shard servers use, and what Extract loops
// over) against the k-way reference on randomized graphs: identical
// vertex sets, adjacency in the same order, boundary lists and
// cross-partition edges for every partition, and a Local that agrees
// with the reference's local-ID map on every vertex of the graph.
func TestExtractOneMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(80)
		b := graph.NewBuilder(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		k := 1 + rng.Intn(5)
		var pt *graph.Partitioning
		var err error
		if rng.Intn(2) == 0 {
			pt, err = graph.Hash().Partition(g, k)
		} else {
			pt, err = graph.Range().Partition(g, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		subs, local := extractReference(g, pt)
		for p := 0; p < k; p++ {
			one := ExtractOne(g, pt, p)
			want := subs[p]
			if !slices.Equal(one.global, want.global) {
				t.Fatalf("iter %d part %d: Global %v, want %v", iter, p, one.global, want.global)
			}
			for lv := int32(0); lv < int32(want.NumVertices()); lv++ {
				if !slices.Equal(one.Out(lv), want.Out(lv)) {
					t.Fatalf("iter %d part %d vertex %d: Out %v, want %v", iter, p, lv, one.Out(lv), want.Out(lv))
				}
			}
			if !slices.Equal(one.Entries, want.Entries) {
				t.Fatalf("iter %d part %d: Entries %v, want %v", iter, p, one.Entries, want.Entries)
			}
			if !slices.Equal(one.Exits, want.Exits) {
				t.Fatalf("iter %d part %d: Exits %v, want %v", iter, p, one.Exits, want.Exits)
			}
			if !samePairSet(one.Cross, want.Cross) {
				t.Fatalf("iter %d part %d: Cross %v, want %v", iter, p, one.Cross, want.Cross)
			}
			for v := 0; v < g.NumVertices(); v++ {
				lv, owned := one.Local(graph.VertexID(v))
				if wantOwned := pt.Part[v] == int32(p); owned != wantOwned || owned && lv != local[v] {
					t.Fatalf("iter %d part %d: Local(%d) = %d,%v, reference says %d,%v", iter, p, v, lv, owned, local[v], wantOwned)
				}
			}
		}
		if extracted := Extract(g, pt); len(extracted) != k {
			t.Fatalf("iter %d: Extract returned %d subgraphs, want %d", iter, len(extracted), k)
		}
	}
}

// samePairSet compares cross-edge lists as multisets: the reference
// collects them in global edge-scan order, ExtractOne per source vertex.
func samePairSet(a, b [][2]graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	cmp := func(x, y [2]graph.VertexID) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	}
	slices.SortFunc(as, cmp)
	slices.SortFunc(bs, cmp)
	return slices.Equal(as, bs)
}

// FuzzExtractOne holds ExtractOne to extractReference on small
// multigraphs and labellings decoded from the fuzz bytes: a 2-byte
// header — k, vertex count n — then one label byte per vertex (taken
// modulo k, so partitions may be empty), then one edge per byte pair,
// taken modulo n, so self-loops, multi-edges and isolated vertices all
// come up. Every partition must match the reference — global IDs, CSR,
// entries, exits and cross edges, in order — and SubgraphFromData over
// its Data must derive the same exits, with the cross edges in their
// own order and reversed.
func FuzzExtractOne(f *testing.F) {
	f.Add([]byte{1, 6, 0, 0, 1, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 0, 2, 2, 4, 5, 5, 4})
	f.Add([]byte{2, 5, 0, 1, 2, 1, 0, 0, 1, 0, 1, 1, 1, 3, 4, 4, 3})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, n := 1+int(data[0]%6), 1+int(data[1]%48)
		data = data[2:]
		pt := &graph.Partitioning{K: k, Part: make([]int32, n)}
		for v := 0; v < n && v < len(data); v++ {
			pt.Part[v] = int32(int(data[v]) % k)
		}
		b := graph.NewBuilder(n)
		for e := data[min(n, len(data)):]; len(e) >= 2; e = e[2:] {
			b.AddEdge(graph.VertexID(int(e[0])%n), graph.VertexID(int(e[1])%n))
		}
		g := b.Build()
		subs, _ := extractReference(g, pt)
		for p, want := range subs {
			one := ExtractOne(g, pt, p)
			switch {
			case !slices.Equal(one.global, want.global):
				t.Fatalf("part %d: Global %v, want %v", p, one.global, want.global)
			case !slices.Equal(one.foff, want.foff) || !slices.Equal(one.fedges, want.fedges):
				t.Fatalf("part %d: CSR %v %v, want %v %v", p, one.foff, one.fedges, want.foff, want.fedges)
			case !slices.Equal(one.Entries, want.Entries):
				t.Fatalf("part %d: Entries %v, want %v", p, one.Entries, want.Entries)
			case !slices.Equal(one.Exits, want.Exits):
				t.Fatalf("part %d: Exits %v, want %v", p, one.Exits, want.Exits)
			case !slices.Equal(one.Cross, want.Cross):
				t.Fatalf("part %d: Cross %v, want %v", p, one.Cross, want.Cross)
			}
			d := one.Data()
			for _, reversed := range []bool{false, true} {
				if reversed {
					d.Cross = slices.Clone(d.Cross)
					slices.Reverse(d.Cross)
				}
				back, err := SubgraphFromData(d)
				if err != nil {
					t.Fatalf("part %d (cross reversed: %v): SubgraphFromData: %v", p, reversed, err)
				}
				if !slices.Equal(back.Exits, one.Exits) {
					t.Fatalf("part %d (cross reversed: %v): derived Exits %v, want %v", p, reversed, back.Exits, one.Exits)
				}
			}
		}
	})
}
