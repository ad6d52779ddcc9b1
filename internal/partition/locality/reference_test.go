package locality

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
)

// The full-scan phases below are the partitioner before its phases
// learned to skip clean vertices, kept verbatim (renamed only) as the
// reference TestPartitionMatchesReference holds the product to: every
// vertex re-evaluated every round and pass, inter-cluster weights in a
// cluster-pair map.

// TestPartitionMatchesReference: skipping clean vertices and packing
// from adjacency rows must not change a single label. The cases mix
// community, planted and uniform multigraphs (self-loops included), and
// Balance 1.001 makes capacity crossings — the path that dirties every
// vertex at once — routine.
func TestPartitionMatchesReference(t *testing.T) {
	const cases = 1200
	rng := rand.New(rand.NewSource(20261015))
	balances := []float64{1.001, 1.02, 1.15, 1.6}
	refinePasses := []int{-1, 0, 1, 3, 10}
	for i := 0; i < cases; i++ {
		n := 1 + rng.Intn(1500)
		var g *graph.Graph
		var kind string
		switch i % 3 {
		case 0:
			kind = "community"
			g = gen.Community(rand.New(rand.NewSource(rng.Int63())), n, 1+rng.Intn(12),
				1+3*rng.Float64(), 0.2*rng.Float64(), 0.05*rng.Float64())
		case 1:
			kind = "planted"
			var err error
			g, _, err = gen.Planted(gen.PlantedConfig{
				N: n, K: 1 + rng.Intn(min(n, 10)), IntraDeg: 1 + 5*rng.Float64(),
				InterDeg: rng.Float64(), Seed: rng.Int63(), Shuffle: true,
			})
			if err != nil {
				t.Fatal(err)
			}
		default:
			kind = "uniform"
			b := graph.NewBuilder(n)
			for e := rng.Intn(4 * n); e > 0; e-- {
				u := graph.VertexID(rng.Intn(n))
				v := u // a self-loop one time in ten, multi-edges by chance
				if rng.Intn(10) > 0 {
					v = graph.VertexID(rng.Intn(n))
				}
				b.AddEdge(u, v)
			}
			g = b.Build()
		}
		k := 2 + rng.Intn(7)
		opts := Options{
			Seed:         rng.Int63(),
			Rounds:       1 + rng.Intn(12),
			Balance:      balances[rng.Intn(len(balances))],
			RefinePasses: refinePasses[rng.Intn(len(refinePasses))],
		}
		pt, err := Partition(g, k, opts)
		if err != nil {
			t.Fatalf("case %d (%s, n=%d, k=%d, %+v): %v", i, kind, n, k, opts, err)
		}
		if want := referencePart(g, k, opts); !slices.Equal(pt.Part, want) {
			t.Fatalf("case %d (%s, n=%d, k=%d, %+v): labels differ from the full-scan reference", i, kind, n, k, opts)
		}
	}

	// The benchmark-scale instance, pinned at the digest the full-scan
	// partitioner gave it: a change of placement here changes every
	// locality shard's handshake identity.
	g := gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	pt, err := Partition(g, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#x", pt.Digest()), "0x8986814a51360d87"; got != want {
		t.Fatalf("200k community graph, k=3, seed 1: digest %s, want %s", got, want)
	}
}

// FuzzPartitionMatchesReference holds Partition to the full-scan
// reference on small multigraphs decoded from the fuzz bytes: a 6-byte
// header — k, seed, rounds, balance, refine passes, vertex count — then
// one edge per byte pair, taken modulo the vertex count, so self-loops,
// multi-edges and isolated vertices all come up. Balances sit just
// above 1, where capacity crossings are routine.
func FuzzPartitionMatchesReference(f *testing.F) {
	f.Add([]byte{1, 7, 3, 0, 2, 11, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3, 7, 7, 0, 1})
	f.Add([]byte{3, 1, 11, 255, 4, 40, 0, 1, 0, 1, 1, 0, 9, 9, 9, 30, 30, 9, 12, 13, 13, 14, 14, 12, 20, 21})
	f.Add([]byte{0, 42, 0, 10, 0, 5, 0, 0, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		k := 2 + int(data[0]%7)
		opts := Options{
			Seed:         int64(data[1]),
			Rounds:       1 + int(data[2]%12),
			Balance:      1 + float64(1+int(data[3]))/1024,
			RefinePasses: int(data[4]%12) - 1,
		}
		n := 1 + int(data[5]%64)
		b := graph.NewBuilder(n)
		for e := data[6:]; len(e) >= 2; e = e[2:] {
			b.AddEdge(graph.VertexID(int(e[0])%n), graph.VertexID(int(e[1])%n))
		}
		g := b.Build()
		pt, err := Partition(g, k, opts)
		if err != nil {
			t.Fatalf("n=%d, k=%d, %+v: %v", n, k, opts, err)
		}
		if want := referencePart(g, k, opts); !slices.Equal(pt.Part, want) {
			t.Fatalf("n=%d, k=%d, %+v: labels %v, reference %v", n, k, opts, pt.Part, want)
		}
	})
}

// inNeighbors is the in-neighbor lookup the reference phases read
// beside g.Out, in the order the graph's reverse CSR listed them.
func inNeighbors(g *graph.Graph) [][]graph.VertexID {
	in := make([][]graph.VertexID, g.NumVertices())
	g.Edges(func(u, v graph.VertexID) { in[v] = append(in[v], u) })
	return in
}

// referencePart is Partition's label pipeline over the reference phases.
func referencePart(g *graph.Graph, k int, opts Options) []int32 {
	opts = opts.withDefaults()
	n := g.NumVertices()
	labels := make([]int32, n)
	if k == 1 || n == 0 {
		return labels
	}
	capacity := capacityFor(n, k, opts.Balance)
	rng := newSplitMix(uint64(opts.Seed))
	coarsenReference(g, labels, capacity, opts.Rounds, rng)
	part := packReference(g, labels, k, capacity)
	if opts.RefinePasses > 0 {
		refineReference(g, part, k, capacity, opts.RefinePasses)
	}
	return part
}

// coarsenReference runs capped label propagation over the undirected view of g,
// leaving the cluster label of every vertex in labels. Labels are drawn
// from the vertex-ID space (a cluster is named after some member).
func coarsenReference(g *graph.Graph, labels []int32, capacity int32, rounds int, rng *splitMix) {
	n := len(labels)
	in := inNeighbors(g)
	for v := range labels {
		labels[v] = int32(v)
	}
	size := make([]int32, n) // cluster label -> member count
	for v := range size {
		size[v] = 1
	}
	// count is an epoch-free scratch: count[l] is only meaningful for
	// labels recorded in touched, and is re-zeroed after every vertex.
	count := make([]int32, n)
	touched := make([]int32, 0, 64)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for round := 0; round < rounds; round++ {
		rng.shuffle(order)
		moved := 0
		for _, v := range order {
			cur := labels[v]
			touched = touched[:0]
			for _, w := range g.Out(graph.VertexID(v)) {
				if int32(w) == v {
					continue
				}
				l := labels[w]
				if count[l] == 0 {
					touched = append(touched, l)
				}
				count[l]++
			}
			for _, w := range in[v] {
				if int32(w) == v {
					continue
				}
				l := labels[w]
				if count[l] == 0 {
					touched = append(touched, l)
				}
				count[l]++
			}
			// Pick the heaviest neighbor label with room; prefer the
			// current label on ties (stability), then the smallest label
			// (determinism regardless of visit order).
			best, bestCount := cur, count[cur]
			for _, l := range touched {
				if l == cur || size[l] >= capacity {
					continue
				}
				c := count[l]
				// Only a strictly heavier label displaces the current one
				// (stability); among equally-heavy challengers the smallest
				// label wins (determinism regardless of visit order).
				if c > bestCount || (c == bestCount && best != cur && l < best) {
					best, bestCount = l, c
				}
			}
			for _, l := range touched {
				count[l] = 0
			}
			if best != cur {
				size[cur]--
				size[best]++
				labels[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// packReference densifies the cluster labels and greedily bin-packs clusters
// onto k partitions: clusters in decreasing size order, each placed on
// the partition it shares the most inter-cluster edge weight with among
// partitions with room. A cluster no partition can hold whole (packing
// fragmentation) is split across least-loaded partitions vertex by
// vertex, so the capacity cap holds unconditionally. Returns the
// per-vertex partition assignment.
func packReference(g *graph.Graph, labels []int32, k int, capacity int32) []int32 {
	n := len(labels)
	// Densify cluster IDs.
	dense := make([]int32, n) // label -> dense cluster id, lazily assigned
	for i := range dense {
		dense[i] = -1
	}
	var sizes []int32
	cluster := make([]int32, n) // vertex -> dense cluster id
	for v := 0; v < n; v++ {
		l := labels[v]
		if dense[l] < 0 {
			dense[l] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		cluster[v] = dense[l]
		sizes[cluster[v]]++
	}
	nc := len(sizes)

	// Inter-cluster edge weights, as adjacency lists (a -> (b, weight)).
	type cnbr struct {
		to int32
		w  int64
	}
	weight := map[uint64]int64{}
	g.Edges(func(u, v graph.VertexID) {
		a, b := cluster[u], cluster[v]
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		weight[uint64(a)<<32|uint64(uint32(b))]++
	})
	cadj := make([][]cnbr, nc)
	for key, w := range weight {
		a, b := int32(key>>32), int32(uint32(key))
		cadj[a] = append(cadj[a], cnbr{b, w})
		cadj[b] = append(cadj[b], cnbr{a, w})
	}

	// Largest-first placement. Sorting is (size desc, id asc): fully
	// deterministic, and big clusters claim whole partitions before the
	// remnants are used as filler.
	orderC := make([]int32, nc)
	for i := range orderC {
		orderC[i] = int32(i)
	}
	sort.Slice(orderC, func(i, j int) bool {
		a, b := orderC[i], orderC[j]
		if sizes[a] != sizes[b] {
			return sizes[a] > sizes[b]
		}
		return a < b
	})
	assign := make([]int32, nc)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]int32, k)
	aff := make([]int64, k)
	for _, c := range orderC {
		for p := range aff {
			aff[p] = 0
		}
		for _, nb := range cadj[c] {
			if a := assign[nb.to]; a >= 0 {
				aff[a] += nb.w
			}
		}
		best := int32(-1)
		for p := 0; p < k; p++ {
			if load[p]+sizes[c] > capacity {
				continue
			}
			if best < 0 || aff[p] > aff[best] ||
				(aff[p] == aff[best] && load[p] < load[best]) {
				best = int32(p)
			}
		}
		// best < 0 means bin-packing fragmentation: every partition has
		// room left, just not sizes[c] of it in one place (e.g. three
		// size-4 clusters into two capacity-7 partitions). The cluster is
		// split vertex-by-vertex below instead of dumped whole onto one
		// partition, which would silently blow the Balance cap.
		if best >= 0 {
			assign[c] = best
			load[best] += sizes[c]
		}
	}
	part := make([]int32, n)
	for v := 0; v < n; v++ {
		c := cluster[v]
		if assign[c] >= 0 {
			part[v] = assign[c]
			continue
		}
		// Split-cluster vertex: least-loaded partition with room. One
		// always exists — capacity >= ceil(n/k), so all k partitions at
		// capacity would already hold every vertex.
		best := int32(-1)
		for p := int32(0); p < int32(k); p++ {
			if load[p] < capacity && (best < 0 || load[p] < load[best]) {
				best = p
			}
		}
		part[v] = best
		load[best]++
	}
	return part
}

// refineReference performs FM-style single-vertex moves over the undirected view:
// a vertex moves to the partition holding most of its neighbors when
// that strictly reduces the number of cut edges and the destination has
// room. Each pass scans vertices in ID order; passes stop early once
// nothing moves. Total cut weight strictly decreases with every move,
// so termination is guaranteed without FM's tenure bookkeeping.
func refineReference(g *graph.Graph, part []int32, k int, capacity int32, passes int) {
	n := len(part)
	in := inNeighbors(g)
	load := make([]int32, k)
	for _, p := range part {
		load[p]++
	}
	ext := make([]int64, k) // neighbors of v per partition, rebuilt per vertex
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			p := part[v]
			for q := range ext {
				ext[q] = 0
			}
			deg := 0
			for _, w := range g.Out(graph.VertexID(v)) {
				if int(w) != v {
					ext[part[w]]++
					deg++
				}
			}
			for _, w := range in[v] {
				if int(w) != v {
					ext[part[w]]++
					deg++
				}
			}
			if deg == 0 || int64(deg) == ext[p] {
				continue // isolated, or fully internal already
			}
			best, bestGain := p, int64(0)
			for q := int32(0); q < int32(k); q++ {
				if q == p || load[q]+1 > capacity {
					continue
				}
				// gain = cut edges removed - cut edges added when v moves
				// p -> q: edges to q stop being cut, edges to p start.
				if gain := ext[q] - ext[p]; gain > bestGain {
					best, bestGain = q, gain
				}
			}
			if best != p {
				load[p]--
				load[best]++
				part[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
