package partition

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition/locality"
)

// localBySearch is the lookup Local replaced, kept as its reference: a
// binary search over the sorted local→global map.
func localBySearch(s *Subgraph, gv graph.VertexID) (int32, bool) {
	lv, ok := slices.BinarySearch(s.global, gv)
	return int32(lv), ok
}

// checkLocal holds Local to the reference on every probe: same
// ownership verdict, and the same local ID when owned.
func checkLocal(t testing.TB, s *Subgraph, probes []graph.VertexID) {
	t.Helper()
	for _, gv := range probes {
		got, ok := s.Local(gv)
		want, wantOK := localBySearch(s, gv)
		if ok != wantOK || ok && got != want {
			t.Fatalf("subgraph of %d vertices, span %v: Local(%d) = %d,%v, binary search says %d,%v",
				len(s.global), spanOf(s), gv, got, ok, want, wantOK)
		}
	}
}

func spanOf(s *Subgraph) [2]graph.VertexID {
	if len(s.global) == 0 {
		return [2]graph.VertexID{}
	}
	return [2]graph.VertexID{s.global[0], s.global[len(s.global)-1]}
}

// edgeProbes are the IDs around a subgraph's span where an off-by-one
// would show: both ends of the ID space, both ends of the span and
// their neighbours, every word boundary's neighbours near the span's
// end, and negative int32 task seeds as a shard casts them.
func edgeProbes(s *Subgraph) []graph.VertexID {
	probes := []graph.VertexID{0, 1, 62, 63, 64, 65, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	for _, seed := range []int32{-1, -64, -65, -1 << 31} {
		probes = append(probes, graph.VertexID(seed))
	}
	lo, hi := spanOf(s)[0], spanOf(s)[1]
	for d := graph.VertexID(0); d <= 130; d++ {
		probes = append(probes, lo-d, lo+d, hi-d, hi+d) // wrap-around included on purpose
	}
	return probes
}

// ownedSet fabricates a subgraph that is nothing but a vertex set: all
// Local reads.
func ownedSet(ids []graph.VertexID) *Subgraph {
	s := &Subgraph{global: ids}
	s.buildRank()
	return s
}

// TestSubgraphLocalShapes checks Local against the binary search on
// hand-built ownership sets: empty and one-vertex partitions, IDs 0 and
// n-1, spans that end just before, on and just past a bitmap word
// boundary, a contiguous range and sparse sets far from zero.
func TestSubgraphLocalShapes(t *testing.T) {
	const n = 1 << 20
	contiguous := func(lo, hi graph.VertexID) []graph.VertexID {
		var ids []graph.VertexID
		for v := lo; v <= hi; v++ {
			ids = append(ids, v)
		}
		return ids
	}
	sets := map[string][]graph.VertexID{
		"empty":       nil,
		"only 0":      {0},
		"only n-1":    {n - 1},
		"0 and n-1":   {0, n - 1},
		"span 63":     {100, 162},
		"span 64":     {100, 163},
		"span 65":     {100, 164},
		"span 65 mid": {100, 163, 164},
		"ends at 63":  contiguous(0, 63),
		"ends at 64":  contiguous(0, 64),
		"ends at 65":  contiguous(3, 65),
		"range":       contiguous(1000, 1999),
		"two words":   contiguous(64, 191),
		"max id":      {1<<32 - 70, 1<<32 - 1},
		"every other": {10, 12, 14, 16, 74, 76, 138, 140},
	}
	for name, ids := range sets {
		s := ownedSet(ids)
		probes := append(edgeProbes(s), ids...)
		t.Run(name, func(t *testing.T) { checkLocal(t, s, probes) })
	}
	// The index is sized to the span, not to the ID space: 1000
	// contiguous IDs far from zero take ⌈1000/64⌉ words.
	if s := ownedSet(sets["range"]); len(s.owned) != 16 || len(s.rank) != 16 {
		t.Errorf("range: %d bitmap words and %d counts for 1000 contiguous IDs, want 16", len(s.owned), len(s.rank))
	}
}

// localStrategies are the partitioners the Local tests and benchmarks
// run under: interleaved ownership, one contiguous run, and scattered
// clusters.
func localStrategies() []graph.Partitioner {
	return []graph.Partitioner{graph.Hash(), graph.Range(), locality.New(locality.Options{Seed: 1})}
}

// TestSubgraphLocalPartitions checks Local on every partition the three
// partitioners cut from a community graph, through Extract, the k-way
// reference extraction and a Data round trip, on every vertex of the
// graph and the edge probes — and that every vertex is owned exactly
// once, under the local ID the reference assigned.
func TestSubgraphLocalPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	const n = 3000
	g := gen.Community(rng, n, 6, 2, 0.05, 0.01)
	all := make([]graph.VertexID, n)
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	for _, strat := range localStrategies() {
		for _, k := range []int{1, 3, 7} {
			pt, err := strat.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			subs, local := extractReference(g, pt)
			owners := make([]int, n)
			for p, s := range Extract(g, pt) {
				restored, err := SubgraphFromData(s.Data())
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range []*Subgraph{s, subs[p], restored} {
					checkLocal(t, sub, all)
					checkLocal(t, sub, edgeProbes(sub))
				}
				for v := range all {
					if lv, ok := s.Local(graph.VertexID(v)); ok {
						owners[v]++
						if lv != local[v] {
							t.Fatalf("%s k=%d: Local(%d) = %d, Extract assigned %d", strat.Name(), k, v, lv, local[v])
						}
					}
				}
			}
			if slices.ContainsFunc(owners, func(c int) bool { return c != 1 }) {
				t.Fatalf("%s k=%d: some vertex is not owned exactly once", strat.Name(), k)
			}
		}
	}
}

// FuzzSubgraphLocal decodes an ownership set and probes from the fuzz
// bytes and holds Local to the binary search on all of them. The first
// byte is how many 4-byte IDs form the set (sorted and deduplicated
// here); the second scales them, so sets both dense and spread over
// the whole ID space come up; the rest are probes.
func FuzzSubgraphLocal(f *testing.F) {
	le := binary.LittleEndian
	f.Add([]byte{0, 0})
	f.Add(le.AppendUint32([]byte{1, 0}, 7))
	f.Add(le.AppendUint32(le.AppendUint32(le.AppendUint32([]byte{2, 0}, 100), 163), 164))
	f.Add(le.AppendUint32(le.AppendUint32(le.AppendUint32([]byte{2, 31}, 0), 1<<32-1), 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		count, shift := int(data[0]), data[1]%32
		var words []graph.VertexID
		for data = data[2:]; len(data) >= 4; data = data[4:] {
			words = append(words, le.Uint32(data))
		}
		count = min(count, len(words))
		ids := make([]graph.VertexID, count)
		for i, v := range words[:count] {
			// A span of 2^32 IDs is a 768 MB index; 2^20 is already far
			// past any word-boundary effect.
			ids[i] = v >> shift & (1<<20 - 1)
			if shift > 16 {
				ids[i] += 1<<32 - 1<<20 // the top of the ID space
			}
		}
		slices.Sort(ids)
		s := ownedSet(slices.Compact(ids))
		checkLocal(t, s, words)
		checkLocal(t, s, ids)
		checkLocal(t, s, edgeProbes(s))
	})
}

// BenchmarkSubgraphLocal times Local on the benchmark harness's graph
// family at a quarter of its size, under each partitioner, probing
// partition 0 with vertices it owns (hit) and with vertices its
// siblings own (miss — what (k-1)/k of a broadcast's seeds are). One op
// is a pass over 4096 probes in random order, so that the gate's short
// runs time lookups and not the clock; ns/lookup divides it out.
func BenchmarkSubgraphLocal(b *testing.B) {
	const n, k, pass = 50_000, 3, 4096
	g := gen.Community(rand.New(rand.NewSource(4)), n, 16, 2.5, 0.05, 0.01)
	for _, strat := range localStrategies() {
		pt, err := strat.Partition(g, k)
		if err != nil {
			b.Fatal(err)
		}
		s := ExtractOne(g, pt, 0)
		probes := map[string][]graph.VertexID{}
		for _, v := range rand.New(rand.NewSource(5)).Perm(n) {
			name := "miss"
			if pt.Part[v] == 0 {
				name = "hit"
			}
			probes[name] = append(probes[name], graph.VertexID(v))
		}
		for _, name := range []string{"hit", "miss"} {
			vs := probes[name][:pass]
			b.Run(fmt.Sprintf("%s/%s", strat.Name(), name), func(b *testing.B) {
				b.ReportAllocs()
				var sum int32
				for i := 0; i < b.N; i++ {
					for _, v := range vs {
						lv, _ := s.Local(v)
						sum += lv
					}
				}
				localSink = sum
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pass), "ns/lookup")
			})
		}
	}
}

var localSink int32
