package serve

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"dsr/internal/graph"
)

// keyByClone is Key as it was before it sorted in one scratch: a clone
// per side, a heap buffer, four allocations. Kept as the reference the
// bytes are pinned against — traces and caches are keyed on them.
func keyByClone(S, T []graph.VertexID) string {
	buf := make([]byte, 0, 8+5*(len(S)+len(T)))
	for _, side := range [2][]graph.VertexID{S, T} {
		vs := slices.Clone(side)
		slices.Sort(vs)
		vs = slices.Compact(vs)
		buf = binary.AppendUvarint(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return string(buf)
}

// keySet draws up to maxLen vertices from a range narrow enough to
// repeat some and wide enough to cross every uvarint length.
func keySet(rng *rand.Rand, maxLen int) []graph.VertexID {
	vs := make([]graph.VertexID, rng.Intn(maxLen+1))
	for i := range vs {
		vs[i] = graph.VertexID(rng.Uint32() >> uint(rng.Intn(32)))
		if i > 0 && rng.Intn(4) == 0 {
			vs[i] = vs[rng.Intn(i)]
		}
	}
	return vs
}

// TestKeyMatchesReference: same bytes as the old implementation on 10k
// random (S, T) with duplicates, also when permuted, including sets
// past the stack scratch; and the inputs are left as they were.
func TestKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 10000; i++ {
		maxLen := 16
		if i%100 == 0 {
			maxLen = 300
		}
		S, T := keySet(rng, maxLen), keySet(rng, maxLen)
		s0, t0 := slices.Clone(S), slices.Clone(T)
		want := keyByClone(S, T)
		if got := Key(S, T); got != want {
			t.Fatalf("Key(%v, %v) = %x, reference %x", S, T, got, want)
		}
		if !slices.Equal(S, s0) || !slices.Equal(T, t0) {
			t.Fatalf("Key reordered its inputs: %v | %v, were %v | %v", S, T, s0, t0)
		}
		rng.Shuffle(len(S), func(a, b int) { S[a], S[b] = S[b], S[a] })
		rng.Shuffle(len(T), func(a, b int) { T[a], T[b] = T[b], T[a] })
		if got := Key(S, T); got != want {
			t.Fatalf("permuted Key(%v, %v) = %x, reference %x", S, T, got, want)
		}
	}
}

var keySink string

// BenchmarkKey: the benchmark workloads' shape, |S| and |T| uniform in
// [1, 16], through Key and through the reference it replaced.
func BenchmarkKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type st struct{ S, T []graph.VertexID }
	qs := make([]st, 1024)
	for i := range qs {
		qs[i] = st{append(keySet(rng, 15), 1), append(keySet(rng, 15), 2)}
	}
	for _, impl := range []struct {
		name string
		key  func(S, T []graph.VertexID) string
	}{{"scratch", Key}, {"reference", keyByClone}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				keySink = impl.key(q.S, q.T)
			}
		})
	}
}
