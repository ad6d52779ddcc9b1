package serve

import (
	"testing"

	"dsr/internal/graph"
	"dsr/internal/obs"
)

func ids(vs ...graph.VertexID) []graph.VertexID { return vs }

// TestKeyCanonical pins the cache-key contract: order and duplication
// within a side are irrelevant, but the two sides are not
// interchangeable and their boundary is unambiguous.
func TestKeyCanonical(t *testing.T) {
	if Key(ids(3, 1, 2, 2), ids(5)) != Key(ids(1, 2, 3), ids(5, 5)) {
		t.Fatal("permuted/duplicated sets should share a key")
	}
	if Key(ids(1), ids(2)) == Key(ids(2), ids(1)) {
		t.Fatal("S and T must not be interchangeable")
	}
	// The count prefix keeps {1,2}|{3} distinct from {1}|{2,3}.
	if Key(ids(1, 2), ids(3)) == Key(ids(1), ids(2, 3)) {
		t.Fatal("set boundary must be part of the key")
	}
}

func TestCacheHitPromoteEvict(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(8, reg) // probation 2, protected 6

	if _, ok := c.Get(Key(ids(1), ids(2))); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(Key(ids(1), ids(2)), true)
	if ans, ok := c.Get(Key(ids(1), ids(2))); !ok || !ans {
		t.Fatalf("got (%v,%v), want cached true", ans, ok)
	}

	// The hit above promoted 1|2 to protected; two more one-off keys
	// fill probation and a third evicts the oldest one-off — never the
	// promoted entry.
	c.Put(Key(ids(10), ids(11)), false)
	c.Put(Key(ids(20), ids(21)), false)
	c.Put(Key(ids(30), ids(31)), false)
	if _, ok := c.Get(Key(ids(10), ids(11))); ok {
		t.Fatal("oldest probation entry should have been evicted")
	}
	if ans, ok := c.Get(Key(ids(1), ids(2))); !ok || !ans {
		t.Fatal("promoted entry must survive probation churn")
	}
	if got := reg.Counter("dsr_cache_evictions_total").Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	hits := reg.Counter("dsr_cache_hits_total").Load()
	misses := reg.Counter("dsr_cache_misses_total").Load()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// TestCacheRefreshInPlace: Put on an existing key updates the answer
// without duplicating the entry.
func TestCacheRefreshInPlace(t *testing.T) {
	c := NewCache(8, nil)
	k := Key(ids(4), ids(5))
	c.Put(k, false)
	c.Put(k, true)
	if ans, ok := c.Get(k); !ok || !ans {
		t.Fatal("refreshed entry should hit with the new answer")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheDisabled: non-positive capacity returns a nil cache whose
// methods are all safe no-ops.
func TestCacheDisabled(t *testing.T) {
	for _, capn := range []int{0, -1} {
		c := NewCache(capn, obs.NewRegistry())
		if c != nil {
			t.Fatalf("NewCache(%d) = %v, want nil", capn, c)
		}
		c.Put("k", true)
		if _, ok := c.Get("k"); ok {
			t.Fatal("nil cache hit")
		}
		if c.Len() != 0 {
			t.Fatal("nil cache Len != 0")
		}
	}
}

// TestCacheProtectedEviction: the protected segment is LRU-bounded too.
func TestCacheProtectedEviction(t *testing.T) {
	c := NewCache(4, nil) // probation 1, protected 3
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = Key(ids(graph.VertexID(i)), ids(100))
		c.Put(keys[i], true)
		c.Get(keys[i]) // promote immediately
	}
	// 5 promoted entries through a 3-slot protected segment: the two
	// least recently used are gone.
	live := 0
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("%d protected entries live, want 3", live)
	}
}
