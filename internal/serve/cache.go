package serve

import (
	"encoding/binary"
	"slices"
	"sync"

	"dsr/internal/graph"
	"dsr/internal/obs"
)

// Key canonicalizes a query's source and target sets into a cache key:
// each side is sorted and deduplicated, then count-prefixed and
// uvarint-packed. Two queries with the same S and T sets — in any
// order, with any duplication — therefore share one key, which is what
// makes caching set-reachability answers sound: the answer depends only
// on the sets and the (immutable) graph.
func Key(S, T []graph.VertexID) string {
	// Scratch for one sorted side and for the packed key: on the stack
	// for a query of up to 64 vertices a side and 128 in all, grown by
	// append beyond that. The returned string is the one allocation.
	var sorted [64]graph.VertexID
	var packed [2 + 5*128]byte
	vs, buf := sorted[:0], packed[:0]
	for _, side := range [2][]graph.VertexID{S, T} {
		vs = append(vs[:0], side...)
		slices.Sort(vs)
		vs = slices.Compact(vs)
		buf = binary.AppendUvarint(buf, uint64(len(vs)))
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return string(buf)
}

// centry is one cached answer, threaded onto either the probation FIFO
// or the protected LRU list (sentinel-rooted, so unlink is branch-free).
type centry struct {
	key        string
	ans        bool
	protected  bool
	prev, next *centry
}

// clist is a sentinel-rooted doubly linked list; front is most recent.
type clist struct {
	root centry
	n    int
}

func (l *clist) init() {
	l.root.prev, l.root.next = &l.root, &l.root
	l.n = 0
}

func (l *clist) pushFront(e *centry) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
	l.n++
}

func (l *clist) unlink(e *centry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// back returns the least recently touched entry, or nil when empty.
func (l *clist) back() *centry {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// Cache is the serving layer's result cache: a 2Q-style LRU over
// canonicalized query keys. New keys enter a small probation FIFO
// (scan-resistance: a one-off query can only ever displace other
// one-offs); a second touch promotes to the protected LRU segment,
// which holds the hot working set. Soundness rests on graph
// immutability: a deployment's answer for a (S, T) pair never changes.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*centry
	prob    clist // probation FIFO (first touch)
	prot    clist // protected LRU (second touch and later)
	probCap int
	protCap int

	hits, misses, evictions *obs.Counter
}

// NewCache builds a cache bounded to capacity entries across both
// segments (a quarter probation, the rest protected). capacity <= 0
// returns a nil cache, on which every method is a no-op miss — callers
// never branch on "cache enabled".
func NewCache(capacity int, reg *obs.Registry) *Cache {
	if capacity <= 0 {
		return nil
	}
	probCap := max(capacity/4, 1)
	c := &Cache{
		entries:   make(map[string]*centry, capacity),
		probCap:   probCap,
		protCap:   max(capacity-probCap, 1),
		hits:      reg.Counter("dsr_cache_hits_total"),
		misses:    reg.Counter("dsr_cache_misses_total"),
		evictions: reg.Counter("dsr_cache_evictions_total"),
	}
	c.prob.init()
	c.prot.init()
	return c
}

// Get looks the key up, reporting (answer, true) on a hit. A hit in
// probation promotes the entry to the protected segment.
func (c *Cache) Get(key string) (bool, bool) {
	if c == nil {
		return false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		c.misses.Inc()
		return false, false
	}
	if e.protected {
		c.prot.unlink(e)
		c.prot.pushFront(e)
	} else {
		c.prob.unlink(e)
		e.protected = true
		c.prot.pushFront(e)
		c.evictProtLocked()
	}
	c.hits.Inc()
	return e.ans, true
}

// Put stores the answer under key. An existing entry's answer is
// refreshed in place without changing segment.
func (c *Cache) Put(key string, ans bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.ans = ans
		return
	}
	e := &centry{key: key, ans: ans}
	c.entries[key] = e
	c.prob.pushFront(e)
	if c.prob.n > c.probCap {
		c.evictions.Inc()
		c.removeLocked(c.prob.back())
	}
}

// Len reports how many entries the cache holds.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) evictProtLocked() {
	for c.prot.n > c.protCap {
		c.evictions.Inc()
		c.removeLocked(c.prot.back())
	}
}

func (c *Cache) removeLocked(e *centry) {
	if e.protected {
		c.prot.unlink(e)
	} else {
		c.prob.unlink(e)
	}
	delete(c.entries, e.key)
}
