// Package locality implements a locality-aware graph partitioner: a
// multilevel scheme that minimizes the number of boundary vertices (and
// cut edges), which is exactly what the DSR boundary graph's size — and
// therefore cross-partition query traffic — depends on. Hash
// partitioning makes nearly every vertex a boundary vertex on graphs
// with community structure; this partitioner finds the communities.
//
// Three phases, all deterministic for a fixed Options.Seed:
//
//  1. Coarsening — iterative label propagation (LPA): every vertex
//     repeatedly adopts the most frequent label among its undirected
//     neighbors, subject to a cluster-size cap so no cluster outgrows a
//     partition. Rounds visit vertices in a seeded random order (LPA
//     degenerates badly under a fixed scan order) and stop early when a
//     round moves nothing.
//  2. Cluster placement — greedy bin-packing of clusters onto the k
//     partitions, largest cluster first, each placed on the partition
//     it shares the most edge weight with among those with room
//     (clusters that fit nowhere whole are split vertex-by-vertex, so
//     the size cap holds unconditionally). The weights are summed from
//     the cluster's members' adjacency rows at placement time.
//  3. Refinement — Fiduccia–Mattheyses-style single-vertex moves: passes
//     over the vertices move any vertex whose cut-edge gain (cross
//     edges removed minus cross edges added) is strictly positive and
//     whose destination partition has room, until a pass moves nothing.
//
// Phases 1 and 3 keep their full visit orders (every round's shuffle,
// every pass's ID order) but evaluate only dirty vertices: those with a
// neighbor that moved to another label since they last looked, and
// those a full label kept from moving once it has room again. Every
// other vertex would decide to stay — a decision is a function of the
// neighbors' labels and of which labels are full, not of the order they
// are met in — so the labels are exactly those of re-evaluating every
// vertex every time, at a fraction of the work: on a 200k-vertex
// community graph, rounds after the second look at a few thousand
// vertices instead of all of them (dirtySet has the argument).
//
// The output is an ordinary *graph.Partitioning, so everything
// downstream (subgraph extraction, boundary compression, shards) is
// untouched; New adapts it to the graph.Partitioner interface used by
// core and the CLIs.
package locality

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dsr/internal/graph"
)

// Options tunes the partitioner. The zero value selects defaults; all
// fields are optional.
type Options struct {
	// Seed drives vertex visit order and tie-breaking. Coordinator and
	// shards must use the same seed (the handshake's partitioning digest
	// catches disagreement). Default 0 is a valid seed.
	Seed int64
	// Rounds caps LPA iterations. Default 10.
	Rounds int
	// Balance caps partition (and cluster) size at Balance * n/k.
	// Default 1.15. Values <= 1 would make exact packing impossible and
	// are rejected.
	Balance float64
	// RefinePasses caps refinement sweeps. Default 6; 0 means default,
	// negative disables refinement.
	RefinePasses int
}

func (o Options) withDefaults() Options {
	if o.Rounds == 0 {
		o.Rounds = 10
	}
	if o.Balance == 0 {
		o.Balance = 1.15
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 6
	}
	return o
}

// partitioner adapts Partition to graph.Partitioner.
type partitioner struct{ opts Options }

// New returns a graph.Partitioner running the locality-aware scheme
// with the given options.
func New(opts Options) graph.Partitioner { return partitioner{opts} }

func (p partitioner) Name() string { return "locality" }
func (p partitioner) Partition(g *graph.Graph, k int) (*graph.Partitioning, error) {
	return Partition(g, k, p.opts)
}

// Partition splits g into k parts, minimizing boundary vertices and cut
// edges. It is deterministic for fixed (g, k, opts).
func Partition(g *graph.Graph, k int, opts Options) (*graph.Partitioning, error) {
	if k < 1 {
		return nil, fmt.Errorf("locality: partition count must be >= 1, got %d", k)
	}
	opts = opts.withDefaults()
	if opts.Balance <= 1 {
		return nil, fmt.Errorf("locality: balance must be > 1, got %g", opts.Balance)
	}
	if opts.Rounds < 1 {
		return nil, fmt.Errorf("locality: rounds must be >= 1, got %d", opts.Rounds)
	}
	n := g.NumVertices()
	labels := make([]int32, n)
	if k == 1 || n == 0 {
		// Single partition (or empty graph): nothing to optimize.
		return finish(g, k, labels)
	}
	capacity := capacityFor(n, k, opts.Balance)
	rng := newSplitMix(uint64(opts.Seed))
	coarsen(g, labels, capacity, opts.Rounds, rng)
	part := pack(g, labels, k, capacity)
	if opts.RefinePasses > 0 {
		refine(g, part, k, capacity, opts.RefinePasses)
	}
	return finish(g, k, part)
}

// capacityFor is the hard per-partition (and per-cluster: a cluster
// larger than a partition could never be placed) size cap. It is always
// >= ceil(n/k), so packing every vertex is always possible.
func capacityFor(n, k int, balance float64) int32 {
	capacity := int32(math.Ceil(balance * float64(n) / float64(k)))
	if ideal := int32((n + k - 1) / k); capacity < ideal {
		capacity = ideal
	}
	return capacity
}

// finish runs the labels through graph.PartitionWith, which validates
// them and computes the entry/exit boundary marks from the edge set.
func finish(g *graph.Graph, k int, part []int32) (*graph.Partitioning, error) {
	return graph.PartitionWith(g, k, func(v graph.VertexID, _, _ int) int32 { return part[v] })
}

// coarsen runs capped label propagation over the undirected view of g,
// leaving the cluster label of every vertex in labels. Labels are drawn
// from the vertex-ID space (a cluster is named after some member).
// Every round shuffles the whole visit order, but only dirty vertices
// (see dirtySet) are re-evaluated: a clean one would stay where it is.
func coarsen(g *graph.Graph, labels []int32, capacity int32, rounds int, rng *splitMix) {
	n := len(labels)
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
	dirty := newDirtySet(n)
	for round := 0; round < rounds; round++ {
		rng.shuffle(order)
		moved := 0
		for _, v := range order {
			if !dirty.take(v) {
				continue
			}
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
			for _, w := range g.In(graph.VertexID(v)) {
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
			full := false
			for _, l := range touched {
				if l == cur {
					continue
				}
				if size[l] >= capacity {
					full = true
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
			if full {
				for _, l := range touched {
					if size[l] >= capacity && count[l] > bestCount {
						dirty.block(v, l)
					}
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
				dirty.moved(g, v, labels)
				if size[cur] == capacity-1 {
					dirty.freed(cur)
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}

// pack densifies the cluster labels and greedily bin-packs clusters
// onto k partitions: clusters in decreasing size order, each placed on
// the partition it shares the most inter-cluster edge weight with among
// partitions with room. A cluster no partition can hold whole (packing
// fragmentation) is split across least-loaded partitions vertex by
// vertex, so the capacity cap holds unconditionally. Returns the
// per-vertex partition assignment.
func pack(g *graph.Graph, labels []int32, k int, capacity int32) []int32 {
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

	// Cluster members, contiguous: a counting sort of vertices by
	// cluster, members[start[c]:start[c+1]] being cluster c's.
	start := make([]int32, nc+1)
	for c := range sizes {
		start[c+1] = start[c] + sizes[c]
	}
	next := slices.Clone(start[:nc])
	members := make([]graph.VertexID, n)
	for v, c := range cluster {
		members[next[c]] = graph.VertexID(v)
		next[c]++
	}

	// Largest-first placement. Sorting is (size desc, id asc): fully
	// deterministic, and big clusters claim whole partitions before the
	// remnants are used as filler.
	orderC := make([]int32, nc)
	for i := range orderC {
		orderC[i] = int32(i)
	}
	slices.SortFunc(orderC, func(a, b int32) int {
		if sizes[a] != sizes[b] {
			return cmp.Compare(sizes[b], sizes[a])
		}
		return cmp.Compare(a, b)
	})
	assign := make([]int32, nc)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]int32, k)
	aff := make([]int64, k)
	// affinity adds to aff every edge between c and an already placed
	// cluster, once: a cut edge has exactly one endpoint among c's
	// members, so it is read from that member's Out or In row alone.
	affinity := func(c int32, nbrs []graph.VertexID) {
		for _, w := range nbrs {
			if d := cluster[w]; d != c {
				if a := assign[d]; a >= 0 {
					aff[a]++
				}
			}
		}
	}
	for _, c := range orderC {
		clear(aff)
		for _, u := range members[start[c]:start[c+1]] {
			affinity(c, g.Out(u))
			affinity(c, g.In(u))
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

// refine performs FM-style single-vertex moves over the undirected view:
// a vertex moves to the partition holding most of its neighbors when
// that strictly reduces the number of cut edges and the destination has
// room. Each pass scans vertices in ID order; passes stop early once
// nothing moves. Total cut weight strictly decreases with every move,
// so termination is guaranteed without FM's tenure bookkeeping. As in
// coarsen, only dirty vertices are re-evaluated.
func refine(g *graph.Graph, part []int32, k int, capacity int32, passes int) {
	n := len(part)
	load := make([]int32, k)
	for _, p := range part {
		load[p]++
	}
	ext := make([]int64, k) // neighbors of v per partition, rebuilt per vertex
	dirty := newDirtySet(n)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := int32(0); v < int32(n); v++ {
			if !dirty.take(v) {
				continue
			}
			p := part[v]
			clear(ext)
			deg := 0
			for _, w := range g.Out(graph.VertexID(v)) {
				if int32(w) != v {
					ext[part[w]]++
					deg++
				}
			}
			for _, w := range g.In(graph.VertexID(v)) {
				if int32(w) != v {
					ext[part[w]]++
					deg++
				}
			}
			if deg == 0 || int64(deg) == ext[p] {
				continue // isolated, or fully internal already
			}
			best, bestGain := p, int64(0)
			full := false
			for q := int32(0); q < int32(k); q++ {
				if q == p {
					continue
				}
				if load[q]+1 > capacity {
					full = true
					continue
				}
				// gain = cut edges removed - cut edges added when v moves
				// p -> q: edges to q stop being cut, edges to p start.
				if gain := ext[q] - ext[p]; gain > bestGain {
					best, bestGain = q, gain
				}
			}
			if full {
				for q := int32(0); q < int32(k); q++ {
					if load[q]+1 > capacity && ext[q] > ext[best] {
						dirty.block(v, q)
					}
				}
			}
			if best != p {
				load[p]--
				load[best]++
				part[v] = best
				moved++
				dirty.moved(g, v, part)
				if load[p] == capacity-1 {
					dirty.freed(p)
				}
			}
		}
		if moved == 0 {
			break
		}
	}
}

// dirtySet marks the vertices a round or pass must re-evaluate. A
// vertex's decision, in coarsen and in refine alike, is a pure function
// of its own label, the multiset of its neighbors' labels and which of
// those labels are full — neither phase's choice depends on the order
// it meets its neighbors in. A vertex is clean from the moment it
// decides; clean, it would decide to stay (it stayed, or it just moved
// to its best label, which it would not leave), and it stays clean while
// the inputs of that decision hold:
//
//   - a neighbor changed label: the neighbor's move dirties it, unless
//     the neighbor joined its label — that only makes staying stronger;
//   - a label became full: that only removes candidates, and a vertex
//     that stays with more candidates stays with fewer;
//   - a full label regained room: that dirties exactly the vertices
//     which, when they decided, had more neighbors in it than in their
//     own label — the ones it blocked, recorded as they decided.
//
// So a skipped vertex is one the full scan would have left where it
// is, and the labels are the full scan's, label for label.
type dirtySet struct {
	clean   []bool
	blocked map[int32][]int32 // full label -> vertices it kept from moving
}

func newDirtySet(n int) dirtySet {
	return dirtySet{clean: make([]bool, n), blocked: map[int32][]int32{}}
}

// take reports whether v is dirty and marks it clean: the caller
// evaluates it now.
func (d *dirtySet) take(v int32) bool {
	if d.clean[v] {
		return false
	}
	d.clean[v] = true
	return true
}

// moved dirties the neighbors of v, which just changed label, that are
// not in v's new label.
func (d *dirtySet) moved(g *graph.Graph, v int32, labels []int32) {
	l := labels[v]
	for _, w := range g.Out(graph.VertexID(v)) {
		if labels[w] != l {
			d.clean[w] = false
		}
	}
	for _, w := range g.In(graph.VertexID(v)) {
		if labels[w] != l {
			d.clean[w] = false
		}
	}
}

// block records that v, deciding now, would prefer the full label l to
// the one it keeps.
func (d *dirtySet) block(v, l int32) { d.blocked[l] = append(d.blocked[l], v) }

// freed dirties the vertices the full label l blocked: it has room again.
func (d *dirtySet) freed(l int32) {
	for _, v := range d.blocked[l] {
		d.clean[v] = false
	}
	delete(d.blocked, l)
}

// splitMix is a tiny deterministic PRNG (splitmix64) used for visit
// order shuffles; math/rand would also work, but an explicit generator
// makes the determinism contract obvious and dependency-free.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix {
	// Avoid the all-zero fixed point families by pre-mixing the seed.
	return &splitMix{state: seed + 0x9E3779B97F4A7C15}
}

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shuffle is a Fisher–Yates shuffle driven by next().
func (s *splitMix) shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
