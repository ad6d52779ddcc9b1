// Package locality implements a locality-aware graph partitioner: a
// multilevel scheme that minimizes the number of boundary vertices (and
// cut edges), which is exactly what the DSR boundary graph's size — and
// therefore cross-partition query traffic — depends on. Hash
// partitioning makes nearly every vertex a boundary vertex on graphs
// with community structure; this partitioner finds the communities.
//
// All three phases work on the undirected view of the graph, built
// once per Partition from the out-rows by a counting sort: row v lists
// v's out- and in-neighbors, self-loops dropped, multi-edges kept (an
// edge u→w and an edge w→u both count, in both rows). Every phase reads
// one row per vertex, and the graph itself keeps no reverse adjacency.
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
//     the cluster's members' rows at placement time.
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
// What a decision reads per vertex is kept small: coarsening counts
// the neighbor labels in a hash table of about twice the vertex's
// degree (tally) instead of an n-sized count array, reads ahead of its
// visit order (prefetchSink), and keeps which labels are full and which
// vertices are clean in bitmaps; packing reads a neighbor's partition
// from one per-vertex array. The labels are those of the plain scan,
// bit for bit: TestPartitionMatchesReference and
// FuzzPartitionMatchesReference hold them to it.
//
// The output is an ordinary *graph.Partitioning — the labels, nothing
// else: every label is in [0, k) by construction, and the boundary
// vertices are derived per partition downstream (partition.ExtractOne),
// so extraction, boundary compression and shards are untouched. New
// adapts it to the graph.Partitioner interface used by core and the
// CLIs.
package locality

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

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
	// Balance caps partition (and cluster) size at Balance * n/k, and
	// never below ceil(n/k) nor above n. Default 1.15. Values <= 1 would
	// make exact packing impossible and are rejected, as are NaN and
	// infinities.
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
	if opts.Balance <= 1 || math.IsNaN(opts.Balance) || math.IsInf(opts.Balance, 0) {
		return nil, fmt.Errorf("locality: balance must be a finite number > 1, got %g", opts.Balance)
	}
	if opts.Rounds < 1 {
		return nil, fmt.Errorf("locality: rounds must be >= 1, got %d", opts.Rounds)
	}
	n := g.NumVertices()
	labels := make([]int32, n)
	if k == 1 || n == 0 {
		// Single partition (or empty graph): nothing to optimize.
		return &graph.Partitioning{K: k, Part: labels}, nil
	}
	capacity := capacityFor(n, k, opts.Balance)
	adj := undirected(g)
	coarsen(adj, labels, capacity, opts.Rounds, newSplitMix(uint64(opts.Seed)))
	part := pack(adj, labels, k, capacity)
	if opts.RefinePasses > 0 {
		refine(adj, part, k, capacity, opts.RefinePasses)
	}
	return &graph.Partitioning{K: k, Part: part}, nil
}

// capacityFor is the hard per-partition (and per-cluster: a cluster
// larger than a partition could never be placed) size cap. It is always
// >= ceil(n/k), so packing every vertex is always possible, and <= n,
// which already caps nothing (so a huge balance cannot overflow int32).
func capacityFor(n, k int, balance float64) int32 {
	capacity := math.Ceil(balance * float64(n) / float64(k))
	ideal := float64((n + k - 1) / k)
	return int32(min(max(capacity, ideal), float64(n)))
}

// adjacency is the undirected view of a graph in CSR form: row v lists
// v's out- and in-neighbors, self-loops dropped, multi-edges kept.
type adjacency struct {
	off []int64
	nbr []graph.VertexID
}

func (a adjacency) row(v int32) []graph.VertexID { return a.nbr[a.off[v]:a.off[v+1]] }

// undirected builds g's undirected view with a counting sort over its
// out-rows. Offsets are int64 like the graph's own: a row total is at
// most twice the edge count.
func undirected(g *graph.Graph) adjacency {
	n := g.NumVertices()
	// Vertex v's degree goes to off[v+2]; after the prefix sum off[v+1]
	// is where row v starts and serves as v's cursor while filling, so
	// it ends where row v+1 starts: off[:n+1] are the row offsets.
	off := make([]int64, n+2)
	g.Edges(func(u, w graph.VertexID) {
		if u != w {
			off[u+2]++
			off[w+2]++
		}
	})
	for i := 2; i <= n+1; i++ {
		off[i] += off[i-1]
	}
	nbr := make([]graph.VertexID, off[n+1])
	g.Edges(func(u, w graph.VertexID) {
		if u != w {
			nbr[off[u+1]] = w
			off[u+1]++
			nbr[off[w+1]] = u
			off[w+1]++
		}
	})
	return adjacency{off: off[:n+1], nbr: nbr}
}

// coarsen runs capped label propagation over adj, leaving the cluster
// label of every vertex in labels. Labels are drawn from the vertex-ID
// space (a cluster is named after some member). Every round shuffles
// the whole visit order, but only dirty vertices (see dirtySet) are
// re-evaluated: a clean one would stay where it is.
func coarsen(adj adjacency, labels []int32, capacity int32, rounds int, rng *splitMix) {
	n := len(labels)
	size := make([]int32, n)  // cluster label -> member count
	fullLabel := newBitset(n) // labels with size >= capacity
	order := make([]int32, n)
	for v := range labels {
		labels[v], size[v], order[v] = int32(v), 1, int32(v)
		if size[v] >= capacity {
			fullLabel.set(int32(v))
		}
	}
	var tl tally
	dirty := newDirtySet(n)
	var sink int64
	for round := 0; round < rounds; round++ {
		rng.shuffle(order)
		moved := 0
		for i, v := range order {
			if i+16 < n { // read ahead: see prefetchSink
				if u := order[i+16]; !dirty.clean.has(u) {
					sink += adj.off[u]
				}
				if u := order[i+8]; !dirty.clean.has(u) && adj.off[u] < adj.off[u+1] {
					sink += int64(adj.nbr[adj.off[u]])
				}
				if u := order[i+4]; !dirty.clean.has(u) {
					for _, w := range adj.row(u) {
						sink += int64(labels[w])
					}
				}
			}
			if !dirty.take(v) {
				continue
			}
			cur := labels[v]
			row := adj.row(v)
			tl.reset(len(row))
			for _, w := range row {
				tl.add(labels[w])
			}
			// Pick the heaviest neighbor label with room; prefer the
			// current label on ties (stability), then the smallest label
			// (determinism regardless of visit order).
			best, bestCount := cur, tl.count[tl.slot(cur)]
			for _, i := range tl.used {
				l, c := tl.label[i], tl.count[i]
				if l == cur || fullLabel.has(l) {
					continue
				}
				// Only a strictly heavier label displaces the current one
				// (stability); among equally-heavy challengers the smallest
				// label wins (determinism regardless of visit order).
				if c > bestCount || (c == bestCount && best != cur && l < best) {
					best, bestCount = l, c
				}
			}
			for _, i := range tl.used {
				if l := tl.label[i]; tl.count[i] > bestCount && fullLabel.has(l) {
					dirty.block(v, l)
				}
			}
			if best != cur {
				if fullLabel.has(cur) {
					fullLabel.unset(cur)
					dirty.freed(cur)
				}
				size[cur]--
				size[best]++
				if size[best] == capacity {
					fullLabel.set(best)
				}
				labels[v] = best
				moved++
				dirty.moved(adj, v, labels)
			}
		}
		if moved == 0 {
			break
		}
	}
	prefetchSink.Add(sink)
}

// prefetchSink receives the sums of coarsen's read-ahead. Each visit
// first reads what evaluating a vertex further down the visit order
// will read — the row offsets of the vertex 16 places ahead, the row of
// the one 8 ahead (its offsets read 8 visits ago), the neighbors'
// labels of the one 4 ahead (its row read 4 visits ago) — skipping
// clean vertices, which will not be evaluated. The cache misses of the
// vertices to come then overlap with the work on the current one
// instead of queuing behind it. Nothing reads the sink; storing the
// sum only keeps the compiler from dropping the reads.
var prefetchSink atomic.Int64

// tally counts the labels of one vertex's neighbors in an
// open-addressing table of at least twice the vertex's degree, so the
// counts stay in cache however many labels the graph has.
type tally struct {
	label []int32 // per slot, -1 when empty
	count []int32
	used  []int32 // occupied slots, in the order they were filled
	mask  uint32
}

// reset empties the table and readies it for a vertex of the given
// degree.
func (t *tally) reset(degree int) {
	for _, i := range t.used {
		t.label[i], t.count[i] = -1, 0
	}
	t.used = t.used[:0]
	size := 1 << bits.Len(uint(2*degree))
	for len(t.label) < size {
		t.label, t.count = append(t.label, -1), append(t.count, 0)
	}
	t.mask = uint32(size - 1)
}

// slot returns the slot holding l, or the empty one where it would go.
func (t *tally) slot(l int32) uint32 {
	h := uint32(l) * 0x9E3779B1
	i := (h ^ h>>15) & t.mask
	for t.label[i] != l && t.label[i] >= 0 {
		i = (i + 1) & t.mask
	}
	return i
}

func (t *tally) add(l int32) {
	i := t.slot(l)
	if t.label[i] < 0 {
		t.label[i] = l
		t.used = append(t.used, int32(i))
	}
	t.count[i]++
}

// pack densifies the cluster labels and greedily bin-packs clusters
// onto k partitions: clusters in decreasing size order, each placed on
// the partition it shares the most inter-cluster edge weight with among
// partitions with room. A cluster no partition can hold whole (packing
// fragmentation) is split across least-loaded partitions vertex by
// vertex, so the capacity cap holds unconditionally. Returns the
// per-vertex partition assignment.
func pack(adj adjacency, labels []int32, k int, capacity int32) []int32 {
	n := len(labels)
	// Densify cluster IDs.
	dense := make([]int32, n) // label -> dense cluster id, lazily assigned
	for i := range dense {
		dense[i] = -1
	}
	var sizes []int32
	for _, l := range labels {
		if dense[l] < 0 {
			dense[l] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		sizes[dense[l]]++
	}
	nc := len(sizes)

	// Cluster members, contiguous: a counting sort of vertices by
	// cluster, members[start[c]:start[c+1]] being cluster c's.
	start := make([]int32, nc+1)
	for c := range sizes {
		start[c+1] = start[c] + sizes[c]
	}
	next := slices.Clone(start[:nc])
	members := make([]int32, n)
	for v, l := range labels {
		c := dense[l]
		members[next[c]] = int32(v)
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
	part := make([]int32, n) // -1 until v's cluster is placed
	for v := range part {
		part[v] = -1
	}
	load := make([]int32, k)
	aff := make([]int64, k)
	for _, c := range orderC {
		// aff gets every edge between c and an already placed cluster,
		// once: such an edge has exactly one endpoint among c's members,
		// whose own partition is still -1.
		clear(aff)
		mem := members[start[c]:start[c+1]]
		for _, u := range mem {
			for _, w := range adj.row(u) {
				if p := part[w]; p >= 0 {
					aff[p]++
				}
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
			load[best] += sizes[c]
			for _, u := range mem {
				part[u] = best
			}
		}
	}
	for v := range part {
		if part[v] >= 0 {
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

// refine performs FM-style single-vertex moves over adj: a vertex moves
// to the partition holding most of its neighbors when that strictly
// reduces the number of cut edges and the destination has room. Each
// pass scans vertices in ID order; passes stop early once nothing
// moves. Total cut weight strictly decreases with every move, so
// termination is guaranteed without FM's tenure bookkeeping. As in
// coarsen, only dirty vertices are re-evaluated.
func refine(adj adjacency, part []int32, k int, capacity int32, passes int) {
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
			row := adj.row(v)
			clear(ext)
			for _, w := range row {
				ext[part[w]]++
			}
			if int64(len(row)) == ext[p] {
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
			for q := int32(0); q < int32(k); q++ {
				if load[q]+1 > capacity && ext[q] > ext[best] {
					dirty.block(v, q)
				}
			}
			if best != p {
				load[p]--
				load[best]++
				part[v] = best
				moved++
				dirty.moved(adj, v, part)
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
	clean   bitset
	blocked map[int32][]int32 // full label -> vertices it kept from moving
}

func newDirtySet(n int) dirtySet {
	return dirtySet{clean: newBitset(n), blocked: map[int32][]int32{}}
}

// take reports whether v is dirty and marks it clean: the caller
// evaluates it now.
func (d *dirtySet) take(v int32) bool {
	if d.clean.has(v) {
		return false
	}
	d.clean.set(v)
	return true
}

// moved dirties the neighbors of v, which just changed label, that are
// not in v's new label.
func (d *dirtySet) moved(adj adjacency, v int32, labels []int32) {
	l := labels[v]
	for _, w := range adj.row(v) {
		if labels[w] != l {
			d.clean.unset(int32(w))
		}
	}
}

// block records that v, deciding now, would prefer the full label l to
// the one it keeps.
func (d *dirtySet) block(v, l int32) { d.blocked[l] = append(d.blocked[l], v) }

// freed dirties the vertices the full label l blocked: it has room again.
func (d *dirtySet) freed(l int32) {
	for _, v := range d.blocked[l] {
		d.clean.unset(v)
	}
	delete(d.blocked, l)
}

// bitset is a set of vertices or labels, one bit each: n/8 bytes, so
// the per-vertex flags a phase tests on every visit stay in cache.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int32)    { b[i>>6] &^= 1 << (i & 63) }

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
