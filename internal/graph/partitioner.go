package graph

import "fmt"

// Partitioning assigns every vertex to exactly one of K partitions:
// Part[v] is v's partition. It is only the labels. Which vertices sit on
// a partition boundary — an entry with an in-edge from another
// partition, an exit with an out-edge into one — is a fact about one
// partition's crossing edges, and partition.ExtractOne derives it for
// the partition it extracts.
type Partitioning struct {
	K    int
	Part []int32
}

// Digest returns a deterministic FNV-1a digest of the partition
// assignment (K and every vertex's label). Coordinator and shard
// exchange it during the connect-time handshake, so two processes that
// picked different partitioners — or the same locality partitioner with
// different seeds — refuse each other instead of silently disagreeing
// about vertex placement. 0 is never returned, so a digest can always
// be distinguished from "not computed".
func (p *Partitioning) Digest() uint64 {
	h := fnvMix(fnvOffset, uint64(p.K))
	for _, l := range p.Part {
		h = fnvMix(h, uint64(uint32(l)))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Partitioner is a strategy for splitting a graph into k parts. All
// implementations must be deterministic — the distributed deployment
// relies on coordinator and shards computing identical placements from
// the same graph — and Name identifies the strategy in logs and CLI
// flags. Hash and Range live here; the locality-aware partitioner is
// partition/locality.New (it needs the whole edge set, not just a
// per-vertex function).
type Partitioner interface {
	Name() string
	Partition(g *Graph, k int) (*Partitioning, error)
}

// funcPartitioner adapts a stateless PartitionFunc to the Partitioner
// interface.
type funcPartitioner struct {
	name string
	fn   PartitionFunc
}

func (p funcPartitioner) Name() string { return p.name }
func (p funcPartitioner) Partition(g *Graph, k int) (*Partitioning, error) {
	return PartitionWith(g, k, p.fn)
}

// Hash returns the deterministic multiplicative-hash Partitioner.
func Hash() Partitioner { return funcPartitioner{"hash", HashPartitionFunc} }

// Range returns the contiguous-vertex-range Partitioner.
func Range() Partitioner { return funcPartitioner{"range", RangePartitionFunc} }

// PartitionFunc maps a vertex to a partition in [0, k) given the total
// vertex count n. It must be deterministic.
type PartitionFunc func(v VertexID, n, k int) int32

// HashPartitionFunc spreads vertices across partitions with a fixed
// multiplicative hash (Knuth's 2654435761), so the assignment is
// deterministic across runs and processes.
func HashPartitionFunc(v VertexID, _ int, k int) int32 {
	h := uint64(v) * 2654435761
	h ^= h >> 16
	return int32(h % uint64(k))
}

// RangePartitionFunc assigns contiguous, near-equal vertex ranges to
// partitions: useful when vertex IDs are locality-preserving.
func RangePartitionFunc(v VertexID, n, k int) int32 {
	if n == 0 {
		return 0
	}
	per := (n + k - 1) / k
	p := int(v) / per
	if p >= k {
		p = k - 1
	}
	return int32(p)
}

// PartitionWith labels every vertex with fn, refusing a label outside
// [0, k). It reads no edges.
func PartitionWith(g *Graph, k int, fn PartitionFunc) (*Partitioning, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: partition count must be >= 1, got %d", k)
	}
	n := g.NumVertices()
	pt := &Partitioning{K: k, Part: make([]int32, n)}
	for v := 0; v < n; v++ {
		p := fn(VertexID(v), n, k)
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("graph: partition func returned %d for vertex %d, want [0,%d)", p, v, k)
		}
		pt.Part[v] = p
	}
	return pt, nil
}
