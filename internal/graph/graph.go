// Package graph provides the in-memory directed graph used by the DSR
// engine: a compact forward CSR (compressed sparse row) representation,
// an incremental Builder, an edge-list loader, and deterministic
// partitioners that label every vertex with a partition. Boundary
// vertices are not marked here: internal/partition derives them per
// partition from its crossing edges.
package graph

// VertexID identifies a vertex. Vertices are dense: 0..NumVertices()-1.
type VertexID = uint32

// Graph is an immutable directed graph in CSR form, out-neighbors only.
// Nothing reads a vertex's in-neighbors from it: backward searches run
// on a partition's condensation (internal/scc), and the locality
// partitioner builds the undirected view it walks itself.
type Graph struct {
	offsets []int64
	edges   []VertexID
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges (multi-edges counted).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Out returns the out-neighbors of v as a shared slice; callers must not
// mutate it.
func (g *Graph) Out(v VertexID) []VertexID {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// Edges calls fn for every directed edge (u, v).
func (g *Graph) Edges(fn func(u, v VertexID)) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(VertexID(u)) {
			fn(VertexID(u), v)
		}
	}
}

// Fingerprint returns a deterministic 64-bit FNV-1a digest of the
// graph's exact structure: the vertex count and every directed edge in
// CSR order (multi-edges included). Two processes that load the same
// edge list get the same fingerprint, so the distributed handshake can
// refuse a shard whose graph differs even when the vertex count
// happens to match.
func (g *Graph) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, uint64(g.NumVertices()))
	for u := 0; u < g.NumVertices(); u++ {
		nbrs := g.Out(VertexID(u))
		h = fnvMix(h, uint64(len(nbrs)))
		for _, v := range nbrs {
			h = fnvMix(h, uint64(v))
		}
	}
	return h
}

// fnvOffset is the FNV-1a 64-bit offset basis, the state fnvMix starts
// from.
const fnvOffset = 14695981039346656037

// fnvMix folds the 8 little-endian bytes of x into the FNV-1a 64-bit
// state h.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xFF
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n   int
	src []VertexID
	dst []VertexID
}

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// EnsureVertex grows the vertex count so that v is a valid vertex.
func (b *Builder) EnsureVertex(v VertexID) {
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
}

// AddEdge records the directed edge u -> v, growing the vertex count as
// needed.
func (b *Builder) AddEdge(u, v VertexID) {
	b.EnsureVertex(u)
	b.EnsureVertex(v)
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// Build produces the CSR graph. The Builder may be reused afterwards, but
// edges already added remain.
func (b *Builder) Build() *Graph {
	// Counting sort by source, stable so a row keeps insertion order.
	// Source u's count goes to off[u+2]; after the prefix sum off[u+1]
	// is where row u starts, and it serves as u's cursor while filling,
	// so it ends where row u+1 starts: off[:n+1] are the row offsets.
	off := make([]int64, b.n+2)
	for _, u := range b.src {
		off[u+2]++
	}
	for i := 2; i <= b.n+1; i++ {
		off[i] += off[i-1]
	}
	edges := make([]VertexID, len(b.src))
	for i, u := range b.src {
		edges[off[u+1]] = b.dst[i]
		off[u+1]++
	}
	return &Graph{offsets: off[:b.n+1], edges: edges}
}
