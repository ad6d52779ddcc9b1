// Package partition extracts per-partition subgraphs from a partitioned
// graph: the induced forward CSR adjacency with dense local IDs, the
// boundary in-nodes (entries) and out-nodes (exits), and the
// cross-partition edges. The boundary is derived here, per partition,
// from that partition's own crossing edges — an exit is the source of
// one of its cross edges, an entry the target of another partition's —
// since a graph.Partitioning is only the labels. A shard
// (internal/shard) condenses its subgraph into SCCs and compresses it
// into the boundary summary — for every entry, the exits it reaches
// without leaving the partition — which the DSR engine stitches into
// the global boundary graph, so cross-partition query traffic only ever
// involves boundary vertices.
package partition

import (
	"math/bits"

	"dsr/internal/graph"
)

// Subgraph is the induced subgraph of one partition with dense local
// vertex IDs and forward CSR adjacency over the intra-partition edges
// only. It is immutable once built, so any number of shards — replicas
// of one partition — may share it.
type Subgraph struct {
	global []graph.VertexID // local -> global
	foff   []int64
	fedges []int32
	// Entries and Exits are the local IDs of the boundary in-nodes
	// (targets of another partition's cross edges) and out-nodes
	// (sources of this partition's cross edges), each increasing.
	Entries []int32
	Exits   []int32
	// Cross holds the cross-partition edges whose source lies in this
	// partition, as (source, destination) global-ID pairs. Together
	// with the summary edges these are the partition's whole
	// contribution to the global boundary graph, which is what a shard
	// ships to a graph-free coordinator.
	Cross [][2]graph.VertexID

	// The rank index behind Local, derived from global by buildRank and
	// never persisted: owned is a bitmap over the partition's ID span
	// [base, global[len-1]] with bit gv-base set iff gv is owned, and
	// rank[w] counts the owned IDs below word w — 1.5 bits per ID of the
	// span.
	base  graph.VertexID
	owned []uint64
	rank  []int32
}

// NumVertices returns the number of vertices in the partition.
func (s *Subgraph) NumVertices() int { return len(s.global) }

// GlobalID maps a local vertex ID back to the global ID.
func (s *Subgraph) GlobalID(local int32) graph.VertexID { return s.global[local] }

// Local maps a global vertex ID to its local ID within the partition,
// or reports false if the vertex is not owned by it. The local→global
// map is strictly increasing by construction (ExtractOne assigns local
// IDs in global order), so a vertex's local ID is its rank among the
// owned IDs: the count before its bitmap word plus a popcount of the
// bits below it. A vertex the partition does not
// own — what a broadcast seed is on all shards but one — costs one bit
// test. Every shard resolves task seeds for itself this way, so the
// coordinator needs no placement table.
func (s *Subgraph) Local(gv graph.VertexID) (int32, bool) {
	d := gv - s.base // wraps past the bitmap below the span
	w := int(d >> 6)
	if w >= len(s.owned) {
		return 0, false
	}
	word, bit := s.owned[w], uint64(1)<<(d&63)
	if word&bit == 0 {
		return 0, false
	}
	return s.rank[w] + int32(bits.OnesCount64(word&(bit-1))), true
}

// buildRank derives the rank index from the finished local→global map.
// Every constructor of a Subgraph ends with it.
func (s *Subgraph) buildRank() {
	if len(s.global) == 0 {
		return
	}
	s.base = s.global[0]
	words := int((s.global[len(s.global)-1]-s.base)>>6) + 1
	s.owned = make([]uint64, words)
	s.rank = make([]int32, words)
	for _, gv := range s.global {
		d := gv - s.base
		s.owned[d>>6] |= 1 << (d & 63)
	}
	for w := 1; w < words; w++ {
		s.rank[w] = s.rank[w-1] + int32(bits.OnesCount64(s.owned[w-1]))
	}
}

// Out returns the local out-neighbors of v over intra-partition edges.
// Together with NumVertices it implements scc.Adjacency. Callers must
// not mutate the returned slice.
func (s *Subgraph) Out(v int32) []int32 { return s.fedges[s.foff[v]:s.foff[v+1]] }

// Extract splits g into one Subgraph per partition, each built by
// ExtractOne.
func Extract(g *graph.Graph, pt *graph.Partitioning) []*Subgraph {
	subs := make([]*Subgraph, pt.K)
	for p := range subs {
		subs[p] = ExtractOne(g, pt, p)
	}
	return subs
}

// ExtractOne builds only partition id's Subgraph — what a standalone
// shard server needs. Peak extra memory is one int32 per graph vertex
// for the local-ID map plus this partition's own adjacency, so
// shard-process startup memory scales with the shard's share of the
// graph, not with all k partitions.
func ExtractOne(g *graph.Graph, pt *graph.Partitioning, id int) *Subgraph {
	n := g.NumVertices()
	own := int32(id)
	s := &Subgraph{}
	local := make([]int32, n)
	for v := 0; v < n; v++ {
		if pt.Part[v] == own {
			local[v] = int32(len(s.global))
			s.global = append(s.global, graph.VertexID(v))
		}
	}
	s.buildRank()
	// Two passes over this partition's out-edges only: count, then fill.
	// Every intra-partition edge and every cross-partition edge this
	// partition contributes to the boundary graph has its source here, so
	// the count pass collects the cross edges and with them the exits,
	// and visiting sources in local order lays the fill pass out row
	// after row.
	s.foff = make([]int64, len(s.global)+1)
	for i, u := range s.global {
		intra, cross := int64(0), len(s.Cross)
		for _, v := range g.Out(u) {
			if pt.Part[v] == own {
				intra++
			} else {
				s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
			}
		}
		if len(s.Cross) > cross {
			s.Exits = append(s.Exits, int32(i))
		}
		s.foff[i+1] = s.foff[i] + intra
	}
	s.fedges = make([]int32, 0, s.foff[len(s.global)])
	for _, u := range s.global {
		for _, v := range g.Out(u) {
			if pt.Part[v] == own {
				s.fedges = append(s.fedges, local[v])
			}
		}
	}
	// The entries are the one fact that lives in the other partitions'
	// rows: one scan of their out-edges marks every target owned here.
	entry := make([]uint64, (len(s.global)+63)/64)
	for u := 0; u < n; u++ {
		if pt.Part[u] == own {
			continue
		}
		for _, v := range g.Out(graph.VertexID(u)) {
			if pt.Part[v] == own {
				entry[local[v]>>6] |= 1 << (local[v] & 63)
			}
		}
	}
	s.Entries = bitList(entry)
	return s
}

// bitList returns the positions of m's set bits in increasing order: a
// boundary list from its marks.
func bitList(m []uint64) []int32 {
	var out []int32
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}
