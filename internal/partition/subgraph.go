// Package partition extracts per-partition subgraphs from a partitioned
// graph: the induced CSR adjacency with dense local IDs, the boundary
// in-nodes (entries) and out-nodes (exits), and the cross-partition
// edges. A shard (internal/shard) compresses its subgraph into the
// boundary summary — for every entry, the exits it reaches without
// leaving the partition — which the DSR engine stitches into the global
// boundary graph, so cross-partition query traffic only ever involves
// boundary vertices.
package partition

import (
	"math/bits"

	"dsr/internal/graph"
	"dsr/internal/scc"
)

// Subgraph is the induced subgraph of one partition with dense local
// vertex IDs and both forward and reverse CSR adjacency over the
// intra-partition edges only.
type Subgraph struct {
	ID     int
	global []graph.VertexID // local -> global
	foff   []int64
	fedges []int32
	roff   []int64
	redges []int32
	// Entries and Exits are local IDs of boundary in-/out-nodes.
	Entries []int32
	Exits   []int32
	// Cross holds the cross-partition edges whose source lies in this
	// partition, as (source, destination) global-ID pairs. Together
	// with the entry→exit summaries these are the partition's whole
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

	// Lazily built and cached by Condensation. Not synchronized:
	// concurrent builders must each own distinct subgraphs (as the
	// engine's build pool does), or build it before they share one.
	cond *scc.Condensation
}

// NumVertices returns the number of vertices in the partition.
func (s *Subgraph) NumVertices() int { return len(s.global) }

// GlobalID maps a local vertex ID back to the global ID.
func (s *Subgraph) GlobalID(local int32) graph.VertexID { return s.global[local] }

// Local maps a global vertex ID to its local ID within the partition,
// or reports false if the vertex is not owned by it. The local→global
// map is strictly increasing by construction (both Extract and
// ExtractOne assign local IDs in global order), so a vertex's local ID
// is its rank among the owned IDs: the count before its bitmap word
// plus a popcount of the bits below it. A vertex the partition does not
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

// In returns the local in-neighbors of v over intra-partition edges.
// Callers must not mutate the returned slice.
func (s *Subgraph) In(v int32) []int32 { return s.redges[s.roff[v]:s.roff[v+1]] }

// Condensation returns the SCC condensation of the subgraph, building
// and caching it on first call.
func (s *Subgraph) Condensation() *scc.Condensation {
	if s.cond == nil {
		s.cond = scc.Condense(s, nil)
	}
	return s.cond
}

// Extract splits g into one Subgraph per partition. The returned local
// slice maps every global vertex to its local ID within its partition.
func Extract(g *graph.Graph, pt *graph.Partitioning) ([]*Subgraph, []int32) {
	n := g.NumVertices()
	local := make([]int32, n)
	subs := make([]*Subgraph, pt.K)
	for p := range subs {
		subs[p] = &Subgraph{ID: p}
	}
	for v := 0; v < n; v++ {
		s := subs[pt.Part[v]]
		local[v] = int32(len(s.global))
		s.global = append(s.global, graph.VertexID(v))
	}
	for _, s := range subs {
		s.buildRank()
		s.foff = make([]int64, s.NumVertices()+1)
		s.roff = make([]int64, s.NumVertices()+1)
	}
	// Two passes over the edge set: count, then fill. Cross-partition
	// edges are collected (keyed by their source's partition) on the
	// count pass.
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			s.foff[local[u]+1]++
			s.roff[local[v]+1]++
		} else {
			s := subs[pt.Part[u]]
			s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
		}
	})
	for _, s := range subs {
		s.finishOffsets()
	}
	fcur := make([]int64, n)
	rcur := make([]int64, n)
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] == pt.Part[v] {
			s := subs[pt.Part[u]]
			lu, lv := local[u], local[v]
			s.fedges[s.foff[lu]+fcur[u]] = lv
			fcur[u]++
			s.redges[s.roff[lv]+rcur[v]] = lu
			rcur[v]++
		}
	})
	for v := 0; v < n; v++ {
		subs[pt.Part[v]].markBoundary(pt, graph.VertexID(v), local[v])
	}
	return subs, local
}

// finishOffsets turns the per-vertex degree counts accumulated in
// foff/roff (at index i+1) into prefix-sum offsets and allocates the
// edge arrays — the step between the count pass and the fill pass of
// CSR construction.
func (s *Subgraph) finishOffsets() {
	for i := 1; i <= s.NumVertices(); i++ {
		s.foff[i] += s.foff[i-1]
		s.roff[i] += s.roff[i-1]
	}
	s.fedges = make([]int32, s.foff[s.NumVertices()])
	s.redges = make([]int32, s.roff[s.NumVertices()])
}

// markBoundary appends local vertex lv (global gv) to the Entries/Exits
// lists according to the partitioning's boundary marks. Absent marks (a
// hand-rolled Partitioning) read as non-boundary, matching
// Partitioning.IsBoundary.
func (s *Subgraph) markBoundary(pt *graph.Partitioning, gv graph.VertexID, lv int32) {
	if int(gv) < len(pt.Entry) && pt.Entry[gv] {
		s.Entries = append(s.Entries, lv)
	}
	if int(gv) < len(pt.Exit) && pt.Exit[gv] {
		s.Exits = append(s.Exits, lv)
	}
}

// ExtractOne builds only partition id's Subgraph — what a standalone
// shard server needs. Unlike Extract it never materializes the other
// partitions' CSR copies: peak extra memory is one int32 per graph
// vertex for the local-ID map plus this partition's own adjacency, so
// shard-process startup memory scales with the shard's share of the
// graph, not with all k partitions.
func ExtractOne(g *graph.Graph, pt *graph.Partitioning, id int) *Subgraph {
	n := g.NumVertices()
	s := &Subgraph{ID: id}
	local := make([]int32, n)
	for v := 0; v < n; v++ {
		if pt.Part[v] == int32(id) {
			local[v] = int32(len(s.global))
			s.global = append(s.global, graph.VertexID(v))
		}
	}
	s.buildRank()
	s.foff = make([]int64, s.NumVertices()+1)
	s.roff = make([]int64, s.NumVertices()+1)
	// Two passes over this partition's out-edges only: count, then fill.
	// Every intra-partition edge has its source here, so this covers the
	// reverse adjacency too — and every cross-partition edge this
	// partition contributes to the boundary graph has its source here,
	// so the count pass collects them.
	for _, u := range s.global {
		for _, v := range g.Out(u) {
			if pt.Part[v] == int32(id) {
				s.foff[local[u]+1]++
				s.roff[local[v]+1]++
			} else {
				s.Cross = append(s.Cross, [2]graph.VertexID{u, v})
			}
		}
	}
	s.finishOffsets()
	fcur := make([]int64, s.NumVertices())
	rcur := make([]int64, s.NumVertices())
	for _, u := range s.global {
		lu := local[u]
		for _, v := range g.Out(u) {
			if pt.Part[v] == int32(id) {
				lv := local[v]
				s.fedges[s.foff[lu]+fcur[lu]] = lv
				fcur[lu]++
				s.redges[s.roff[lv]+rcur[lv]] = lu
				rcur[lv]++
			}
		}
	}
	for _, u := range s.global {
		s.markBoundary(pt, u, local[u])
	}
	return s
}
