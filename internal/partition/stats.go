package partition

import (
	"fmt"

	"dsr/internal/graph"
)

// Stats quantifies the quality of a partitioning for DSR: the boundary
// graph's vertex set is exactly the boundary vertices, and every cut
// edge is a stitched cross-partition edge, so both numbers directly
// bound cross-partition query traffic. Balance measures how evenly the
// vertices spread (1.0 is perfect).
type Stats struct {
	K                int
	NumVertices      int
	NumEdges         int
	BoundaryVertices int     // vertices with any cross-partition edge
	CutEdges         int     // directed edges whose endpoints differ in partition
	MaxPart, MinPart int     // largest and smallest partition sizes
	Balance          float64 // MaxPart / (NumVertices/K); 0 for empty graphs
}

// ComputeStats measures pt over g. pt must cover g's vertices.
func ComputeStats(g *graph.Graph, pt *graph.Partitioning) Stats {
	n := g.NumVertices()
	st := Stats{K: pt.K, NumVertices: n, NumEdges: g.NumEdges()}
	sizes := make([]int, pt.K)
	for _, p := range pt.Part {
		sizes[p]++
	}
	st.MaxPart, st.MinPart = 0, n
	for _, s := range sizes {
		if s > st.MaxPart {
			st.MaxPart = s
		}
		if s < st.MinPart {
			st.MinPart = s
		}
	}
	if n > 0 {
		st.Balance = float64(st.MaxPart) * float64(pt.K) / float64(n)
	} else {
		st.MinPart = 0
	}
	// The cut-edge pass marks both ends of every cut edge: those are
	// the boundary vertices.
	boundary := make([]bool, n)
	g.Edges(func(u, v graph.VertexID) {
		if pt.Part[u] != pt.Part[v] {
			st.CutEdges++
			boundary[u], boundary[v] = true, true
		}
	})
	for _, b := range boundary {
		if b {
			st.BoundaryVertices++
		}
	}
	return st
}

// String renders the stats compactly for logs.
func (st Stats) String() string {
	return fmt.Sprintf("k=%d vertices=%d edges=%d boundary=%d cut=%d balance=%.3f (max=%d min=%d)",
		st.K, st.NumVertices, st.NumEdges, st.BoundaryVertices, st.CutEdges, st.Balance, st.MaxPart, st.MinPart)
}
