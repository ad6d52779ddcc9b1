package dsr

import "dsr/internal/graph"

// NaiveReach is the differential-testing oracle: a whole-graph BFS from
// every source in S, answering the same question as one query of
// Engine.QueryBatchErr without any partitioning. Reachability is
// reflexive, matching the engine.
func NaiveReach(g *graph.Graph, S, T []graph.VertexID) bool {
	n := graph.VertexID(g.NumVertices())
	inT := make(map[graph.VertexID]bool, len(T))
	for _, t := range T {
		if t < n {
			inT[t] = true
		}
	}
	if len(inT) == 0 {
		return false
	}
	visited := make([]bool, n)
	var queue []graph.VertexID
	for _, s := range S {
		if s >= n {
			continue
		}
		if inT[s] {
			return true
		}
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Out(queue[head]) {
			if !visited[w] {
				if inT[w] {
					return true
				}
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}
