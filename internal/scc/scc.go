// Package scc decomposes a directed graph into strongly connected
// components and builds the condensation from the result: the SCC DAG
// in CSR form, both ways, with the vertex→component map and its
// serialisation (CondensationData). The condensation lets a shard's
// searches — queries and the boundary summary alike — walk components
// instead of vertices. A bitset reachability index over a set of exits
// (Index) is kept beside it with no product caller: it is the summary's
// independent oracle in tests and a timed layer of the benchmark.
//
// The decomposition is Tarjan's algorithm made fully iterative
// (explicit DFS frames, no recursion), so partition-sized graphs with
// deep path structure cannot overflow the goroutine stack. A frame is a
// vertex and the index of its next edge; each time the walk resumes a
// frame it fetches the vertex's row once and scans on until it finds an
// unvisited successor or the row ends. The condensation writes the
// forward DAG rows straight from the vertices grouped by component, and
// the reverse rows with one counting scatter from the forward ones.
package scc

// Adjacency is the minimal read-only graph view the decomposition
// needs: dense int32 vertex IDs in [0, NumVertices()) and forward
// adjacency. partition.Subgraph implements it.
type Adjacency interface {
	NumVertices() int
	Out(v int32) []int32
}

// frame is one suspended DFS visit: the vertex and the index of its
// next unexplored out-edge.
type frame struct {
	v  int32
	ei int32
}

// Workspace holds the transient arrays Decompose and Condense need.
// Reusing one Workspace across calls (e.g. per build-pool goroutine
// compressing many partitions) amortizes the O(V) scratch allocations;
// only the returned artifacts themselves are freshly allocated. The
// zero value is ready to use, and a nil *Workspace is accepted
// everywhere, meaning "allocate privately".
type Workspace struct {
	num     []int32 // discovery order, 0 = unvisited
	low     []int32 // Tarjan low-link
	onStack []bool
	stack   []int32 // Tarjan component stack
	frames  []frame // explicit DFS stack
	dag     []int32 // forward DAG rows, staged until their total is known
	seen    []int32 // per-source-component dedup marks
	cnt     []int32 // CSR fill cursors
	members []int32 // vertices grouped by component, for the edge scan
}

// grow readies the workspace for a graph with n vertices.
func (ws *Workspace) grow(n int) {
	if cap(ws.num) < n {
		ws.num = make([]int32, n)
		ws.low = make([]int32, n)
		ws.onStack = make([]bool, n)
		ws.seen = make([]int32, n)
	}
	ws.num = ws.num[:n]
	ws.low = ws.low[:n]
	ws.onStack = ws.onStack[:n]
	ws.seen = ws.seen[:n]
	clear(ws.num)
	clear(ws.onStack)
	ws.stack = ws.stack[:0]
	ws.frames = ws.frames[:0]
}

// counters returns an n-element zeroed cursor slice backed by the
// workspace.
func (ws *Workspace) counters(n int) []int32 {
	if cap(ws.cnt) < n {
		ws.cnt = make([]int32, n)
	}
	ws.cnt = ws.cnt[:n]
	clear(ws.cnt)
	return ws.cnt
}

// Decompose returns the strongly connected components of g as a
// vertex→component labeling plus the component count. Components are
// numbered in reverse topological order of the condensation: for every
// edge u→v that crosses components, comp[u] > comp[v]. (Tarjan emits an
// SCC only after every SCC reachable from it, so emission order is
// exactly this order.) ws may be nil.
func Decompose(g Adjacency, ws *Workspace) (comp []int32, ncomp int) {
	if ws == nil {
		ws = &Workspace{}
	}
	n := g.NumVertices()
	ws.grow(n)
	comp = make([]int32, n)
	next := int32(1) // discovery counter; 0 means unvisited
	nc := int32(0)
	for r := 0; r < n; r++ {
		if ws.num[r] != 0 {
			continue
		}
		ws.num[r], ws.low[r] = next, next
		next++
		ws.stack = append(ws.stack, int32(r))
		ws.onStack[r] = true
		ws.frames = append(ws.frames, frame{v: int32(r)})
	resume:
		for len(ws.frames) > 0 {
			// Resume the top frame: fetch its row once, scan it from
			// where the frame left off, and suspend the frame again at
			// the first unvisited successor, which becomes the new top.
			top := len(ws.frames) - 1
			v := ws.frames[top].v
			out := g.Out(v)
			for ei := ws.frames[top].ei; int(ei) < len(out); ei++ {
				w := out[ei]
				if ws.num[w] == 0 {
					ws.frames[top].ei = ei + 1
					ws.num[w], ws.low[w] = next, next
					next++
					ws.stack = append(ws.stack, w)
					ws.onStack[w] = true
					ws.frames = append(ws.frames, frame{v: w})
					continue resume
				}
				if ws.onStack[w] && ws.num[w] < ws.low[v] {
					ws.low[v] = ws.num[w]
				}
			}
			// v is fully explored: return to the parent, then emit an
			// SCC if v is its root.
			ws.frames = ws.frames[:top]
			if len(ws.frames) > 0 {
				if p := &ws.frames[len(ws.frames)-1]; ws.low[v] < ws.low[p.v] {
					ws.low[p.v] = ws.low[v]
				}
			}
			if ws.low[v] == ws.num[v] {
				for {
					w := ws.stack[len(ws.stack)-1]
					ws.stack = ws.stack[:len(ws.stack)-1]
					ws.onStack[w] = false
					comp[w] = nc
					if w == v {
						break
					}
				}
				nc++
			}
		}
	}
	return comp, int(nc)
}
