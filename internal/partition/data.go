package partition

import (
	"fmt"

	"dsr/internal/graph"
	"dsr/internal/scc"
)

// SubgraphData is the raw array content of a Subgraph, exposed so a
// persisted snapshot can round-trip the extracted partition without
// re-reading the edge list or re-running ExtractOne. Data returns live
// views (no copies); SubgraphFromData validates and reassembles,
// attaching an already-reconstructed condensation so Tarjan is not
// re-run on load.
type SubgraphData struct {
	ID             int
	Global         []graph.VertexID // local -> global, strictly increasing
	FOff           []int64
	FEdges         []int32
	ROff           []int64
	REdges         []int32
	Entries, Exits []int32
	Cross          [][2]graph.VertexID
}

// Data returns views of the subgraph's raw arrays. Callers must treat
// them as read-only: they alias the live subgraph.
func (s *Subgraph) Data() SubgraphData {
	return SubgraphData{
		ID:      s.ID,
		Global:  s.global,
		FOff:    s.foff,
		FEdges:  s.fedges,
		ROff:    s.roff,
		REdges:  s.redges,
		Entries: s.Entries,
		Exits:   s.Exits,
		Cross:   s.Cross,
	}
}

// checkLocalCSR validates one CSR half of the subgraph: offsets start
// at 0, never decrease, end exactly at the edge-array length, and every
// edge target is a valid local vertex.
func checkLocalCSR(name string, off []int64, edges []int32, n int) error {
	if len(off) != n+1 {
		return fmt.Errorf("partition: %s offsets have %d entries for %d vertices", name, len(off), n)
	}
	if off[0] != 0 {
		return fmt.Errorf("partition: %s offsets must start at 0", name)
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("partition: %s offsets decrease at %d", name, i)
		}
	}
	if int(off[n]) != len(edges) {
		return fmt.Errorf("partition: %s offsets end at %d, want %d", name, off[n], len(edges))
	}
	for i, e := range edges {
		if e < 0 || int(e) >= n {
			return fmt.Errorf("partition: %s edge %d targets %d, want [0,%d)", name, i, e, n)
		}
	}
	return nil
}

// checkBoundaryList validates an Entries/Exits list: strictly
// increasing local IDs (the order Extract and ExtractOne produce, which
// a shard's summary and the canonical wire encoding rely on) within
// [0, n).
func checkBoundaryList(name string, list []int32, n int) error {
	for i, v := range list {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("partition: %s[%d] = %d, want [0,%d)", name, i, v, n)
		}
		if i > 0 && list[i-1] >= v {
			return fmt.Errorf("partition: %s not strictly increasing at %d", name, i)
		}
	}
	return nil
}

// SubgraphFromData validates d and reassembles a Subgraph with cond
// installed as its cached condensation. The slices are retained, not
// copied. Validation covers the invariants the query path depends on:
// a strictly increasing local->global map (what makes a local ID a
// rank, see Local), well-formed forward/reverse CSR halves that are
// transposes of each other, ordered boundary lists, cross-partition
// edges whose sources are owned and destinations are not, and a
// condensation sized for this subgraph.
func SubgraphFromData(d SubgraphData, cond *scc.Condensation) (*Subgraph, error) {
	n := len(d.Global)
	for i := 1; i < n; i++ {
		if d.Global[i-1] >= d.Global[i] {
			return nil, fmt.Errorf("partition: local->global map not strictly increasing at %d", i)
		}
	}
	if err := checkLocalCSR("forward", d.FOff, d.FEdges, n); err != nil {
		return nil, err
	}
	if err := checkLocalCSR("reverse", d.ROff, d.REdges, n); err != nil {
		return nil, err
	}
	if len(d.FEdges) != len(d.REdges) {
		return nil, fmt.Errorf("partition: %d forward edges vs %d reverse", len(d.FEdges), len(d.REdges))
	}
	// Transpose consistency between the halves, by degree counts.
	indeg := make([]int32, n)
	for _, e := range d.FEdges {
		indeg[e]++
	}
	outdeg := make([]int32, n)
	for _, e := range d.REdges {
		outdeg[e]++
	}
	for v := 0; v < n; v++ {
		if got := int32(d.ROff[v+1] - d.ROff[v]); got != indeg[v] {
			return nil, fmt.Errorf("partition: vertex %d has %d reverse edges but forward in-degree %d", v, got, indeg[v])
		}
		if got := int32(d.FOff[v+1] - d.FOff[v]); got != outdeg[v] {
			return nil, fmt.Errorf("partition: vertex %d has %d forward edges but reverse out-degree %d", v, got, outdeg[v])
		}
	}
	if err := checkBoundaryList("Entries", d.Entries, n); err != nil {
		return nil, err
	}
	if err := checkBoundaryList("Exits", d.Exits, n); err != nil {
		return nil, err
	}
	if cond == nil {
		return nil, fmt.Errorf("partition: nil condensation")
	}
	if len(cond.Comp) != n {
		return nil, fmt.Errorf("partition: condensation covers %d vertices, subgraph has %d", len(cond.Comp), n)
	}
	s := &Subgraph{
		ID:      d.ID,
		global:  d.Global,
		foff:    d.FOff,
		fedges:  d.FEdges,
		roff:    d.ROff,
		redges:  d.REdges,
		Entries: d.Entries,
		Exits:   d.Exits,
		Cross:   d.Cross,
		cond:    cond,
	}
	s.buildRank()
	for i, pr := range d.Cross {
		if _, ok := s.Local(pr[0]); !ok {
			return nil, fmt.Errorf("partition: cross edge %d source %d not owned by the partition", i, pr[0])
		}
		if _, ok := s.Local(pr[1]); ok {
			return nil, fmt.Errorf("partition: cross edge %d destination %d owned by the partition", i, pr[1])
		}
	}
	return s, nil
}
