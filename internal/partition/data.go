package partition

import (
	"fmt"

	"dsr/internal/graph"
)

// SubgraphData is the raw array content of a Subgraph, exposed so a
// persisted snapshot can round-trip the extracted partition without
// re-reading the edge list or re-running ExtractOne. Data returns live
// views (no copies); SubgraphFromData validates and reassembles. The
// exits are not part of it: they are the sources of Cross, and
// SubgraphFromData derives them.
type SubgraphData struct {
	Global  []graph.VertexID // local -> global, strictly increasing
	FOff    []int64
	FEdges  []int32
	Entries []int32
	Cross   [][2]graph.VertexID
}

// Data returns views of the subgraph's raw arrays. Callers must treat
// them as read-only: they alias the live subgraph.
func (s *Subgraph) Data() SubgraphData {
	return SubgraphData{
		Global:  s.global,
		FOff:    s.foff,
		FEdges:  s.fedges,
		Entries: s.Entries,
		Cross:   s.Cross,
	}
}

// checkLocalCSR validates the subgraph's CSR: offsets start at 0, never
// decrease, end exactly at the edge-array length, and every edge target
// is a valid local vertex.
func checkLocalCSR(off []int64, edges []int32, n int) error {
	if len(off) != n+1 {
		return fmt.Errorf("partition: offsets have %d entries for %d vertices", len(off), n)
	}
	if off[0] != 0 {
		return fmt.Errorf("partition: offsets must start at 0")
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("partition: offsets decrease at %d", i)
		}
	}
	if int(off[n]) != len(edges) {
		return fmt.Errorf("partition: offsets end at %d, want %d", off[n], len(edges))
	}
	for i, e := range edges {
		if e < 0 || int(e) >= n {
			return fmt.Errorf("partition: edge %d targets %d, want [0,%d)", i, e, n)
		}
	}
	return nil
}

// checkEntries validates an Entries list: strictly increasing local IDs
// (the order ExtractOne produces, which a shard's summary and the
// canonical wire encoding rely on) within [0, n).
func checkEntries(list []int32, n int) error {
	for i, v := range list {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("partition: Entries[%d] = %d, want [0,%d)", i, v, n)
		}
		if i > 0 && list[i-1] >= v {
			return fmt.Errorf("partition: Entries not strictly increasing at %d", i)
		}
	}
	return nil
}

// SubgraphFromData validates d and reassembles a Subgraph. The slices
// are retained, not copied. Validation covers the invariants the query
// path depends on: a strictly increasing local->global map (what makes a
// local ID a rank, see Local), a well-formed CSR, an ordered entry list,
// and cross-partition edges whose sources are owned and destinations
// are not. Exits are derived from the cross edges by ExtractOne's rule —
// every owned source, in increasing local ID — in whatever order the
// cross edges come.
func SubgraphFromData(d SubgraphData) (*Subgraph, error) {
	n := len(d.Global)
	for i := 1; i < n; i++ {
		if d.Global[i-1] >= d.Global[i] {
			return nil, fmt.Errorf("partition: local->global map not strictly increasing at %d", i)
		}
	}
	if err := checkLocalCSR(d.FOff, d.FEdges, n); err != nil {
		return nil, err
	}
	if err := checkEntries(d.Entries, n); err != nil {
		return nil, err
	}
	s := &Subgraph{
		global:  d.Global,
		foff:    d.FOff,
		fedges:  d.FEdges,
		Entries: d.Entries,
		Cross:   d.Cross,
	}
	s.buildRank()
	exit := make([]uint64, (n+63)/64)
	for i, pr := range d.Cross {
		lv, ok := s.Local(pr[0])
		if !ok {
			return nil, fmt.Errorf("partition: cross edge %d source %d not owned by the partition", i, pr[0])
		}
		if _, ok := s.Local(pr[1]); ok {
			return nil, fmt.Errorf("partition: cross edge %d destination %d owned by the partition", i, pr[1])
		}
		exit[lv>>6] |= 1 << (lv & 63)
	}
	s.Exits = bitList(exit)
	return s, nil
}
