package dsr

import (
	"fmt"
	"strconv"
	"strings"

	"dsr/internal/graph"
)

// ParseQuery tokenizes one query line, "s1 s2 ... | t1 t2 ...": two
// whitespace-separated lists of decimal vertex IDs split by a pipe —
// the grammar dsr-query reads on stdin and dsr-serve reads off the
// wire. Either side may come back empty: whether that is an error, and
// what a blank or comment line means, is the caller's policy. The error
// for a field that is not a 32-bit vertex ID wraps strconv's
// *NumError, whose Num is that field; any other error means the line
// has no '|'.
func ParseQuery(line string) (q Query, err error) {
	left, right, ok := strings.Cut(line, "|")
	if !ok {
		return q, fmt.Errorf("want 'sources | targets', got %q", line)
	}
	if q.S, err = parseIDs(left); err != nil {
		return Query{}, fmt.Errorf("sources: %w", err)
	}
	if q.T, err = parseIDs(right); err != nil {
		return Query{}, fmt.Errorf("targets: %w", err)
	}
	return q, nil
}

func parseIDs(s string) ([]graph.VertexID, error) {
	fields := strings.Fields(s)
	ids := make([]graph.VertexID, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad vertex %q: %w", f, err)
		}
		ids[i] = graph.VertexID(v)
	}
	return ids, nil
}
