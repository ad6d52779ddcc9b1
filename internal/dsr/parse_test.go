package dsr

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"dsr/internal/graph"
)

// TestParseQuery pins the tokenizer itself: what it reads, that an
// empty side is not its business, and that the error for a bad field
// carries that field in a *strconv.NumError while the one for a missing
// '|' carries none. What the two callers print for these lines is
// pinned where both can be driven, in cmd/dsr-query's
// TestQueryLineGrammar.
func TestParseQuery(t *testing.T) {
	ids := func(vs ...graph.VertexID) []graph.VertexID { return vs }
	for _, tc := range []struct {
		line  string
		S, T  []graph.VertexID
		fails bool
		token string // the field that is not a vertex ID
	}{
		{line: "3 1 2 | 9 8", S: ids(3, 1, 2), T: ids(9, 8)},
		{line: "\t7|4294967295 ", S: ids(7), T: ids(4294967295)},
		{line: "1 2 |", S: ids(1, 2)},
		{line: "|"},
		{line: "1 2 3", fails: true},
		{line: "1 x | 2", fails: true, token: "x"},
		{line: "1 | 2 4294967296", fails: true, token: "4294967296"},
	} {
		q, err := ParseQuery(tc.line)
		var bad *strconv.NumError
		token := ""
		if errors.As(err, &bad) {
			token = bad.Num
		}
		if (err != nil) != tc.fails || token != tc.token || !slices.Equal(q.S, tc.S) || !slices.Equal(q.T, tc.T) {
			t.Errorf("ParseQuery(%q) = %v, %v; want S=%v T=%v, fails=%v on token %q", tc.line, q, err, tc.S, tc.T, tc.fails, tc.token)
		}
	}
}
