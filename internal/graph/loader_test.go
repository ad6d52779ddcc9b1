package graph

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestLoadEdgeListFixture(t *testing.T) {
	g, err := LoadEdgeListFile(filepath.Join("testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumVertices(), 8; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 9; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got := sorted(g.Out(3)); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("Out(3) = %v, want [0 4]", got)
	}
}

func TestLoadEdgeListRoundTrip(t *testing.T) {
	g, err := LoadEdgeListFile(filepath.Join("testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := sorted(g.Out(VertexID(v))), sorted(g2.Out(VertexID(v)))
		if len(a) != len(b) {
			t.Fatalf("Out(%d) degree changed: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Out(%d) changed: %v vs %v", v, a, b)
			}
		}
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"three fields", "1 2 3\n"},
		{"non-numeric", "a b\n"},
		{"negative", "-1 2\n"},
		// IDs past int32 would have Build allocate offset arrays of up
		// to 2^32+1 entries (an out-of-memory crash, not an error).
		{"target 2^32-1", "0 4294967295\n"},
		{"source 2^31-1", "2147483647 0\n"},
	}
	for _, c := range cases {
		_, err := LoadEdgeList(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: want error", c.name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name line 1", c.name, err)
		}
	}
	// The largest ID that still fits is accepted.
	b := NewBuilder(0)
	if err := b.readEdgeList(strings.NewReader("2147483646 0\n")); err != nil || b.n != maxVertices {
		t.Errorf("ID 2^31-2: err %v, %d vertices; want nil, %d", err, b.n, maxVertices)
	}
}

// TestParseEdgeFastPath: the shapes WriteEdgeList and hand-written files
// use are read without the general rule, and the same numbers come out.
func TestParseEdgeFastPath(t *testing.T) {
	for _, c := range []struct {
		line string
		u, v VertexID
	}{
		{"0 1", 0, 1},
		{"12 34", 12, 34},
		{"\t12\t34\r", 12, 34},
		{"  007   08  ", 7, 8},
		{"2147483646 2147483646", 2147483646, 2147483646},
		{"1\v2\f", 1, 2},
	} {
		u, v, ok := parseEdge([]byte(c.line))
		if !ok || u != c.u || v != c.v {
			t.Errorf("parseEdge(%q) = %d, %d, %v; want %d, %d, true", c.line, u, v, ok, c.u, c.v)
		}
	}
	for _, line := range []string{
		"", " ", "# vertices 3", "1", "1 2 3", "12", "+1 2", "-1 2", "1 a", "1a 2",
		"1 2", "1\u00852", "2147483647 0", "0 4294967296", "1,2",
	} {
		if _, _, ok := parseEdge([]byte(line)); ok {
			t.Errorf("parseEdge(%q) accepted a line for the general rule", line)
		}
	}
}

// referenceEdge is the general rule for an edge line, as the loader
// applied it to every line before parseEdge: trim, split on white
// space, two base-10 uint32s.
func referenceEdge(line string) (u, v uint64, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("%d fields", len(fields))
	}
	if u, err = strconv.ParseUint(fields[0], 10, 32); err != nil {
		return 0, 0, err
	}
	if v, err = strconv.ParseUint(fields[1], 10, 32); err != nil {
		return 0, 0, err
	}
	return u, v, nil
}

// FuzzLoadEdgeList: every line the allocation-free reader accepts reads
// as the same (u, v) under the general rule, and the loader never
// panics — its errors all name a line. Graphs are built only when
// small: a valid directive may ask for 2^31-1 vertices.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add([]byte("# vertices 4\n0 1\n1 2\n2 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range append(bytes.Split(data, []byte("\n")), data) {
			u, v, ok := parseEdge(line)
			if !ok {
				continue
			}
			ru, rv, err := referenceEdge(string(line))
			if err != nil || ru != uint64(u) || rv != uint64(v) {
				t.Fatalf("parseEdge(%q) = %d, %d; general rule %d, %d, %v", line, u, v, ru, rv, err)
			}
		}
		b := NewBuilder(0)
		err := b.readEdgeList(bytes.NewReader(data))
		switch {
		case err != nil:
			if !strings.HasPrefix(err.Error(), "graph: line ") {
				t.Fatalf("error %q names no line", err)
			}
		case b.n <= 1<<16:
			g := b.Build()
			if g.NumEdges() != len(b.src) {
				t.Fatalf("built %d edges from %d read", g.NumEdges(), len(b.src))
			}
		}
	})
}

func TestRoundTripPreservesIsolatedVertices(t *testing.T) {
	// Vertices 0, 3, 4 are isolated; 4 is trailing, so without the
	// "# vertices" directive the reloaded graph would shrink to 3.
	b := NewBuilder(5)
	b.AddEdge(1, 2)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g2.NumVertices(), 5; got != want {
		t.Fatalf("NumVertices after round trip = %d, want %d", got, want)
	}
	if got, want := g2.NumEdges(), 1; got != want {
		t.Fatalf("NumEdges after round trip = %d, want %d", got, want)
	}
}

func TestVertexDirective(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# vertices 10\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumVertices(), 10; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	// The directive is a floor, not a cap.
	g, err = LoadEdgeList(strings.NewReader("# vertices 2\n0 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumVertices(), 8; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	// Comments that don't have the directive's exact 3-field shape stay
	// plain comments.
	for _, in := range []string{"# vertices\n", "# vertices 1 2\n", "#vertices 10\n", "# vertex 10\n"} {
		g, err := LoadEdgeList(strings.NewReader(in))
		if err != nil || g.NumVertices() != 0 {
			t.Errorf("%q: got %v vertices, err %v; want plain comment", in, g.NumVertices(), err)
		}
	}
}

// TestVertexDirectiveMalformed: a directive-shaped comment whose count
// does not parse as a uint32 must be a line-numbered load error — not a
// silently dropped count that makes isolated vertices vanish on
// round-trip.
func TestVertexDirectiveMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"non-numeric", "0 1\n# vertices x\n"},
		{"negative", "0 1\n# vertices -5\n"},
		{"uint32 overflow", "0 1\n# vertices 4294967296\n"},
		{"float", "0 1\n# vertices 1.5\n"},
		{"uint32 max", "0 1\n# vertices 4294967295\n"},
		{"past int32", "0 1\n# vertices 2147483648\n"},
	}
	for _, c := range cases {
		_, err := LoadEdgeList(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: want error, got nil", c.name)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name line 2", c.name, err)
		}
		if !strings.Contains(err.Error(), "vertices") {
			t.Errorf("%s: error %q does not name the directive", c.name, err)
		}
	}
}

// TestLoadEdgeListScannerErrorHasLineContext: a line exceeding the
// scanner's 1 MiB buffer must fail with the offending line's number,
// not bufio's opaque "token too long".
func TestLoadEdgeListScannerErrorHasLineContext(t *testing.T) {
	input := "0 1\n1 2\n0 " + strings.Repeat("9", 2*1024*1024) + "\n"
	_, err := LoadEdgeList(strings.NewReader(input))
	if err == nil {
		t.Fatal("want error for an over-long line, got nil")
	}
	if !strings.Contains(err.Error(), "graph: line 3") {
		t.Errorf("error %q does not carry file/line context for line 3", err)
	}
	if !strings.Contains(err.Error(), "token too long") {
		t.Errorf("error %q does not preserve the scanner's cause", err)
	}
}

func TestLoadEdgeListCommentsAndBlank(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# header\n\n0 1\n  \n# mid\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Fatalf("got %d vertices / %d edges, want 3 / 2", g.NumVertices(), g.NumEdges())
	}
}
