package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// maxVertices bounds the vertex count a loaded graph may have, so the
// largest vertex ID is maxVertices-1: IDs travel as int32 (wire task
// seeds, partition labels), and a larger count would only ask Build for
// offset arrays no machine holds.
const maxVertices = math.MaxInt32

// LoadEdgeList parses a whitespace-separated edge list: one "u v" pair
// per line, blank lines and lines starting with '#' ignored. Vertex IDs
// are non-negative integers below 2^31-1; the graph gets max(id)+1
// vertices. One comment form is meaningful: a "# vertices N" directive
// raises the vertex count to at least N, so graphs with trailing
// isolated vertices round-trip through WriteEdgeList (which emits it).
func LoadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	if err := b.readEdgeList(r); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// readEdgeList adds the edges and vertex directives of r to b. A line of
// two plain decimal IDs between ASCII blanks — every line WriteEdgeList
// emits but its first — is read in place by parseEdge; anything else
// (comments, directives, errors, any other spacing) takes parseLine,
// which decides exactly as parseEdge does where both apply.
func (b *Builder) readEdgeList(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		if u, v, ok := parseEdge(sc.Bytes()); ok {
			b.AddEdge(u, v)
			continue
		}
		if err := b.parseLine(sc.Text()); err != nil {
			return fmt.Errorf("graph: line %d: %v", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner failed reading the line after the last one it
		// delivered (e.g. bufio.ErrTooLong on a line over the 1 MiB
		// buffer), so point the error there instead of returning the
		// opaque scanner error raw.
		return fmt.Errorf("graph: line %d: %v", lineno+1, err)
	}
	return nil
}

// parseLine is the general rule for one line: trim, split on white
// space, and read a comment, a directive or an edge of two uint32s.
func (b *Builder) parseLine(text string) error {
	line := strings.TrimSpace(text)
	if line == "" || strings.HasPrefix(line, "#") {
		n, ok, err := parseVertexDirective(line)
		if err != nil {
			return err
		}
		if ok && n > 0 {
			b.EnsureVertex(VertexID(n - 1))
		}
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return fmt.Errorf("want 2 fields, got %d", len(fields))
	}
	u, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return fmt.Errorf("bad source %q: %v", fields[0], err)
	}
	v, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return fmt.Errorf("bad target %q: %v", fields[1], err)
	}
	if u >= maxVertices {
		return fmt.Errorf("source %d out of range: vertex IDs must be below %d", u, maxVertices)
	}
	if v >= maxVertices {
		return fmt.Errorf("target %d out of range: vertex IDs must be below %d", v, maxVertices)
	}
	b.AddEdge(VertexID(u), VertexID(v))
	return nil
}

// parseEdge reads a line made only of ASCII blanks and two decimal IDs
// below maxVertices, without allocating. It reports false for every
// other line, which then goes to parseLine.
func parseEdge(line []byte) (VertexID, VertexID, bool) {
	u, end, ok := parseID(line, skipBlanks(line, 0))
	if !ok {
		return 0, 0, false
	}
	next := skipBlanks(line, end)
	if next == end {
		return 0, 0, false // no blank between the IDs
	}
	v, end, ok := parseID(line, next)
	if !ok || skipBlanks(line, end) != len(line) {
		return 0, 0, false
	}
	return u, v, true
}

// parseID reads the run of ASCII digits at line[i:], returning the ID
// and the index after it; ok is false for an empty run or a value of
// maxVertices or more.
func parseID(line []byte, i int) (id VertexID, end int, ok bool) {
	var x uint64
	start := i
	for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
		x = x*10 + uint64(line[i]-'0')
		if x >= maxVertices {
			return 0, i, false
		}
	}
	return VertexID(x), i, i > start
}

// skipBlanks returns the index of the first byte at or after i that is
// not ASCII white space as strings.Fields knows it.
func skipBlanks(line []byte, i int) int {
	for ; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
		default:
			return i
		}
	}
	return i
}

// LoadEdgeListFile loads an edge list from the file at path.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f)
}

// parseVertexDirective recognizes "# vertices N" comments. A comment
// that is shaped like the directive but whose count fails to parse as
// a uint32 (negative, overflowing, non-numeric) or exceeds maxVertices
// is an error, not a plain comment: silently dropping a writer's count
// would make trailing isolated vertices vanish on round-trip.
func parseVertexDirective(line string) (uint64, bool, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "#" || fields[1] != "vertices" {
		return 0, false, nil
	}
	n, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad '# vertices' directive count %q: %v", fields[2], err)
	}
	if n > maxVertices {
		return 0, false, fmt.Errorf("'# vertices' directive count %d exceeds %d", n, maxVertices)
	}
	return n, true, nil
}

// WriteEdgeList writes g in the format accepted by LoadEdgeList: a
// "# vertices N" directive (so isolated vertices survive a round trip)
// followed by the edges ordered by source vertex.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices())
	g.Edges(func(u, v VertexID) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
