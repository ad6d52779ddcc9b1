package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"dsr/internal/graph"
)

var small = GraphSpec{N: 3000, Communities: 4, IntraDeg: 2.5, UniformDeg: 0.05, BackShare: 0.01}

func edgeList(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, small.Graph(seed)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGraphIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := edgeList(t, 7), edgeList(t, 7), edgeList(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different edge lists")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same edge list")
	}
	g := small.Graph(7)
	want := int(small.IntraDeg*float64(small.N)) + int(small.UniformDeg*float64(small.N))
	// Self-pairs are dropped, so a handful of edges may be missing.
	if g.NumVertices() != small.N || g.NumEdges() > want || g.NumEdges() < want-want/100 {
		t.Errorf("graph has %d vertices, %d edges; want %d vertices, about %d edges", g.NumVertices(), g.NumEdges(), small.N, want)
	}
}

// stream renders everything the load generator would send for a seed.
func stream(seed uint64) string {
	var buf bytes.Buffer
	for conn := 0; conn < 2; conn++ {
		s := NewSampler(seed, conn, small.N)
		z := NewPool(seed, 64, small.N).Zipf(seed, conn, 1.1)
		for i := 0; i < 200; i++ {
			fmt.Fprintln(&buf, s.Next(), z.Next())
		}
		due, ends := Arrivals(seed, conn, 2, []Step{{Rate: 1000, Len: 50 * time.Millisecond}, {Rate: 4000, Len: 50 * time.Millisecond}})
		fmt.Fprintln(&buf, due, ends)
	}
	return buf.String()
}

func TestQueryStreamIsAFunctionOfTheSeed(t *testing.T) {
	if stream(3) != stream(3) {
		t.Error("same seed produced different query streams")
	}
	if stream(3) == stream(4) {
		t.Error("different seeds produced the same query stream")
	}
	a, b := NewSampler(3, 0, small.N).Next(), NewSampler(3, 1, small.N).Next()
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("two connections of one seed share a stream")
	}
}

func TestSamplerSetSizes(t *testing.T) {
	s := NewSampler(1, 0, small.N)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		q := s.Next()
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		for _, set := range [][]graph.VertexID{q.S, q.T} {
			if len(set) < 1 || len(set) > MaxSetSize {
				t.Fatalf("set size %d outside [1, %d]", len(set), MaxSetSize)
			}
			seen[len(set)] = true
			for _, v := range set {
				if int(v) >= small.N {
					t.Fatalf("vertex %d out of range", v)
				}
			}
		}
	}
	if len(seen) != MaxSetSize {
		t.Errorf("saw %d distinct set sizes, want all %d", len(seen), MaxSetSize)
	}
}

func TestZipfIsSkewedAndPermutes(t *testing.T) {
	p := NewPool(5, 1024, small.N)
	z := p.Zipf(5, 0, 1.1)
	counts := make([]int, len(p.Queries))
	permuted := false
	for i := 0; i < 20000; i++ {
		q := z.Next()
		counts[q.ID]++
		base := p.Queries[q.ID]
		if len(q.S) != len(base.S) || len(q.T) != len(base.T) {
			t.Fatal("a draw changed a pool query's set sizes")
		}
		if len(q.S) > 1 && fmt.Sprint(q.S) != fmt.Sprint(base.S) {
			permuted = true
		}
	}
	if !permuted {
		t.Error("no draw ever permuted S")
	}
	if counts[0] < 10*counts[len(counts)/2]+10 {
		t.Errorf("head drawn %d times, middle %d: not skewed", counts[0], counts[len(counts)/2])
	}
}

func TestArrivalsFollowTheSteps(t *testing.T) {
	steps := []Step{{Rate: 2000, Len: time.Second}, {Rate: 8000, Len: time.Second}}
	total := make([]int, len(steps))
	for conn := 0; conn < 2; conn++ {
		due, ends := Arrivals(9, conn, 2, steps)
		if ends[len(ends)-1] != len(due) {
			t.Fatalf("ends %v do not close at %d arrivals", ends, len(due))
		}
		prev := time.Duration(-1)
		for i, d := range due {
			if d <= prev {
				t.Fatalf("arrival %d at %v not after %v", i, d, prev)
			}
			prev = d
		}
		if due[ends[0]-1] >= time.Second || due[ends[0]] < time.Second {
			t.Errorf("step boundary misplaced: %v | %v", due[ends[0]-1], due[ends[0]])
		}
		total[0] += ends[0]
		total[1] += ends[1] - ends[0]
	}
	for i, st := range steps {
		want := st.Rate * st.Len.Seconds()
		if math.Abs(float64(total[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("step %d: %d arrivals over both connections, want about %.0f", i, total[i], want)
		}
	}
}

func TestSampledIsSeededAndSparse(t *testing.T) {
	hits, differ := 0, false
	for id := 0; id < 64000; id++ {
		a := Sampled(1, 0, id, 64)
		if a != Sampled(1, 0, id, 64) {
			t.Fatal("Sampled is not a function of its arguments")
		}
		if a {
			hits++
		}
		if a != Sampled(2, 0, id, 64) {
			differ = true
		}
	}
	if hits < 800 || hits > 1200 {
		t.Errorf("1-in-64 sample kept %d of 64000", hits)
	}
	if !differ {
		t.Error("two seeds keep the same sample")
	}
}

func TestTrueShare(t *testing.T) {
	if got := TrueShare([]bool{true, false, false, true}); got != 0.5 {
		t.Errorf("TrueShare = %v, want 0.5", got)
	}
	if !math.IsNaN(TrueShare(nil)) {
		t.Error("TrueShare of nothing should be NaN")
	}
}
