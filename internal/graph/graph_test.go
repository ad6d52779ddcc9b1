package graph

import (
	"reflect"
	"sort"
	"testing"
)

func sorted(s []VertexID) []VertexID {
	out := append([]VertexID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestBuilderCSR: rows list a vertex's out-edges in the order they were
// added, multi-edges and self-loops included — Fingerprint, and through
// it every handshake, hashes rows in that order.
func TestBuilderCSR(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2)
	b.AddEdge(2, 2)
	g := b.Build()

	if got, want := g.NumVertices(), 4; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 6; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	for v, want := range [][]VertexID{{2, 1, 2}, {}, {1, 2}, {0}} {
		if got := g.Out(VertexID(v)); !reflect.DeepEqual(got, want) {
			t.Errorf("Out(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestBuilderIsolatedVertices(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(1, 2)
	g := b.Build()
	if got, want := g.NumVertices(), 5; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
	for _, v := range []VertexID{0, 2, 3, 4} {
		if len(g.Out(v)) != 0 {
			t.Errorf("vertex %d should have no out-neighbors", v)
		}
	}
}

func TestEnsureVertexGrows(t *testing.T) {
	b := NewBuilder(0)
	b.EnsureVertex(7)
	g := b.Build()
	if got, want := g.NumVertices(), 8; got != want {
		t.Fatalf("NumVertices = %d, want %d", got, want)
	}
}

func TestEdgesVisitsAll(t *testing.T) {
	b := NewBuilder(0)
	want := map[[2]VertexID]int{
		{0, 1}: 1, {1, 2}: 1, {2, 0}: 2, // multi-edge preserved
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 0)
	g := b.Build()
	got := map[[2]VertexID]int{}
	g.Edges(func(u, v VertexID) { got[[2]VertexID{u, v}]++ })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges visited %v, want %v", got, want)
	}
}
