package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
)

// BenchmarkLoadEdgeList parses the WriteEdgeList form of the 200k-vertex
// community graph BenchmarkPartitionQuality/locality-200k partitions.
func BenchmarkLoadEdgeList(b *testing.B) {
	g := gen.Community(rand.New(rand.NewSource(4)), 200_000, 16, 2.5, 0.05, 0.01)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.LoadEdgeList(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
