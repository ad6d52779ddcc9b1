package snapshot_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/snapshot"
)

// benchState holds the shared 50k-vertex fixture: an edge-list file on
// disk (cold builds must pay the parse, exactly like a real boot) and
// the corresponding snapshot file. Built once per test binary.
type benchState struct {
	graphPath string
	snapPath  string
	vertices  int
	shards    int
}

var benchOnce sync.Once
var bench benchState

func benchSetup(tb testing.TB) *benchState {
	tb.Helper()
	benchOnce.Do(func() {
		const n, k = 50_000, 4
		dir, err := os.MkdirTemp("", "dsr-snapshot-bench")
		if err != nil {
			tb.Fatal(err)
		}
		// No tb.Cleanup here: the fixture outlives any one (sub)benchmark.
		// Mostly-local edges + range partitioning keep the boundary (and
		// so the summary sweep) proportional to the cut, not the graph —
		// the regime the partitioned design targets.
		rng := rand.New(rand.NewSource(50))
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u := rng.Intn(n)
			v := u - 64 + rng.Intn(129)
			if v < 0 || v >= n {
				v = rng.Intn(n)
			}
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
		g := b.Build()
		graphPath := filepath.Join(dir, "bench.txt")
		f, err := os.Create(graphPath)
		if err != nil {
			tb.Fatal(err)
		}
		if err := graph.WriteEdgeList(f, g); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
		pt, err := graph.RangePartition(g, k)
		if err != nil {
			tb.Fatal(err)
		}
		sh := shard.New(0, partition.ExtractOne(g, pt, 0))
		sn := sh.Snapshot(k, n, g.Fingerprint(), pt.Digest())
		snapPath := filepath.Join(dir, snapshot.Filename(0, k))
		if _, err := snapshot.WriteFile(snapPath, sn); err != nil {
			tb.Fatal(err)
		}
		bench = benchState{graphPath: graphPath, snapPath: snapPath, vertices: n, shards: k}
	})
	return &bench
}

// coldBuild is the no-snapshot boot path: read and parse the edge
// list, partition the whole graph, extract this shard's partition, run
// Tarjan, and sweep the entries for the boundary summary (shard.New).
func (st *benchState) coldBuild(tb testing.TB) *shard.Shard {
	tb.Helper()
	g, err := graph.LoadEdgeListFile(st.graphPath)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := graph.RangePartition(g, st.shards)
	if err != nil {
		tb.Fatal(err)
	}
	return shard.New(0, partition.ExtractOne(g, pt, 0))
}

// load is the snapshot boot path: read, checksum, validate, and derive
// the summary from the loaded condensation — no graph file, no
// partitioner, no Tarjan.
func (st *benchState) load(tb testing.TB) *shard.Shard {
	tb.Helper()
	sn, err := snapshot.ReadFile(st.snapPath)
	if err != nil {
		tb.Fatal(err)
	}
	return shard.FromSnapshot(sn)
}

func BenchmarkColdBuild(b *testing.B) {
	st := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.coldBuild(b)
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	st := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.load(b)
	}
}

// TestSnapshotLoadBeatsColdBuild enforces the headline property the
// subsystem exists for: booting a 50k-vertex shard from its snapshot is
// at least 5x faster than rebuilding from the edge list. The real ratio
// is far larger (the load skips parsing 100k edge lines and partitioning
// the whole graph), so the 5x floor has wide scheduling margin; best-of-3
// on each side absorbs the rest.
func TestSnapshotLoadBeatsColdBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k-vertex fixture")
	}
	st := benchSetup(t)
	best := func(f func(testing.TB) *shard.Shard) time.Duration {
		var b time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f(t)
			if d := time.Since(t0); i == 0 || d < b {
				b = d
			}
		}
		return b
	}
	buildT := best(st.coldBuild)
	loadT := best(st.load)
	t.Logf("cold build %v, snapshot load %v (%.1fx)", buildT, loadT, float64(buildT)/float64(loadT))
	if loadT*5 > buildT {
		t.Fatalf("snapshot load (%v) is not >=5x faster than cold build (%v)", loadT, buildT)
	}
}
