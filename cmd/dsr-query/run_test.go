package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/cli"
	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
)

func tinyEngine(t *testing.T) *dsr.Engine {
	t.Helper()
	g, err := graph.LoadEdgeListFile(filepath.Join("..", "..", "internal", "graph", "testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dsr.Build(g, dsr.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestRunQueriesMalformedLines: a malformed query line must produce a
// per-line error on stderr and a non-zero exit code — in both modes —
// while the well-formed queries around it still get answers. (The old
// behavior died on the first bad line, losing the rest of the
// workload; worse, a pipeline reading only stdout had no per-line
// indication of *which* input was dropped.)
func TestRunQueriesMalformedLines(t *testing.T) {
	for _, batch := range []bool{false, true} {
		eng := tinyEngine(t)
		in := strings.NewReader(strings.Join([]string{
			"0 | 7",        // valid: true
			"no pipe here", // malformed: no separator
			"1 2 | x",      // malformed: bad vertex
			"7 | 0",        // valid: false
		}, "\n"))
		var out, errw strings.Builder
		code := runQueries(eng, in, &out, &errw, batch, nil)
		cli.WantExit(t, fmt.Sprintf("malformed lines (batch=%v)", batch), code, cli.ExitFailure)
		if got, want := out.String(), "true\nfalse\n"; got != want {
			t.Errorf("batch=%v: stdout = %q, want %q", batch, got, want)
		}
		stderr := errw.String()
		for _, want := range []string{"line 2", "line 3", "2 malformed line(s)"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("batch=%v: stderr missing %q:\n%s", batch, want, stderr)
			}
		}
	}
}

func TestRunQueriesCleanInput(t *testing.T) {
	for _, batch := range []bool{false, true} {
		eng := tinyEngine(t)
		in := strings.NewReader("# comment\n\n0 | 7\n4 | 4\n")
		var out, errw strings.Builder
		code := runQueries(eng, in, &out, &errw, batch, nil)
		cli.WantExit(t, fmt.Sprintf("clean input (batch=%v)", batch), code, cli.ExitOK)
		if got, want := out.String(), "true\ntrue\n"; got != want {
			t.Errorf("batch=%v: stdout = %q, want %q", batch, got, want)
		}
		if errw.Len() != 0 {
			t.Errorf("batch=%v: unexpected stderr: %s", batch, errw.String())
		}
	}
}

// TestRunQueriesPartialOutage: with one partition's server gone,
// runQueries prints "error" exactly for the queries that needed it
// (keeping output aligned with input), answers everything else, names
// the dead partition on stderr, and exits non-zero — in both modes.
func TestRunQueriesPartialOutage(t *testing.T) {
	g, err := graph.LoadEdgeListFile(filepath.Join("..", "..", "internal", "graph", "testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	u := [k]graph.VertexID{}
	found := [k]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		p := pt.Part[v]
		if !found[p] {
			u[p], found[p] = graph.VertexID(v), true
		}
	}
	if !found[0] || !found[1] {
		t.Fatal("hash partitioning left a partition empty on tiny.txt")
	}

	for _, batch := range []bool{false, true} {
		subs := partition.Extract(g, pt)
		servers := make([]*shard.Server, k)
		addrs := make([]string, k)
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			servers[i] = shard.NewServer(shard.New(i, subs[i]), k, g.NumVertices(), g.Fingerprint(), pt.Digest())
			wg.Add(1)
			go func(srv *shard.Server, ln net.Listener) {
				defer wg.Done()
				srv.Serve(ln)
			}(servers[i], ln)
		}
		eng, err := dsr.Connect(t.Context(), dsr.ClusterSpec{Groups: addrs})
		if err != nil {
			t.Fatal(err)
		}
		servers[1].Close() // partition 1 goes dark
		// Wait until the engine observes the outage so the session below
		// is deterministic.
		probe := []dsr.Query{{S: []graph.VertexID{u[1]}, T: []graph.VertexID{u[0]}}}
		for i := 0; ; i++ {
			if _, err := eng.QueryBatchErr(probe); err != nil {
				break
			}
			if i > 1000 {
				t.Fatal("engine never observed the dead shard")
			}
			time.Sleep(time.Millisecond)
		}

		in := strings.NewReader(strings.Join([]string{
			fmt.Sprintf("%d | %d", u[0], u[0]), // trivial, healthy: true
			fmt.Sprintf("%d | %d", u[1], u[1]), // trivial: answered with no shard consulted
			fmt.Sprintf("%d | %d", u[1], u[0]), // needs the dead partition's forward search
			fmt.Sprintf("%d | %d", u[0], u[1]), // needs the dead partition's backward search
		}, "\n"))
		var out, errw strings.Builder
		code := runQueries(eng, in, &out, &errw, batch, nil)
		cli.WantExit(t, fmt.Sprintf("failed queries (batch=%v)", batch), code, cli.ExitFailure)
		if want := "true\ntrue\nerror\nerror\n"; out.String() != want {
			t.Errorf("batch=%v: stdout = %q, want %q", batch, out.String(), want)
		}
		for _, want := range []string{"partition 1 unavailable", "failed on unavailable partitions"} {
			if !strings.Contains(errw.String(), want) {
				t.Errorf("batch=%v: stderr missing %q:\n%s", batch, want, errw.String())
			}
		}
		eng.Close()
		servers[0].Close()
		wg.Wait()
	}
}
