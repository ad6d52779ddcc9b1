package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/serve"
)

// TestServeBinaryEndToEnd builds the real dsr-shard and dsr-serve
// binaries and proves the three serving-layer claims against a live TCP
// deployment: queries from two clients that arrive during a round share
// the next engine batch, a repeated query is answered from the cache,
// and a saturated server sheds with the typed overload response. Plus
// the contract edges: missing -shards, a bound below 1 or an unknown
// flag is a usage error (exit 2), SIGTERM drains to exit 0, and a drain
// that a stalled shard keeps from finishing exits 1 within its budget.
//
// A round is held by stopping one dsr-shard process (SIGSTOP): every
// round broadcasts to all k shards, so none returns until it resumes.
func TestServeBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./...")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	graphPath, err := filepath.Abs(filepath.Join("..", "..", "internal", "graph", "testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flag-misuse", func(t *testing.T) {
		var stderr strings.Builder
		cmd := exec.Command(filepath.Join(bin, "dsr-serve"))
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !isExit(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("no -shards: %v, want exit 2\nstderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-shards is required") {
			t.Fatalf("usage error does not name -shards:\n%s", stderr.String())
		}
	})

	// A bound below 1 is a bad flag value: exit 2 before the fleet is
	// dialed (the address here has no shard behind it), not a silent
	// rewrite to the default. So is a flag of the deleted hedged
	// requests: it is no flag at all.
	t.Run("bad-bounds", func(t *testing.T) {
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-batch-max", "0"}, "-batch-max must be >= 1"},
			{[]string{"-max-queued", "0"}, "-max-queued must be >= 1"},
			{[]string{"-max-per-client", "-1"}, "-max-per-client must be >= 1"},
			{[]string{"-hedge"}, "flag provided but not defined: -hedge"},
		} {
			var stderr strings.Builder
			cmd := exec.Command(filepath.Join(bin, "dsr-serve"),
				append([]string{"-shards", "127.0.0.1:1", "-connect-timeout", "2s"}, tc.args...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !isExit(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("%v: %v, want exit 2\nstderr:\n%s", tc.args, err, stderr.String())
				continue
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("%v: usage error does not say %q:\n%s", tc.args, tc.want, stderr.String())
			}
		}
	})

	shardAddrs, shards := bootShardFleet(t, bin, graphPath, 3, "hash")
	fleetSpec := strings.Join(shardAddrs, ",")

	t.Run("cross-client-batching", func(t *testing.T) {
		// Client A's query holds a round; clients B and C arrive during
		// it and share the next one: 2 batches for 3 queries.
		sv := startServe(t, bin, "-shards", fleetSpec, "-cache", "-1")
		clients := make([]*serve.Client, 3)
		for i := range clients {
			c, err := serve.Dial(sv.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients[i] = c
		}
		resume := hold(t, shards[0])
		clients[0].Send([]graph.VertexID{0}, []graph.VertexID{7})
		sv.await(t, "dsr_serve_batches_total = 1", func(m metrics) bool { return m.Counters["dsr_serve_batches_total"] == 1 })
		clients[1].Send([]graph.VertexID{1}, []graph.VertexID{7})
		clients[2].Send([]graph.VertexID{2}, []graph.VertexID{7})
		sv.await(t, "dsr_serve_queue_depth = 3", func(m metrics) bool { return m.Gauges["dsr_serve_queue_depth"] == 3 })
		resume()
		for i, c := range clients {
			if ans, err := c.Recv(); err != nil || !ans {
				t.Errorf("client %d: (%v, %v), want true", i, ans, err)
			}
		}
		counters := sv.scrape(t).Counters
		if got := counters["dsr_serve_batches_total"]; got != 2 {
			t.Errorf("dsr_serve_batches_total = %d, want 2 for 3 queries", got)
		}
		if got := counters["dsr_serve_queries_total"]; got != 3 {
			t.Errorf("dsr_serve_queries_total = %d, want 3", got)
		}
		sv.drain(t)
	})

	t.Run("cache-hit", func(t *testing.T) {
		sv := startServe(t, bin, "-shards", fleetSpec)
		c, err := serve.Dial(sv.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 2; i++ {
			if ans, err := c.Query([]graph.VertexID{0}, []graph.VertexID{7}); err != nil || !ans {
				t.Fatalf("query %d: (%v, %v), want true", i, ans, err)
			}
		}
		// Same sets, different order: still one cache key.
		if ans, err := c.Query([]graph.VertexID{7, 0}, []graph.VertexID{7}); err != nil || !ans {
			t.Fatalf("permuted query: (%v, %v), want true", ans, err)
		}
		counters := sv.scrape(t).Counters
		if got := counters["dsr_cache_hits_total"]; got < 1 {
			t.Errorf("dsr_cache_hits_total = %d, want >= 1", got)
		}
		sv.drain(t)
	})

	// -cache 0 is no cache, not the default size: sequential repeats
	// all go to the engine.
	t.Run("cache-off", func(t *testing.T) {
		sv := startServe(t, bin, "-shards", fleetSpec, "-cache", "0")
		c, err := serve.Dial(sv.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			if ans, err := c.Query([]graph.VertexID{0}, []graph.VertexID{7}); err != nil || !ans {
				t.Fatalf("query %d: (%v, %v), want true", i, ans, err)
			}
		}
		counters := sv.scrape(t).Counters
		if got := counters["dsr_cache_hits_total"]; got != 0 {
			t.Errorf("dsr_cache_hits_total = %d, want 0 with -cache 0", got)
		}
		if got := counters["dsr_serve_batches_total"]; got != 3 {
			t.Errorf("dsr_serve_batches_total = %d, want 3 rounds for 3 uncached queries", got)
		}
		sv.drain(t)
	})

	t.Run("load-shedding", func(t *testing.T) {
		// One admission slot per client, pinned by a held round: a
		// pipeline of 3 gets exactly one answer and two typed overload
		// rejections.
		sv := startServe(t, bin, "-shards", fleetSpec, "-max-per-client", "1", "-cache", "-1")
		c, err := serve.Dial(sv.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resume := hold(t, shards[0])
		for i := 0; i < 3; i++ {
			if err := c.Send([]graph.VertexID{0}, []graph.VertexID{graph.VertexID(5 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		sv.await(t, "2 client sheds", func(m metrics) bool { return m.Counters["dsr_serve_shed_total{scope=client}"] == 2 })
		resume()
		if ans, err := c.Recv(); err != nil || !ans {
			t.Fatalf("admitted query: (%v, %v), want true", ans, err)
		}
		for i := 0; i < 2; i++ {
			_, err := c.Recv()
			oe, ok := err.(*serve.OverloadError)
			if !ok || oe.Scope != "client" {
				t.Fatalf("shed query %d: err = %v, want OverloadError{client}", i, err)
			}
		}
		counters := sv.scrape(t).Counters
		if got := counters["dsr_serve_shed_total{scope=client}"]; got != 2 {
			t.Errorf("client sheds = %d, want 2", got)
		}
		sv.drain(t)
	})

	t.Run("drain-incomplete", func(t *testing.T) {
		// A round stuck on a stopped shard outlives the drain budget:
		// dsr-serve must give up on it, close the engine and exit 1.
		sv := startServe(t, bin, "-shards", fleetSpec, "-cache", "-1", "-drain", "300ms")
		c, err := serve.Dial(sv.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hold(t, shards[0])
		c.Send([]graph.VertexID{0}, []graph.VertexID{7})
		sv.await(t, "dsr_serve_batches_total = 1", func(m metrics) bool { return m.Counters["dsr_serve_batches_total"] == 1 })
		start := time.Now()
		sv.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-sv.exited:
		case <-time.After(15 * time.Second):
			t.Fatalf("dsr-serve still running %v after SIGTERM with a 300ms drain budget", time.Since(start))
		}
		var ee *exec.ExitError
		if err := sv.cmd.Wait(); !isExit(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("exit after an incomplete drain: %v, want exit 1", err)
		}
		if !strings.Contains(sv.stderr.String(), "drain incomplete") {
			t.Fatalf("no \"drain incomplete\" in stderr:\n%s", sv.stderr.String())
		}
	})
}

// hold stops p (SIGSTOP), which holds every round in the engine until
// the returned resume (SIGCONT) runs — at the latest when the test
// ends. Where /proc shows process states, hold returns only once p is
// stopped, not merely signalled.
func hold(t *testing.T, p *os.Process) (resume func()) {
	t.Helper()
	if err := p.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Pid))
		if err != nil || bytes.Contains(stat, []byte(") T ")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d not stopped 10s after SIGSTOP", p.Pid)
		}
	}
	var once sync.Once
	resume = func() { once.Do(func() { p.Signal(syscall.SIGCONT) }) }
	t.Cleanup(resume)
	return resume
}

// serveProc is one running dsr-serve process plus its parsed addresses.
type serveProc struct {
	cmd         *exec.Cmd
	addr        string // query protocol
	metricsAddr string
	// stderr collects what the process logs after announcing its
	// listeners; it is complete, and safe to read, once exited is
	// closed.
	stderr strings.Builder
	exited chan struct{}
}

// startServe boots dsr-serve with a metrics endpoint and waits for it
// to announce both listeners; the process is killed on test cleanup if
// drain wasn't called.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	args = append(args, "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	cmd := exec.Command(filepath.Join(bin, "dsr-serve"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	proc := cmd.Process
	t.Cleanup(func() { proc.Kill(); cmd.Wait() })

	serveRe := regexp.MustCompile(`serving on (\S+)`)
	metricsRe := regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	sv := &serveProc{cmd: cmd, exited: make(chan struct{})}
	readyc := make(chan struct{})
	go func() {
		defer close(sv.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				sv.metricsAddr = m[1]
			}
			if m := serveRe.FindStringSubmatch(line); m != nil {
				sv.addr = m[1]
				close(readyc)
				break
			}
		}
		// Keep draining so the process never blocks on stderr.
		for sc.Scan() {
			sv.stderr.WriteString(sc.Text() + "\n")
		}
	}()
	select {
	case <-readyc:
	case <-time.After(30 * time.Second):
		t.Fatal("dsr-serve never announced its address")
	}
	return sv
}

// drain sends SIGTERM and requires a clean exit — the graceful path.
func (sv *serveProc) drain(t *testing.T) {
	t.Helper()
	sv.cmd.Process.Signal(syscall.SIGTERM)
	if err := sv.cmd.Wait(); err != nil {
		t.Fatalf("dsr-serve did not drain cleanly: %v", err)
	}
}

// metrics is one snapshot of the ops endpoint (labels rendered into the
// names).
type metrics struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
}

// scrape fetches the ops endpoint's snapshot.
func (sv *serveProc) scrape(t *testing.T) metrics {
	t.Helper()
	resp, err := http.Get("http://" + sv.metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// await scrapes until ok holds, failing the test after 10s.
func (sv *serveProc) await(t *testing.T, what string, ok func(metrics) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(sv.scrape(t)); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 10s for %s", what)
		}
	}
}

// bootShardFleet starts k dsr-shard processes and returns their
// addresses and processes; killed on test cleanup. Same harness as the
// dsr-query e2e.
func bootShardFleet(t *testing.T, bin, graphPath string, k int, spec string) ([]string, []*os.Process) {
	t.Helper()
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	var addrs []string
	var procs []*os.Process
	for i := 0; i < k; i++ {
		cmd := exec.Command(filepath.Join(bin, "dsr-shard"),
			"-graph", graphPath, "-shards", fmt.Sprint(k), "-id", fmt.Sprint(i),
			"-partitioner", spec, "-listen", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		proc := cmd.Process
		procs = append(procs, proc)
		t.Cleanup(func() { proc.Kill(); cmd.Wait() })

		addrCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
					addrCh <- m[1]
				}
			}
		}()
		select {
		case addr := <-addrCh:
			addrs = append(addrs, addr)
		case <-time.After(30 * time.Second):
			t.Fatalf("shard %d never reported its address", i)
		}
	}
	return addrs, procs
}

// isExit reports whether err is an *exec.ExitError, filling ee.
func isExit(err error, ee **exec.ExitError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*exec.ExitError)
	if ok {
		*ee = e
	}
	return ok
}
