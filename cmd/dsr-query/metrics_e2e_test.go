package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
)

// TestBinariesTCPMetricsEndpoint is the binary-level observability e2e: a
// k=3, R=2 dsr-shard fleet over real TCP with the real dsr-query
// binary serving -metrics-addr. Mid-stream, replica 0 of every
// partition is SIGTERMed. GET /metrics on the live coordinator must
// return a JSON snapshot with query-latency quantiles, per-partition
// RPC counters, and — after the failover — non-zero retry, failover,
// and redial counts.
func TestBinariesTCPMetricsEndpoint(t *testing.T) {
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
	g, err := graph.LoadEdgeListFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}

	// Boot the replicated fleet: shards[p][r] is replica r of partition p.
	const k, R = 3, 2
	type proc struct {
		cmd  *exec.Cmd
		addr string
	}
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	fleet := [k][R]*proc{}
	specs := make([]string, k)
	for p := 0; p < k; p++ {
		var group []string
		for r := 0; r < R; r++ {
			cmd := exec.Command(filepath.Join(bin, "dsr-shard"),
				"-graph", graphPath, "-shards", fmt.Sprint(k), "-id", fmt.Sprint(p),
				"-replica", fmt.Sprint(r), "-listen", "127.0.0.1:0")
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			pr := &proc{cmd: cmd}
			fleet[p][r] = pr
			t.Cleanup(func() {
				if pr.cmd != nil {
					pr.cmd.Process.Kill()
					pr.cmd.Wait()
				}
			})
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
			case pr.addr = <-addrCh:
			case <-time.After(30 * time.Second):
				t.Fatalf("shard %d replica %d never reported its address", p, r)
			}
			group = append(group, pr.addr)
		}
		specs[p] = strings.Join(group, "|")
	}

	// The coordinator with its ops endpoint on an ephemeral port; the
	// URL is announced on stderr.
	query := exec.Command(filepath.Join(bin, "dsr-query"),
		"-shards", strings.Join(specs, ","), "-metrics-addr", "127.0.0.1:0")
	qerr, err := query.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdin, err := query.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := query.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { query.Process.Kill(); query.Wait() })
	metricsRe := regexp.MustCompile(`metrics on (http://\S+/metrics)`)
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(qerr)
		for sc.Scan() {
			if m := metricsRe.FindStringSubmatch(sc.Text()); m != nil {
				urlCh <- m[1]
			}
		}
	}()
	var metricsURL string
	select {
	case metricsURL = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatal("dsr-query never announced its metrics endpoint")
	}
	scrape := func() obs.Snapshot {
		t.Helper()
		resp, err := http.Get(metricsURL)
		if err != nil {
			t.Fatalf("GET %s: %v", metricsURL, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %s", metricsURL, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", metricsURL, err)
		}
		// The document's shape is the scrape contract: all four registry
		// sections under their names, whatever they hold.
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decode /metrics JSON: %v", err)
		}
		for _, key := range []string{"build", "counters", "gauges", "histograms"} {
			if _, ok := doc[key]; !ok {
				t.Fatalf("/metrics JSON missing %q section", key)
			}
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("decode /metrics JSON: %v", err)
		}
		if snap.Build.GoVersion == "" {
			t.Fatalf("/metrics build section unusable: %s", doc["build"])
		}
		return snap
	}

	// Lock-stepped query stream, verified against the oracle so the
	// metrics describe a correct run, not a degenerate one.
	rng := rand.New(rand.NewSource(20260808))
	const nq = 40
	n := g.NumVertices()
	answers := bufio.NewReader(stdout)
	ask := func(i int) {
		t.Helper()
		s := graph.VertexID(rng.Intn(n))
		d := graph.VertexID(rng.Intn(n))
		if _, err := io.WriteString(stdin, fmt.Sprintf("%d | %d\n", s, d)); err != nil {
			t.Fatalf("query %d: write: %v", i, err)
		}
		got, err := answers.ReadString('\n')
		if err != nil {
			t.Fatalf("query %d: read answer: %v", i, err)
		}
		want := fmt.Sprint(dsr.NaiveReach(g, []graph.VertexID{s}, []graph.VertexID{d}))
		if got := strings.TrimSpace(got); got != want {
			t.Fatalf("query %d (%d | %d): got %s, oracle %s", i, s, d, got, want)
		}
	}
	for i := 0; i < nq/2; i++ {
		ask(i)
	}

	// Healthy-fleet snapshot: latency quantiles and per-partition RPC
	// counters must already be populated.
	snap := scrape()
	lat := snap.Histograms["dsr_query_latency_ns"]
	if lat.Count == 0 || lat.P50 == 0 || lat.P99 < lat.P50 {
		t.Errorf("query latency histogram not live: %+v", lat)
	}
	if got := snap.Counters["dsr_queries_total"]; got != nq/2 {
		t.Errorf("dsr_queries_total = %d, want %d", got, nq/2)
	}
	for p := 0; p < k; p++ {
		if snap.Counters[obs.Name("dsr_rpc_total", "partition", p)] == 0 {
			t.Errorf("partition %d: dsr_rpc_total = 0 after %d queries", p, nq/2)
		}
		if snap.Gauges[obs.Name("shard_replicas_live", "partition", p)] != R {
			t.Errorf("partition %d: shard_replicas_live != %d on a healthy fleet", p, R)
		}
	}
	if snap.Counters["net_client_frames_out_total"] == 0 || snap.Counters["net_client_bytes_in_total"] == 0 {
		t.Error("net_client frame/byte counters silent on an active TCP fleet")
	}
	if snap.Histograms["dsr_summary_fetch_ns"].Count != k {
		t.Errorf("dsr_summary_fetch_ns observed %d fetches, want %d", snap.Histograms["dsr_summary_fetch_ns"].Count, k)
	}

	// SIGTERM replica 0 of every partition; each must drain and exit 0.
	for p := 0; p < k; p++ {
		if err := fleet[p][0].cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < k; p++ {
		pr := fleet[p][0]
		if err := pr.cmd.Wait(); err != nil {
			t.Errorf("shard %d replica 0 did not drain cleanly on SIGTERM: %v", p, err)
		}
		pr.cmd = nil // cleanup must not re-kill
	}
	for i := nq / 2; i < nq; i++ {
		ask(i)
	}

	// Failover snapshot: retries and failovers fire as severed
	// connections are detected; the background reconnect loop (1s
	// period) keeps redialing the dead replicas, so poll briefly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap = scrape()
		var retries, failovers, redials uint64
		for p := 0; p < k; p++ {
			retries += snap.Counters[obs.Name("shard_retries_total", "partition", p)]
			failovers += snap.Counters[obs.Name("shard_failovers_total", "partition", p)]
			redials += snap.Counters[obs.Name("shard_redials_total", "partition", p)]
		}
		if retries > 0 && failovers > 0 && redials > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover counters never moved: retries=%d failovers=%d redials=%d", retries, failovers, redials)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := snap.Counters["dsr_queries_total"]; got != nq {
		t.Errorf("dsr_queries_total = %d after the full stream, want %d", got, nq)
	}

	stdin.Close()
	if err := query.Wait(); err != nil {
		t.Fatalf("dsr-query exited non-zero: %v", err)
	}
}
