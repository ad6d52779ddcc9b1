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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/obs/fleet"
)

// TestBinariesFleetObservability is the fleet-wide observability e2e:
// a k=3, R=2 dsr-shard fleet over real TCP, every shard serving its
// own -metrics-addr, and the dsr-query coordinator running with
// -slow-query 1ns so every batch logs a span trace. It asserts the
// two cross-process observability claims end to end:
//
//	(a) the coordinator's slow-query traces contain per-partition
//	    `server` sub-spans (shard-reported compute, propagated in the
//	    MsgResults timing footer) whose durations never exceed the
//	    enclosing RPC span, and the dsr_rpc_server_ns{partition}
//	    histograms are populated for every partition;
//	(b) GET /fleet on the coordinator returns a merged per-replica
//	    snapshot whose counters match each shard's own /metrics.
func TestBinariesFleetObservability(t *testing.T) {
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

	// Boot the fleet; every replica announces both its RPC address and
	// its ops endpoint on stderr.
	const k, R = 3, 2
	servingRe := regexp.MustCompile(`serving on (\S+)`)
	metricsRe := regexp.MustCompile(`metrics on (http://\S+/metrics)`)
	var metricsURLs [k][R]string
	specs := make([]string, k)
	for p := 0; p < k; p++ {
		var group []string
		for r := 0; r < R; r++ {
			cmd := exec.Command(filepath.Join(bin, "dsr-shard"),
				"-graph", graphPath, "-shards", fmt.Sprint(k), "-id", fmt.Sprint(p),
				"-replica", fmt.Sprint(r), "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
			addrCh := make(chan string, 1)
			urlCh := make(chan string, 1)
			go func() {
				sc := bufio.NewScanner(stderr)
				for sc.Scan() {
					if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
						addrCh <- m[1]
					}
					if m := metricsRe.FindStringSubmatch(sc.Text()); m != nil {
						urlCh <- m[1]
					}
				}
			}()
			select {
			case addr := <-addrCh:
				group = append(group, addr)
			case <-time.After(30 * time.Second):
				t.Fatalf("shard %d replica %d never reported its address", p, r)
			}
			select {
			case metricsURLs[p][r] = <-urlCh:
			case <-time.After(30 * time.Second):
				t.Fatalf("shard %d replica %d never announced its metrics endpoint", p, r)
			}
		}
		specs[p] = strings.Join(group, "|")
	}

	// The coordinator: ops endpoint (with /fleet) on an ephemeral port,
	// and a 1ns slow-query threshold so every batch logs its trace.
	query := exec.Command(filepath.Join(bin, "dsr-query"),
		"-shards", strings.Join(specs, ","), "-metrics-addr", "127.0.0.1:0",
		"-slow-query", "1ns")
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

	// One scanner owns coordinator stderr: it feeds the metrics-URL
	// channel and accumulates every line for trace parsing.
	var mu sync.Mutex
	var lines []string
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(qerr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				select {
				case urlCh <- m[1]:
				default:
				}
			}
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
		}
	}()
	var coordMetrics string
	select {
	case coordMetrics = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatal("dsr-query never announced its metrics endpoint")
	}
	fleetURL := strings.TrimSuffix(coordMetrics, "/metrics") + "/fleet"

	// Drive a lock-stepped, oracle-verified query stream so the traces
	// and counters below describe a correct run.
	rng := rand.New(rand.NewSource(20260808))
	n := g.NumVertices()
	answers := bufio.NewReader(stdout)
	const nq = 30
	for i := 0; i < nq; i++ {
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

	// (a) Parse the slow-query traces. Span lines look like
	// "    rpc part=2 n=17 start=12µs dur=840µs", with each shard's
	// "server"/"net" sub-spans right below their enclosing rpc span.
	spanRe := regexp.MustCompile(`^\s*(rpc|server) part=(\d+) n=\d+ start=\S+ dur=(\S+)$`)
	serverSeen := map[int]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		snapshot := append([]string(nil), lines...)
		mu.Unlock()
		lastRPC := map[int]time.Duration{}
		pairs := 0
		for _, line := range snapshot {
			m := spanRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			part, err := strconv.Atoi(m[2])
			if err != nil {
				t.Fatal(err)
			}
			dur, err := time.ParseDuration(m[3])
			if err != nil {
				t.Fatalf("unparseable span duration in %q: %v", line, err)
			}
			if m[1] == "rpc" {
				lastRPC[part] = dur
				continue
			}
			rpcDur, ok := lastRPC[part]
			if !ok {
				t.Fatalf("server span with no enclosing rpc span for partition %d: %q", part, line)
			}
			if dur > rpcDur {
				t.Fatalf("partition %d: server span %v exceeds enclosing rpc span %v", part, dur, rpcDur)
			}
			serverSeen[part] = true
			pairs++
		}
		if len(serverSeen) == k && pairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server sub-spans seen for partitions %v, want all %d", serverSeen, k)
		}
		time.Sleep(100 * time.Millisecond)
	}

	scrape := func(url string) obs.Snapshot {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %s", url, resp.Status)
		}
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
		return snap
	}

	// The coordinator's own registry must carry the new split
	// histograms for every partition.
	coord := scrape(coordMetrics)
	for p := 0; p < k; p++ {
		if coord.Histograms[obs.Name("dsr_rpc_server_ns", "partition", p)].Count == 0 {
			t.Errorf("partition %d: dsr_rpc_server_ns empty after %d queries", p, nq)
		}
		if coord.Histograms[obs.Name("dsr_rpc_net_ns", "partition", p)].Count == 0 {
			t.Errorf("partition %d: dsr_rpc_net_ns empty after %d queries", p, nq)
		}
	}

	// (b) The fleet view: merged, sorted, all replicas live, and its
	// per-replica counters matching each shard's own /metrics. The
	// stream is quiesced, so direct scrapes see identical values.
	resp, err := http.Get(fleetURL)
	if err != nil {
		t.Fatalf("GET %s: %v", fleetURL, err)
	}
	var fsnap fleet.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&fsnap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /fleet: %v", err)
	}
	if fsnap.Coordinator.Counters["dsr_queries_total"] == 0 {
		t.Error("/fleet coordinator section has no query counters")
	}
	if len(fsnap.Shards) != k*R {
		t.Fatalf("/fleet lists %d shards, want %d", len(fsnap.Shards), k*R)
	}
	for i, st := range fsnap.Shards {
		p, r := i/R, i%R
		if st.Partition != p || st.Replica != r {
			t.Fatalf("/fleet shards not sorted: index %d is p%d/r%d", i, st.Partition, st.Replica)
		}
		if !st.Live || st.Error != "" || st.Metrics == nil {
			t.Fatalf("p%d/r%d not scraped cleanly: live=%v err=%q", p, r, st.Live, st.Error)
		}
		if st.Metrics.Build.GoVersion == "" {
			t.Errorf("p%d/r%d fleet snapshot missing build info", p, r)
		}
		direct := scrape(metricsURLs[p][r])
		for _, name := range []string{"net_server_frames_in_total", "net_server_frames_out_total", "net_server_bytes_out_total"} {
			if got, want := st.Metrics.Counters[name], direct.Counters[name]; got != want {
				t.Errorf("p%d/r%d %s: /fleet says %d, shard's own /metrics says %d", p, r, name, got, want)
			}
		}
		// A partition's rounds stay on its first replica; the standby
		// serves none while the primary is healthy.
		if got, want := st.Metrics.Histograms["shard_server_search_ns"].Count,
			direct.Histograms["shard_server_search_ns"].Count; got != want || (got == 0) != (r > 0) {
			t.Errorf("p%d/r%d shard_server_search_ns count: /fleet %d, direct %d (want equal, nonzero on the primary only)", p, r, got, want)
		}
	}
	// Every partition's primary served traffic, so its timing
	// histograms are live.
	for i, st := range fsnap.Shards {
		for _, h := range []string{"shard_server_decode_ns", "shard_server_encode_ns", "shard_server_queue_ns"} {
			if st.Replica == 0 && st.Metrics.Histograms[h].Count == 0 {
				t.Errorf("shard %d (p%d/r%d): %s never observed", i, st.Partition, st.Replica, h)
			}
		}
	}

	stdin.Close()
	if err := query.Wait(); err != nil {
		t.Fatalf("dsr-query exited non-zero: %v", err)
	}
}
