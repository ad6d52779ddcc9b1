package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
)

// TestBinariesTCPReplicaFailover is the binary-level failover e2e: a
// k=3 fleet with R=2 dsr-shard replicas per partition over real TCP,
// driven by the real dsr-query binary answering a query stream on
// stdin. Mid-stream, one replica of every partition is SIGTERMed; the
// stream must keep being answered correctly (differentially against
// NaiveReach), the killed processes must drain and exit 0, and the
// coordinator must exit 0 with every answer correct.
func TestBinariesTCPReplicaFailover(t *testing.T) {
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

	// The query stream, precomputed against the oracle.
	rng := rand.New(rand.NewSource(20260728))
	const nq = 40
	n := g.NumVertices()
	lines := make([]string, nq)
	want := make([]string, nq)
	for i := range lines {
		s := graph.VertexID(rng.Intn(n))
		d := graph.VertexID(rng.Intn(n))
		lines[i] = fmt.Sprintf("%d | %d", s, d)
		want[i] = fmt.Sprint(dsr.NaiveReach(g, []graph.VertexID{s}, []graph.VertexID{d}))
	}

	// Interactive session: answers are flushed per line, so we can
	// lock-step the stream and kill replicas at an exact point in it.
	query := exec.Command(filepath.Join(bin, "dsr-query"),
		"-shards", strings.Join(specs, ","))
	query.Stderr = os.Stderr
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
	answers := bufio.NewReader(stdout)

	ask := func(i int) {
		t.Helper()
		if _, err := io.WriteString(stdin, lines[i]+"\n"); err != nil {
			t.Fatalf("query %d: write: %v", i, err)
		}
		got, err := answers.ReadString('\n')
		if err != nil {
			t.Fatalf("query %d: read answer: %v", i, err)
		}
		if got := strings.TrimSpace(got); got != want[i] {
			t.Fatalf("query %d (%s): got %s, oracle %s", i, lines[i], got, want[i])
		}
	}

	for i := 0; i < nq/2; i++ {
		ask(i)
	}

	// Mid-stream: SIGTERM replica 0 of every partition. The drain must
	// let each exit 0, and the coordinator must fail over to replica 1.
	for p := 0; p < k; p++ {
		pr := fleet[p][0]
		if err := pr.cmd.Process.Signal(syscall.SIGTERM); err != nil {
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
	stdin.Close()
	if err := query.Wait(); err != nil {
		t.Fatalf("dsr-query exited non-zero after failover: %v", err)
	}
}

// TestBinariesTCPStandbyDiesIdle is TestBinariesTCPReplicaFailover with
// the deaths the other way round. Rounds land on the first idle replica,
// so replica 1 of every partition is a standby that serves nothing while
// replica 0 is healthy; here it dies first, unnoticed — SIGKILLed while
// its connection sits idle — and then replica 0 is SIGTERMed. Every
// answer stays right while replica 0 serves; once both are gone every
// answer is the oracle's or "error", never a wrong one; and once the
// standbys are back on their addresses the rounds redial them and
// answer right again, the coordinator never restarted.
func TestBinariesTCPStandbyDiesIdle(t *testing.T) {
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

	// start boots replica r of partition p on listen and returns the
	// process and the address it serves on.
	const k, R = 3, 2
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	start := func(p, r int, listen string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "dsr-shard"),
			"-graph", graphPath, "-shards", fmt.Sprint(k), "-id", fmt.Sprint(p),
			"-replica", fmt.Sprint(r), "-listen", listen)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
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
			return cmd, addr
		case <-time.After(30 * time.Second):
			t.Fatalf("shard %d replica %d never reported its address", p, r)
			return nil, ""
		}
	}
	var fleet [k][R]*exec.Cmd
	var addrs [k][R]string
	specs := make([]string, k)
	for p := 0; p < k; p++ {
		for r := 0; r < R; r++ {
			fleet[p][r], addrs[p][r] = start(p, r, "127.0.0.1:0")
		}
		specs[p] = addrs[p][0] + "|" + addrs[p][1]
	}

	rng := rand.New(rand.NewSource(20261019))
	const nq = 40
	n := g.NumVertices()
	lines := make([]string, nq)
	want := make([]string, nq)
	for i := range lines {
		s := graph.VertexID(rng.Intn(n))
		d := graph.VertexID(rng.Intn(n))
		lines[i] = fmt.Sprintf("%d | %d", s, d)
		want[i] = fmt.Sprint(dsr.NaiveReach(g, []graph.VertexID{s}, []graph.VertexID{d}))
	}

	query := exec.Command(filepath.Join(bin, "dsr-query"), "-shards", strings.Join(specs, ","))
	query.Stderr = os.Stderr
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
	answers := bufio.NewReader(stdout)
	// ask sends query i and returns whether it was answered "error"; an
	// answer that is neither the oracle's nor "error" is fatal, and so is
	// "error" unless mayFail.
	ask := func(i int, mayFail bool) bool {
		t.Helper()
		if _, err := io.WriteString(stdin, lines[i]+"\n"); err != nil {
			t.Fatalf("query %d: write: %v", i, err)
		}
		got, err := answers.ReadString('\n')
		if err != nil {
			t.Fatalf("query %d: read answer: %v", i, err)
		}
		switch got = strings.TrimSpace(got); {
		case got == want[i]:
			return false
		case got == "error" && mayFail:
			return true
		default:
			t.Fatalf("query %d (%s): got %s, oracle %s", i, lines[i], got, want[i])
			return false
		}
	}

	for i := 0; i < 10; i++ {
		ask(i, false)
	}
	// The standbys die while idle: nothing reads them, so nothing notices.
	for p := 0; p < k; p++ {
		fleet[p][1].Process.Kill()
		fleet[p][1].Wait()
	}
	for i := 10; i < 20; i++ {
		ask(i, false)
	}
	// Then the primaries go: a round fails over to a standby that is
	// already dead, and with no replica left must fail, not guess.
	for p := 0; p < k; p++ {
		if err := fleet[p][0].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := fleet[p][0].Wait(); err != nil {
			t.Errorf("shard %d replica 0 did not drain cleanly on SIGTERM: %v", p, err)
		}
	}
	failed := 0
	for i := 20; i < 30; i++ {
		if ask(i, true) {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no query failed with every replica of every partition down")
	}
	// The standbys come back on their addresses; the rounds redial them.
	for p := 0; p < k; p++ {
		fleet[p][1], _ = start(p, 1, addrs[p][1])
	}
	for i := 30; i < nq; i++ {
		ask(i, false)
	}
	stdin.Close()
	query.Wait()
}
