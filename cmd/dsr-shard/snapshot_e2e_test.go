package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"dsr/internal/obs"
	"dsr/internal/snapshot"
)

// shardProc wraps one running dsr-shard, with its stderr scanned for
// the announce lines the tests synchronize on.
type shardProc struct {
	t       *testing.T
	cmd     *exec.Cmd
	serving chan string // "serving on <addr>"
	metrics chan string // metrics endpoint URL
	lines   chan string // every stderr line, for pattern waits
	done    bool
}

func startShard(t *testing.T, bin string, args ...string) *shardProc {
	t.Helper()
	p := &shardProc{
		t:       t,
		cmd:     exec.Command(bin, args...),
		serving: make(chan string, 1),
		metrics: make(chan string, 1),
		lines:   make(chan string, 256),
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !p.done {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	servingRe := regexp.MustCompile(`serving on (\S+)`)
	metricsRe := regexp.MustCompile(`metrics on (http://\S+/metrics)`)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := servingRe.FindStringSubmatch(line); m != nil {
				p.serving <- m[1]
			}
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				p.metrics <- m[1]
			}
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	return p
}

// waitLine blocks until a stderr line matches pattern, failing after a
// generous timeout. Lines are consumed.
func (p *shardProc) waitLine(pattern string) string {
	p.t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				p.t.Fatalf("stderr closed before matching %q", pattern)
			}
			if re.MatchString(line) {
				return line
			}
		case <-deadline:
			p.t.Fatalf("no stderr line matched %q within 30s", pattern)
		}
	}
}

func (p *shardProc) waitServing() string {
	p.t.Helper()
	select {
	case addr := <-p.serving:
		return addr
	case <-time.After(30 * time.Second):
		p.t.Fatal("shard never started serving")
		return ""
	}
}

// drain SIGTERMs the shard and requires a clean exit.
func (p *shardProc) drain() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("SIGTERM drain did not exit 0: %v", err)
	}
	p.done = true
}

// counter fetches the named counter from the shard's /metrics endpoint.
func (p *shardProc) counter(name string) uint64 {
	p.t.Helper()
	var url string
	select {
	case url = <-p.metrics:
	case <-time.After(30 * time.Second):
		p.t.Fatal("shard never announced its metrics endpoint")
	}
	resp, err := http.Get(url)
	if err != nil {
		p.t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		p.t.Fatalf("decode /metrics: %v", err)
	}
	return snap.Counters[name]
}

// stampVersion returns a copy of a snapshot file with its format
// version field (bytes 8..12) set to v and the whole-file FNV-1a
// checksum (bytes 48..56, hashed as zero) recomputed: what a build of
// another format version would have written for the same state.
func stampVersion(data []byte, v uint32) []byte {
	out := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(out[8:], v)
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i, b := range out {
		if i >= 48 && i < 56 {
			b = 0
		}
		h ^= uint64(b)
		h *= prime64
	}
	binary.LittleEndian.PutUint64(out[48:], h)
	return out
}

// TestSnapshotBootCycleTCP drives the full snapshot lifecycle through
// the real binary: a cold boot from -graph writes a snapshot, the next
// boot loads it with no -graph at all, a corrupted or version-skewed
// file falls back to a rebuild (rewriting a good snapshot) with a
// logged warning, and a corrupted file with no -graph to rebuild from
// is fatal.
func TestSnapshotBootCycleTCP(t *testing.T) {
	bin, graphPath := buildShard(t)
	snapDir := t.TempDir()
	snapPath := filepath.Join(snapDir, snapshot.Filename(0, 1))

	// Boot 1: rebuild from -graph, persist the snapshot before serving.
	p1 := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0")
	p1.waitLine(`wrote snapshot .*\.dsrsnap \(\d+ bytes\)`)
	p1.waitServing()
	p1.drain()
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot not on disk after boot 1: %v", err)
	}
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	// Boot 2: snapshot only — no -graph anywhere near the process.
	p2 := startShard(t, bin, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	p2.waitLine(`loaded snapshot .*graph file not read`)
	p2.waitServing()
	if got := p2.counter("dsr_snapshot_loads_total"); got != 1 {
		t.Errorf("dsr_snapshot_loads_total = %d, want 1", got)
	}
	p2.drain()

	// Corrupt the snapshot: flip a payload byte.
	bad := append([]byte{}, good...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(snapPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot 3: corruption is a logged warning and a rebuild, never a
	// wrong answer — and the rebuild path rewrites a good snapshot.
	p3 := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir,
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	p3.waitLine(`snapshot unusable, rebuilding from -graph`)
	p3.waitLine(`wrote snapshot`)
	p3.waitServing()
	if got := p3.counter("dsr_snapshot_load_failures_total"); got != 1 {
		t.Errorf("dsr_snapshot_load_failures_total = %d, want 1", got)
	}
	p3.drain()
	rewritten, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(rewritten) != string(good) {
		t.Error("rebuild did not restore the original snapshot bytes (encoding should be deterministic)")
	}

	// Boot 4: a file a format-2 build wrote (version field 2, checksum
	// intact) is refused as version skew and rebuilt from -graph.
	if err := os.WriteFile(snapPath, stampVersion(good, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	p4 := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0")
	p4.waitLine(`snapshot unusable, rebuilding from -graph: .*version skew: file is version 2`)
	p4.waitLine(`wrote snapshot`)
	p4.waitServing()
	p4.drain()
	if rewritten, err := os.ReadFile(snapPath); err != nil || string(rewritten) != string(good) {
		t.Errorf("rebuild after version skew did not rewrite the current snapshot (err %v)", err)
	}

	// Boot 4b: the same for a file a format-3 build wrote, the last
	// format to store the exit list and the reverse DAG.
	if err := os.WriteFile(snapPath, stampVersion(good, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	p4b := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0")
	p4b.waitLine(`snapshot unusable, rebuilding from -graph: .*version skew: file is version 3`)
	p4b.waitLine(`wrote snapshot`)
	p4b.waitServing()
	p4b.drain()
	if rewritten, err := os.ReadFile(snapPath); err != nil || string(rewritten) != string(good) {
		t.Errorf("rebuild after format-3 skew did not rewrite the current snapshot (err %v)", err)
	}

	// Boot 5: corrupt snapshot and nothing to rebuild from — fatal.
	if err := os.WriteFile(snapPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("corrupt snapshot without -graph: err = %v, want exit 1\n%s", err, out)
	}
	if !regexp.MustCompile(`unusable and no -graph`).Match(out) {
		t.Errorf("stderr missing the no-rebuild-path diagnostic:\n%s", out)
	}
}

// TestSnapshotVerifyTCP: -snapshot-verify passes on a snapshot matching
// the rebuilt state and exits non-zero when the stored snapshot was
// built from a different graph.
func TestSnapshotVerifyTCP(t *testing.T) {
	bin, graphPath := buildShard(t)
	snapDir := t.TempDir()

	// Seed the snapshot, then verify against the same graph: match.
	p1 := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir, "-listen", "127.0.0.1:0")
	p1.waitLine(`wrote snapshot`)
	p1.waitServing()
	p1.drain()

	p2 := startShard(t, bin, "-graph", graphPath, "-snapshot-dir", snapDir,
		"-snapshot-verify", "-listen", "127.0.0.1:0")
	p2.waitLine(`snapshot-verify: .* matches the rebuilt state`)
	p2.waitServing()
	p2.drain()

	// Same snapshot, different graph: the rebuilt bytes differ, which
	// -snapshot-verify must make fatal.
	orig, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), "drifted.txt")
	if err := os.WriteFile(drifted, append([]byte{}, append(orig, []byte("0 7\n")...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-graph", drifted, "-snapshot-dir", snapDir,
		"-snapshot-verify", "-listen", "127.0.0.1:0").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("snapshot-verify on drifted graph: err = %v, want exit 1\n%s", err, out)
	}
	if !regexp.MustCompile(`does not match the state rebuilt from -graph`).Match(out) {
		t.Errorf("stderr missing the verify mismatch diagnostic:\n%s", out)
	}

	// Usage gate: -snapshot-verify without both inputs is exit 2.
	out, err = exec.Command(bin, "-graph", graphPath, "-snapshot-verify").CombinedOutput()
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-snapshot-verify without -snapshot-dir: err = %v, want exit 2\n%s", err, out)
	}
	if !regexp.MustCompile(`-snapshot-verify needs both`).Match(out) {
		t.Errorf("stderr missing the usage diagnostic:\n%s", out)
	}
}
