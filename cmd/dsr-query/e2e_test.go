package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dsr/internal/cli"
)

// TestBinariesTCPEndToEnd builds the real dsr-shard and dsr-query
// binaries, boots a 3-shard deployment on localhost, and runs a query
// session through the CLI — the full launchable system, not just the
// in-process transports. The coordinator side is graph-free: dsr-query
// gets nothing but -shards and learns the deployment from the shipped
// boundary summaries. The exercise repeats for the hash and the
// locality partitioner (which only the shards know about), checks the
// misassembled-fleet (exit 3) and misused-flag (exit 2) paths, and
// finishes with a malformed-input session that must exit non-zero
// while still answering the well-formed lines. Shards listen on port 0
// and the test parses the bound address from their logs, so no port is
// assumed free.
func TestBinariesTCPEndToEnd(t *testing.T) {
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

	for _, spec := range []string{"hash", "locality:seed=7"} {
		t.Run(strings.Split(spec, ":")[0], func(t *testing.T) {
			addrs := bootShardFleet(t, bin, graphPath, 3, spec)

			queries := strings.Join([]string{
				"0 | 7",     // across the bridge
				"7 | 0",     // against the bridge
				"4 | 4",     // reflexive
				"# comment", // ignored
				"0 1 | 100", // out-of-range target
			}, "\n")
			want := "true\nfalse\ntrue\nfalse\n"

			for _, batch := range []bool{false, true} {
				// Graph-free coordinator: the only thing dsr-query is told
				// is where the shards are.
				args := []string{"-shards", strings.Join(addrs, ",")}
				if batch {
					args = append(args, "-batch")
				}
				out, code := runQueryBinary(t, filepath.Join(bin, "dsr-query"), args, queries, os.Stderr)
				cli.WantExit(t, fmt.Sprintf("clean session (batch=%v)", batch), code, cli.ExitOK)
				if out != want {
					t.Errorf("dsr-query (batch=%v) output:\n%swant:\n%s", batch, out, want)
				}
			}
		})
	}

	// A misassembled fleet — shards from two deployments with different
	// partitionings — must be refused at connect time with the dedicated
	// exit status 3, before any query runs.
	t.Run("fleet-mismatch", func(t *testing.T) {
		hashAddrs := bootShardFleet(t, bin, graphPath, 3, "hash")
		locAddrs := bootShardFleet(t, bin, graphPath, 3, "locality:seed=7")
		mixed := []string{hashAddrs[0], hashAddrs[1], locAddrs[2]}
		var stderr strings.Builder
		_, code := runQueryBinary(t, filepath.Join(bin, "dsr-query"),
			[]string{"-shards", strings.Join(mixed, ",")}, "0 | 7", &stderr)
		cli.WantExit(t, "mixed fleet", code, cli.ExitMismatch)
		if !strings.Contains(stderr.String(), "fleet mismatch") {
			t.Errorf("mismatch error does not name the fleet mismatch:\n%s", stderr.String())
		}
	})

	// Graph-describing flags make no sense on the graph-free coordinator
	// and must be rejected as usage errors, not silently ignored; a bad
	// flag value is a usage error too, caught before the graph is read.
	t.Run("flag-misuse", func(t *testing.T) {
		for _, tc := range []struct {
			what, wantErr string
			args          []string
		}{
			{"-graph with -shards", "cannot be combined with -shards", []string{"-graph", graphPath, "-shards", "127.0.0.1:1"}},
			{"bad -partitioner", "-partitioner", []string{"-graph", graphPath, "-partitioner", "psychic"}},
			{"-k 0", "-k must be >= 1", []string{"-graph", graphPath, "-k", "0"}},
			{"negative -k", "-k must be >= 1", []string{"-graph", graphPath, "-k", "-3"}},
		} {
			var stderr strings.Builder
			_, code := runQueryBinary(t, filepath.Join(bin, "dsr-query"), tc.args, "", &stderr)
			cli.WantExit(t, tc.what, code, cli.ExitUsage)
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("%s: usage error does not mention %q:\n%s", tc.what, tc.wantErr, stderr.String())
			}
		}
	})

	// Malformed lines: per-line stderr errors, remaining queries still
	// answered, non-zero exit (in both modes). Previously the process
	// died at the first bad line and dropped the rest of the workload.
	t.Run("malformed-input", func(t *testing.T) {
		for _, batch := range []bool{false, true} {
			args := []string{"-graph", graphPath, "-k", "2"}
			if batch {
				args = append(args, "-batch")
			}
			var stderr strings.Builder
			out, code := runQueryBinary(t, filepath.Join(bin, "dsr-query"), args,
				"0 | 7\nbogus line\n7 | 0", &stderr)
			cli.WantExit(t, fmt.Sprintf("malformed input (batch=%v)", batch), code, cli.ExitFailure)
			if want := "true\nfalse\n"; out != want {
				t.Errorf("batch=%v: output %q, want %q", batch, out, want)
			}
			if !strings.Contains(stderr.String(), "line 2") {
				t.Errorf("batch=%v: stderr does not name the bad line:\n%s", batch, stderr.String())
			}
		}
	})
}

// bootShardFleet starts k dsr-shard processes with the given
// partitioner spec and returns their addresses; the processes are
// killed on test cleanup.
func bootShardFleet(t *testing.T, bin, graphPath string, k int, spec string) []string {
	t.Helper()
	addrRe := regexp.MustCompile(`serving on (\S+)`)
	var addrs []string
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
	return addrs
}

// runQueryBinary runs dsr-query with the given stdin and returns its
// stdout and exit code; any failure that is not a plain non-zero exit
// is fatal.
func runQueryBinary(t *testing.T, bin string, args []string, stdin string, stderr io.Writer) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			return string(out), exitErr.ExitCode()
		}
		t.Fatalf("dsr-query %v: %v", args, err)
	}
	return string(out), 0
}
