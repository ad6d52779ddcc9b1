package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"dsr/internal/cli"
	"dsr/internal/obs"
)

// buildShard builds the dsr-shard binary once per test binary and
// returns its path plus the test graph's absolute path.
func buildShard(t *testing.T) (bin, graphPath string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./cmd/dsr-shard")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	graphPath, err := filepath.Abs(filepath.Join("..", "..", "internal", "graph", "testdata", "tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "dsr-shard"), graphPath
}

// TestFlagValidationExits: bad invocations must fail fast with the
// documented exit codes — 2 for flag misuse and bad flag values, all
// caught before any work, 1 for what only the work can discover — and
// name the offending flag.
func TestFlagValidationExits(t *testing.T) {
	bin, graphPath := buildShard(t)
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{
			name:     "missing -graph",
			args:     []string{"-listen", "127.0.0.1:0"},
			wantCode: cli.ExitUsage,
			wantErr:  "-graph is required",
		},
		{
			name:     "bad -log-level",
			args:     []string{"-graph", graphPath, "-log-level", "loud"},
			wantCode: cli.ExitUsage,
			wantErr:  "-log-level",
		},
		{
			name:     "-id out of range",
			args:     []string{"-graph", graphPath, "-shards", "2", "-id", "5"},
			wantCode: cli.ExitUsage,
			wantErr:  "outside",
		},
		{
			name:     "-shards below 1",
			args:     []string{"-graph", graphPath, "-shards", "0"},
			wantCode: cli.ExitUsage,
			wantErr:  "-shards must be >= 1, got 0",
		},
		{
			name:     "bad -partitioner",
			args:     []string{"-graph", graphPath, "-partitioner", "psychic"},
			wantCode: cli.ExitUsage,
			wantErr:  "-partitioner",
		},
		{
			name:     "unreadable graph",
			args:     []string{"-graph", filepath.Join(t.TempDir(), "nope.txt")},
			wantCode: cli.ExitFailure,
			wantErr:  "load graph",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			cli.WantExit(t, tc.name, ee.ExitCode(), tc.wantCode)
			if !regexp.MustCompile(regexp.QuoteMeta(tc.wantErr)).Match(out) {
				t.Errorf("stderr missing %q", tc.wantErr)
			}
			if t.Failed() {
				t.Logf("output:\n%s", out)
			}
		})
	}
}

// TestMetricsAnnounceAndDrain: a served shard announces its ops
// endpoint on stderr, that endpoint serves a JSON registry snapshot
// (build info included), and SIGTERM drains to exit 0.
func TestMetricsAnnounceAndDrain(t *testing.T) {
	bin, graphPath := buildShard(t)
	cmd := exec.Command(bin,
		"-graph", graphPath, "-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := false
	t.Cleanup(func() {
		if !done {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	metricsRe := regexp.MustCompile(`metrics on (http://\S+/metrics)`)
	servingRe := regexp.MustCompile(`serving on (\S+)`)
	urlCh := make(chan string, 1)
	servingCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				urlCh <- m[1]
			}
			if m := servingRe.FindStringSubmatch(line); m != nil {
				servingCh <- m[1]
			}
		}
	}()
	var metricsURL string
	select {
	case metricsURL = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatal("shard never announced its metrics endpoint")
	}
	select {
	case <-servingCh:
	case <-time.After(30 * time.Second):
		t.Fatal("shard never started serving")
	}

	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatalf("GET %s: %v", metricsURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", metricsURL, resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics JSON: %v", err)
	}
	if snap.Build.GoVersion == "" || snap.Build.Start == "" {
		t.Errorf("/metrics snapshot missing build info: %+v", snap.Build)
	}
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Errorf("/metrics snapshot missing instrument sections: %+v", snap)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("SIGTERM drain did not exit 0: %v", err)
	}
	done = true
}
