package cli

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dsr/internal/obs"
	"dsr/internal/shard"
)

// TestExitCodeContract pins the constants to the values the README
// table documents: scripts in the wild branch on the raw integers, so
// renumbering them is a breaking change this test makes loud.
func TestExitCodeContract(t *testing.T) {
	for want, got := range []int{ExitOK, ExitFailure, ExitUsage, ExitMismatch} {
		if got != want {
			t.Errorf("%s = %d, want %d (README.md exit-code table)", exitNames[want], got, want)
		}
	}
}

// TestConnectExit: a fleet whose shards disagree gets its own exit code
// however the error was wrapped; every other connect failure is a plain
// runtime failure.
func TestConnectExit(t *testing.T) {
	mismatch := fmt.Errorf("connect: %w", &shard.MismatchError{Field: "graph fingerprint", PartB: 2})
	WantExit(t, "mismatched fleet", connectExit(mismatch), ExitMismatch)
	WantExit(t, "dial failure", connectExit(errors.New("connection refused")), ExitFailure)
}

// TestFlagSurface: the three binaries' flag sets — name, type, default,
// usage string, as `-h` renders them — are byte for byte the committed
// goldens (generated from the binaries as they were before the flags
// they share moved into this package). Operators' scripts and
// bench/proc.go's command lines depend on every one of them.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, flags := range map[string]int{"dsr-query": 9, "dsr-serve": 11, "dsr-shard": 10} {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), "-h")
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s -h: %v", name, err)
		}
		_, got, _ := strings.Cut(stderr.String(), "\n") // drop "Usage of <path>:"
		want, err := os.ReadFile(filepath.Join("testdata", name+".flags"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s -h drifted from testdata/%s.flags:\n%s", name, name, got)
		}
		if n := strings.Count(got, "\n  -"); n+1 != flags {
			t.Errorf("%s declares %d flags, want %d", name, n+1, flags)
		}
	}
}

// TestAnnouncedAddresses: the two stderr lines dsr-bench (bench/proc.go)
// and the e2e suites scrape for ":0" addresses keep the shape those
// regexps match, for a plain App and for a Coordinator's /fleet-bearing
// ops endpoint alike.
func TestAnnouncedAddresses(t *testing.T) {
	servingRe := regexp.MustCompile(`serving on (\S+)`)
	metricsRe := regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	addr := "127.0.0.1:0"
	var log bytes.Buffer
	app := &App{Name: "test", Log: obs.NewLogger(&log, obs.LevelInfo), Reg: obs.NewRegistry(), metricsAddr: &addr}
	defer func() { app.ops.Close() }()

	ln := app.Listen(addr)
	defer ln.Close()
	if m := servingRe.FindStringSubmatch(log.String()); m == nil || m[1] != ln.Addr().String() {
		t.Errorf("serving line %q does not announce %s", log.String(), ln.Addr())
	}
	for what, start := range map[string]func(){
		"app":         func() { app.StartOps() },
		"coordinator": (&Coordinator{App: app}).StartOps,
	} {
		log.Reset()
		app.ops.Close()
		start()
		if m := metricsRe.FindStringSubmatch(log.String()); m == nil || m[1] != app.ops.Addr() {
			t.Errorf("%s: metrics line %q does not announce %s", what, log.String(), app.ops.Addr())
		}
	}
}
