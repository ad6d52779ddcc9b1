package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckPaths: a doc naming a source path that is not on disk is a
// problem, with the document and line; paths that exist, glob and
// "..." patterns, and other directories' paths are not.
func TestCheckPaths(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"internal/dsr", "cmd/dsr-query", "docs"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/dsr-query/main.go", "package main\n")
	write("README.md", "Engine: `internal/dsr`. CLI: cmd/dsr-query/main.go.\nAll of `internal/...`, cmd/*/main.go and bench/ghost are fine.\n")
	write("docs/ARCH.md", "line one\n  cmd/dsr-query ──► internal/core     the façade\nsee `dsr/internal/dsr` and tools/ghost.\n")

	got := checkPaths(root)
	want := []string{"docs/ARCH.md:2: names internal/core,", "docs/ARCH.md:3: names tools/ghost,"}
	if len(got) != len(want) {
		t.Fatalf("problems = %q, want %d of them", got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, got[i], w)
		}
	}
}

// TestCheckFlags: a flag-table row naming a flag that no binary defines
// is a problem, with the document and line — every flag of a row that
// names several is checked — while flags some binary or the shared cli
// package defines, either way, are not; nor are flags outside a
// flag-table row.
func TestCheckFlags(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"cmd/dsr-serve", "internal/cli", "docs"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/dsr-serve/main.go", "package main\nvar listen = flag.String(\"listen\", \":7200\", \"address\")\nfunc init() { flag.IntVar(&n, \"batch-max\", 64, \"most queries\") }\n")
	write("internal/cli/cli.go", "package cli\nvar lvl = flag.String(\"log-level\", \"info\", \"floor\")\n")
	write("docs/OPERATIONS.md", "| Flag | Default | Meaning |\n|---|---|---|\n"+
		"| `-listen` | `:7200` | Address; see `-batch-max` |\n"+
		"| `-spectre` | `false` | Gone |\n"+
		"| `-batch-max`, `-ghost`, `-log-level` | | Shared |\n"+
		"| `dsr_slow_queries_total` | counter | Batches past `-phantom` |\n"+
		"Prose may name `-phantom` too.\n")

	got := checkFlags(root)
	want := []string{"docs/OPERATIONS.md:4: names flag -spectre,", "docs/OPERATIONS.md:5: names flag -ghost,"}
	if len(got) != len(want) {
		t.Fatalf("problems = %q, want %d of them", got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, got[i], w)
		}
	}
}
