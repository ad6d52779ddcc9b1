package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dsr/internal/cli"
	"dsr/internal/serve"
)

// TestQueryLineGrammar runs one table of request lines through both
// callers of the shared tokenizer (dsr.ParseQuery) — this binary's
// stdin session and dsr-serve's wire protocol — over an engine that
// answers every query false, and pins what each prints. The tokens are
// read identically; the policies around them stay each caller's own:
// the session skips comments, reports a bad line on stderr by number
// and keeps strconv's reason, and answers an empty side (false); the
// protocol answers every non-blank line in order, with "error parse:
// ..." for comments, bad tokens and empty sides alike.
func TestQueryLineGrammar(t *testing.T) {
	rows := []struct{ line, stdout, stderr, wire string }{
		{line: "1 2 | 3", stdout: "false", wire: "false"},
		{line: "  7|7  ", stdout: "false", wire: "false"},
		{line: ""},
		{line: "# note", wire: "error parse: missing '|' separator"},
		{line: "1 2 |", stdout: "false", wire: "error parse: empty vertex set"},
		{line: "| 3", stdout: "false", wire: "error parse: empty vertex set"},
		{line: "1 x | 2", wire: `error parse: bad vertex id "x"`,
			stderr: `sources: bad vertex "x": strconv.ParseUint: parsing "x": invalid syntax`},
		{line: "1 | -2", wire: `error parse: bad vertex id "-2"`,
			stderr: `targets: bad vertex "-2": strconv.ParseUint: parsing "-2": invalid syntax`},
		{line: "1 | 4294967296", wire: `error parse: bad vertex id "4294967296"`,
			stderr: `targets: bad vertex "4294967296": strconv.ParseUint: parsing "4294967296": value out of range`},
		{line: "1 | 4294967295", stdout: "false", wire: "false"},
		{line: "1 2 3", wire: "error parse: missing '|' separator",
			stderr: `want 'sources | targets', got "1 2 3"`},
	}
	var input, stdout, stderr, wire strings.Builder
	bad := 0
	for i, r := range rows {
		input.WriteString(r.line + "\n")
		if r.stdout != "" {
			stdout.WriteString(r.stdout + "\n")
		}
		if r.stderr != "" {
			fmt.Fprintf(&stderr, "dsr-query: line %d: %s\n", i+1, r.stderr)
			bad++
		}
		if r.wire != "" {
			wire.WriteString(r.wire + "\n")
		}
	}
	fmt.Fprintf(&stderr, "dsr-query: %d malformed line(s) skipped\n", bad)
	eng := &fakeEngine{}

	t.Run("stdin session", func(t *testing.T) {
		var out, errw strings.Builder
		code := runQueries(eng, strings.NewReader(input.String()), &out, &errw, false, nil)
		cli.WantExit(t, "session with malformed lines", code, cli.ExitFailure)
		if out.String() != stdout.String() {
			t.Errorf("stdout:\n%swant:\n%s", out.String(), stdout.String())
		}
		if errw.String() != stderr.String() {
			t.Errorf("stderr:\n%swant:\n%s", errw.String(), stderr.String())
		}
	})

	t.Run("wire protocol", func(t *testing.T) {
		srv := serve.New(eng, serve.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			<-served
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, input.String()); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != wire.String() {
			t.Errorf("replies:\n%swant:\n%s", got, wire.String())
		}
	})
}
