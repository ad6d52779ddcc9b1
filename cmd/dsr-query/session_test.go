package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dsr/internal/cli"
	"dsr/internal/dsr"
	"dsr/internal/shard"
)

// fakeEngine satisfies the session's engine interface with scripted
// answers, so the health-summary contract can be tested without a
// shard fleet.
type fakeEngine struct {
	err    error // returned by every QueryBatchErr when non-nil
	health []shard.PartitionHealth
}

func (f *fakeEngine) QueryBatchErr(qs []dsr.Query) ([]bool, error) {
	if f.err != nil {
		return nil, f.err
	}
	return make([]bool, len(qs)), nil
}

func (f *fakeEngine) Health() []shard.PartitionHealth { return f.health }

// TestHealthSummaryOnBothEndings: the replica-health summary must be
// printed when the session ends cleanly AND when it ends in an
// unrecoverable query error — the error ending is exactly when the
// operator needs the retry/failover history. (It used to be skipped
// there, leaving failed sessions with no account of what the failover
// machinery did.)
func TestHealthSummaryOnBothEndings(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode int
	}{
		{name: "clean ending", err: nil, wantCode: cli.ExitOK},
		{name: "error ending", err: errors.New("transport exploded"), wantCode: cli.ExitFailure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{
				err: tc.err,
				health: []shard.PartitionHealth{
					{Partition: 0, Replicas: 2, Live: 1, Retries: 3, Failovers: 1, Redials: 2},
				},
			}
			var out, errw, health strings.Builder
			logf := func(format string, args ...any) {
				fmt.Fprintf(&health, format+"\n", args...)
			}
			code := runQueries(eng, strings.NewReader("0 | 1\n"), &out, &errw, false, logf)
			cli.WantExit(t, tc.name, code, tc.wantCode)
			want := "partition 0: 1/2 replicas live, retries=3 failovers=1 redials=2"
			if !strings.Contains(health.String(), want) {
				t.Errorf("health summary missing %q, got:\n%s", want, health.String())
			}
			if tc.err != nil && !strings.Contains(errw.String(), "transport exploded") {
				t.Errorf("error ending did not report the failure: %s", errw.String())
			}
		})
	}
}

// TestHealthSummaryNilLogger: a nil healthLog (in-process and batch
// sessions) prints nothing and must not panic.
func TestHealthSummaryNilLogger(t *testing.T) {
	var out, errw strings.Builder
	eng := &fakeEngine{health: []shard.PartitionHealth{{Partition: 0}}}
	code := runQueries(eng, strings.NewReader("0 | 1\n"), &out, &errw, false, nil)
	cli.WantExit(t, "nil health logger", code, cli.ExitOK)
	if errw.Len() != 0 {
		t.Errorf("unexpected stderr: %s", errw.String())
	}
}
