package main

import "testing"

// The whole harness minus process management, on a 2,000-vertex graph
// behind a k=2 in-process fleet: every workload shape, untraced, traced
// and stubbed, answers verified, layers replayed.
func TestSmoke(t *testing.T) {
	sb, err := newSandbox(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.cleanup()
	if err := runSmoke(config{seed: 1}, sb); err != nil {
		t.Fatal(err)
	}
}
