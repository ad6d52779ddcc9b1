//go:build race

package shard

// raceEnabled reports whether the race detector instruments this build;
// allocation-exactness tests skip under it.
const raceEnabled = true
