package dsr

import (
	"fmt"
	"strings"
)

// MismatchError reports two shards of one fleet that disagree about the
// deployment they serve — different vertex counts, graph fingerprints,
// or partitioning digests — or two replicas of one partition that ship
// different boundary summaries (PartA == PartB; A is the digest of the
// summary the coordinator stitched). Connect refuses such a fleet
// outright: the coordinator holds no graph of its own to arbitrate
// with, and a disagreement would mean silently wrong answers, not
// errors.
type MismatchError struct {
	Field        string // "vertex count", "graph fingerprint", "partitioning digest", "summary digest"
	PartA, PartB int    // the two disagreeing partitions
	A, B         uint64 // their reported values
}

func (e *MismatchError) Error() string {
	if e.PartA == e.PartB {
		return fmt.Sprintf("dsr: fleet mismatch: replicas of shard %d report %s %#x and %#x",
			e.PartA, e.Field, e.A, e.B)
	}
	return fmt.Sprintf("dsr: fleet mismatch: shard %d reports %s %#x, shard %d reports %#x",
		e.PartA, e.Field, e.A, e.PartB, e.B)
}

// PartitionError is one partition that answered nothing for a batch
// round: every replica of the partition failed, be that one or several
// (Err carries the per-replica detail and unwraps to the causes, see
// shard.ReplicaSetError).
type PartitionError struct {
	Partition int
	Err       error
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("partition %d: %v", e.Partition, e.Err)
}

func (e *PartitionError) Unwrap() error { return e.Err }

// BatchError reports partial failure of a QueryBatchErr round: one or
// more partitions were unavailable, exactly one entry per dead
// partition. Answers for queries with Failed[i] == false are still
// valid — either the query never consulted a dead partition, or it was
// proven reachable from the partitions that did answer (a local hit or
// boundary path is evidence of a path; missing data can only hide
// paths, never invent them). Failed[i] == true means the query's
// `false` cannot be trusted and the query should be retried.
type BatchError struct {
	Partitions []PartitionError // one per dead partition, ascending
	Failed     []bool           // per batch query: answer unusable
}

func (e *BatchError) Error() string {
	nf := 0
	for _, f := range e.Failed {
		if f {
			nf++
		}
	}
	parts := make([]string, len(e.Partitions))
	for i := range e.Partitions {
		parts[i] = e.Partitions[i].Error()
	}
	return fmt.Sprintf("dsr: %d of %d queries failed, %d partition(s) unavailable: %s",
		nf, len(e.Failed), len(e.Partitions), strings.Join(parts, "; "))
}
