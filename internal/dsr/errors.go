package dsr

import (
	"fmt"
	"strings"
)

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
