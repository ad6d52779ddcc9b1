package shard

import "dsr/internal/snapshot"

// Snapshot captures what the shard persists: the subgraph with its SCC
// condensation, under a header carrying the deployment identity (shard
// count, total vertex count, graph fingerprint, partitioning digest —
// the same fields the hello handshake checks). Everything else a shard
// holds — regions, pruned DAGs, the boundary summary — New derives
// from those in linear time.
func (s *Shard) Snapshot(shardCount, totalVertices int, graphSum, partSum uint64) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Header: snapshot.Header{
			Version:            snapshot.FormatVersion,
			ShardID:            s.id,
			ShardCount:         shardCount,
			TotalVertices:      totalVertices,
			GraphFingerprint:   graphSum,
			PartitioningDigest: partSum,
		},
		Sub: s.sub,
	}
}

// FromSnapshot reconstitutes a Shard from a decoded snapshot. The
// condensation arrives attached to the subgraph, so no Tarjan runs; New
// derives the regions, the pruned DAGs and the boundary summary exactly
// as for a freshly built shard, so the result is byte-identical on the
// wire.
func FromSnapshot(sn *snapshot.Snapshot) *Shard { return New(sn.ShardID, sn.Sub) }
