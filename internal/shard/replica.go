package shard

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dsr/internal/wire"
)

// Replica is one endpoint serving a single partition's local-search
// task batches. It is the unit the transport (Replicated) routes to and
// fails over between: every replica of a partition holds the same
// subgraph and summary, so any of them can answer any batch for that
// partition. Calls are synchronous and the transport makes one at a
// time — its partition goroutine is a replica's only caller — so a
// replica needs no goroutine of its own. Close may come from another
// goroutine: it ends a Run or Summary in progress with an error, and
// a closed replica fails every further call.
type Replica interface {
	// Run answers the batch, Results in task order. Results alias
	// replica-owned buffers that stay valid until the next Run or
	// Summary on this replica.
	Run(h wire.BatchHeader, tasks []wire.Task) Reply
	// Summary fetches the replica's boundary summary. Same arena
	// contract as Results.
	Summary(ctx context.Context) (wire.Summary, error)
	// Hello reports the identity the replica presented at dial time. A
	// zero Hello (NumShards == 0) means the replica has no handshake
	// identity (in-process replicas) and opts out of fleet cross-checks.
	Hello() wire.Hello
	Close() error
}

// ReplicaDialer establishes a live Replica for one endpoint, or
// reports why it cannot (host down, handshake mismatch). The
// transport calls it at construction, again from its
// periodic reconnect loop for endpoints marked dead, and as a last
// resort during a query when a partition has no live replica left. ctx
// bounds the dial attempt; redials triggered by Close-cancelled
// transports abort promptly.
type ReplicaDialer func(ctx context.Context) (Replica, error)

// TCPReplicaDialer returns a dialer for a dsr-shard server at addr
// serving partition p of a numShards-wide deployment. Every dial runs
// the full hello handshake — shard identity, deployment shape, graph
// fingerprint, partitioning digest — so a replica that comes back
// wrong (restarted from a different graph or partitioning spec) is
// refused on reconnect exactly like at first contact.
func TCPReplicaDialer(p int, addr string, numShards, wantVertices int, wantGraph, wantPart uint64) ReplicaDialer {
	return func(ctx context.Context) (Replica, error) {
		return dialShard(ctx, p, addr, numShards, expect{ref: -1, numVertices: wantVertices, graph: wantGraph, part: wantPart}, nil)
	}
}

// localReplica serves one partition's batches on a dedicated in-process
// Shard, on its caller's goroutine. R local replicas of a partition are
// R independent Shard instances over the same subgraph, so failing
// over between them is exercised with real buffer ownership. A Run
// allocates nothing: every buffer involved is owned by the Shard and
// reused.
type localReplica struct {
	sh     *Shard
	closed atomic.Bool
}

// NewLocalReplica wraps sh as a Replica. The Replica takes ownership of
// sh's scratch: callers must not Run the shard themselves, and replicas
// of the same partition need distinct Shard instances.
func NewLocalReplica(sh *Shard) Replica { return &localReplica{sh: sh} }

// Run runs the batch on the Shard, synthesizing the server-timing
// breakdown (search time only — there is no decode, queue, or encode
// in process) when the header asks for tracing, so in-process replicas
// feed the engine's net-vs-server split too. The Reply is built by
// value, so the timing branch allocates nothing either.
func (lr *localReplica) Run(h wire.BatchHeader, tasks []wire.Task) Reply {
	rep := Reply{Shard: lr.sh.ID(), Batch: h.Batch}
	if lr.closed.Load() {
		rep.Err = ErrClosed
		return rep
	}
	if h.Trace {
		start := time.Now()
		rep.Results = lr.sh.Run(tasks)
		rep.Timing.Search = uint64(time.Since(start))
		rep.HasTiming = true
		return rep
	}
	rep.Results = lr.sh.Run(tasks)
	return rep
}

// Summary reads the summary the Shard built in New.
func (lr *localReplica) Summary(ctx context.Context) (wire.Summary, error) {
	if lr.closed.Load() {
		return wire.Summary{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return wire.Summary{}, err
	}
	return lr.sh.Summary(), nil
}

// Hello returns the zero Hello: in-process replicas have no handshake
// identity, which consumers treat as opting out of fleet cross-checks.
func (lr *localReplica) Hello() wire.Hello { return wire.Hello{} }

// Close fails every later call. A Run in progress is a local search
// that finishes on its own. Safe to call more than once.
func (lr *localReplica) Close() error {
	lr.closed.Store(true)
	return nil
}

// ParseGroups expands replica address groups: addrs[p] holds partition
// p's endpoints separated by '|' ("host1:7000|host2:7000"). Whitespace
// around endpoints is trimmed; empty endpoints (or empty groups) are
// rejected so a typo like "a||b" cannot silently shrink a replica set.
func ParseGroups(addrs []string) ([][]string, error) {
	groups := make([][]string, len(addrs))
	for p, spec := range addrs {
		for _, a := range strings.Split(spec, "|") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("shard: partition %d: empty replica address in %q", p, spec)
			}
			groups[p] = append(groups[p], a)
		}
	}
	return groups, nil
}
