package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dsr/internal/wire"
)

// Replica is one endpoint serving a single partition's local-search
// task batches. It is the unit the transport (Replicated) routes to and
// fails over between: every replica of a partition holds the same
// subgraph and summary, so any of them can answer any batch for that
// partition. Close releases the replica's resources; a closed replica
// answers every further Submit with an error Reply.
type Replica interface {
	// Submit starts the batch and returns without waiting for its
	// answer: exactly one Reply per call is handed to done, on the one
	// goroutine the replica owns (a connection's reader, an in-process
	// worker) — or, when the replica is already broken, on the caller's
	// before Submit returns. Results alias replica-owned buffers that
	// stay valid until the next Submit to the same replica. The
	// transport hands a replica one batch at a time.
	Submit(h wire.BatchHeader, tasks []wire.Task, done func(Reply))
	// Summary fetches the replica's boundary summary. Same arena
	// contract as Results: the slices stay valid until the next Submit
	// or Summary on this replica.
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
// Shard: one worker goroutine running batches off a channel — the
// original DSR channel fan-out, now one kind of Replica beside the TCP
// connection. R local replicas of a partition are R independent Shard
// instances over the same subgraph, so failing over between them is
// exercised with real buffer ownership. The fast path allocates
// nothing: a Submit is one channel send, and every buffer involved is
// owned by the Shard and reused.
type localReplica struct {
	sh     *Shard
	reqs   chan localReq
	exited chan struct{} // closed when the worker has returned

	mu     sync.Mutex // orders Submit's send against Close's close(reqs)
	closed bool
}

type localReq struct {
	hdr   wire.BatchHeader
	tasks []wire.Task
	done  func(Reply)
}

// NewLocalReplica wraps sh as a Replica and starts its worker; Close
// stops and joins it. The Replica takes ownership of sh's scratch:
// callers must not Run the shard themselves, and replicas of the same
// partition need distinct Shard instances (they may execute
// concurrently during failover).
func NewLocalReplica(sh *Shard) Replica {
	// Capacity 1: a replica is handed one batch at a time, so Submit's
	// send never waits for a busy worker.
	lr := &localReplica{sh: sh, reqs: make(chan localReq, 1), exited: make(chan struct{})}
	go func() {
		defer close(lr.exited)
		for req := range lr.reqs {
			req.done(serveLocal(sh, req.hdr, req.tasks))
		}
	}()
	return lr
}

// serveLocal runs one batch on sh and builds its Reply, synthesizing
// the server-timing breakdown (search time only — there is no decode,
// queue, or encode in process) when the header asks for tracing, so
// in-process replicas feed the engine's net-vs-server split too. The
// timing branch is allocation-free: the Reply is built by value.
func serveLocal(sh *Shard, hdr wire.BatchHeader, tasks []wire.Task) Reply {
	rep := Reply{Shard: sh.ID(), Batch: hdr.Batch}
	if hdr.Trace {
		start := time.Now()
		rep.Results = sh.Run(tasks)
		rep.Timing.Search = uint64(time.Since(start))
		rep.HasTiming = true
		return rep
	}
	rep.Results = sh.Run(tasks)
	return rep
}

func (lr *localReplica) Submit(h wire.BatchHeader, tasks []wire.Task, done func(Reply)) {
	lr.mu.Lock()
	if lr.closed {
		lr.mu.Unlock()
		done(Reply{Shard: lr.sh.ID(), Err: ErrClosed})
		return
	}
	lr.reqs <- localReq{hdr: h, tasks: tasks, done: done}
	lr.mu.Unlock()
}

// Summary needs no hop through the worker: the Shard built its summary
// in New and concurrent reads are safe.
func (lr *localReplica) Summary(ctx context.Context) (wire.Summary, error) {
	lr.mu.Lock()
	closed := lr.closed
	lr.mu.Unlock()
	if closed {
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

// Close stops the worker — after it has answered a batch still queued —
// and waits for it to exit. Safe to call more than once.
func (lr *localReplica) Close() error {
	lr.mu.Lock()
	if !lr.closed {
		lr.closed = true
		close(lr.reqs)
	}
	lr.mu.Unlock()
	<-lr.exited
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
