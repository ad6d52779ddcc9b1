package shard

import (
	"context"
	"errors"

	"dsr/internal/wire"
)

// SummaryInfo pairs one partition's boundary summary with the hello
// identity of the endpoint that served it, so a graph-free coordinator
// can read the vertex count off it. In-process replicas present the
// zero Hello.
type SummaryInfo struct {
	Hello   wire.Hello
	Summary wire.Summary
}

// EndpointInfo describes one endpoint a transport talks to: which
// partition and replica slot it serves, its dialed address, the metrics
// (ops-endpoint) address it announced in its hello — empty when the
// server runs without -metrics-addr — and whether it is currently live.
// Replicated.Endpoints returns one entry per (partition, replica) that
// was dialed at an address; the fleet aggregator uses it to find every
// shard registry worth scraping.
type EndpointInfo struct {
	Partition   int
	Replica     int
	Addr        string
	MetricsAddr string
	Live        bool
}

// Reply delivers one shard's results for a submitted batch. On a
// transport failure Err is set and Results is nil. Batch echoes the
// submitted header's batch ID, and when the header requested tracing,
// Timing carries the server's self-measured breakdown with HasTiming
// set — in-process replicas synthesize it (search time only), TCP
// servers measure all four phases.
type Reply struct {
	Shard     int
	Results   []wire.Result
	Err       error
	Batch     uint64
	HasTiming bool
	Timing    wire.ServerTiming
}

// Transport carries task batches from a coordinator to shards. Submit
// is asynchronous: exactly one Reply per call is delivered on replyc,
// with Results in task order, however many replicas the transport
// tried to get it — there is no second submit API, and once the Reply
// is in, nothing of the caller's is read again. The Results (and their
// Boundary slices) alias transport-owned buffers and are valid only
// until the next Submit to the same shard — the coordinator must fully
// consume a round's replies before starting the next round, which the
// DSR engine guarantees by serializing rounds under its query lock.
//
// Close shuts the transport down deterministically: when it returns, no
// transport-owned goroutine is still running. A Submit after Close is
// answered with an ErrClosed Reply.
//
// Replicated is the one production implementation: one goroutine per
// partition, which serves that partition's calls one at a time. The
// interface stays so tests and the benchmark harness can substitute or
// wrap it. Nothing on the query path looks behind the interface, so a
// wrapper loses no behaviour; one that should also keep Replicated's
// books for the engine (Health, Endpoints) embeds the *Replicated
// rather than forwarding the three methods below.
type Transport interface {
	// Submit ships the batch to shard p under the given batch header.
	// tasks must be non-empty and remain untouched until the Reply
	// arrives.
	Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply)
	// Summary fetches shard p's boundary summary plus the identity of
	// the endpoint serving it. The returned slices follow the same arena
	// contract as Results: they alias transport-owned buffers valid
	// until the next Summary or Submit to the same shard, so the
	// coordinator copies what it keeps. ctx bounds the fetch.
	Summary(ctx context.Context, p int) (SummaryInfo, error)
	// Close releases connections and stops goroutines, waiting for them.
	Close() error
}

// ErrClosed is reported by transports used after Close.
var ErrClosed = errors.New("shard: transport closed")

// NewLoopback returns the in-process transport over shards: partition
// p is a replica set of one local replica of shards[p], run on the
// partition's goroutine, with no background redial — an in-process
// replica only ever dies by being closed. Close stops and joins the
// partition goroutines.
func NewLoopback(shards []*Shard) *Replicated {
	groups := make([][]ReplicaDialer, len(shards))
	for p, sh := range shards {
		groups[p] = []ReplicaDialer{func(context.Context) (Replica, error) { return NewLocalReplica(sh), nil }}
	}
	r, err := NewReplicated(context.Background(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		panic(err) // no shards: local dialers themselves cannot fail
	}
	return r
}
