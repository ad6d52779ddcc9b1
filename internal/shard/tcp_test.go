package shard

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dsr/internal/wire"
)

// testGraphSum and testPartSum stand in for graph.Fingerprint and
// Partitioning.Digest in transport-level tests, which never load a
// real graph.
const (
	testGraphSum = 0xFEEDC0DE
	testPartSum  = 0xBADC0FFEE
)

// serveShards boots one TCP server per shard on an ephemeral localhost
// port and returns their addresses plus a stop function that shuts
// everything down and waits.
func serveShards(t testing.TB, shards []*Shard, numVertices int) ([]string, func()) {
	t.Helper()
	addrs := make([]string, len(shards))
	servers := make([]*Server, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		srv := NewServer(sh, len(shards), numVertices, testGraphSum, testPartSum)
		servers[i] = srv
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil {
				t.Errorf("shard server: %v", err)
			}
		}()
	}
	return addrs, func() {
		for _, srv := range servers {
			srv.Close()
		}
		wg.Wait()
	}
}

func TestTCPDialRejectsMismatch(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards, 6)
	defer stop()

	// Wrong vertex count: the coordinator's graph differs.
	if _, err := Dial(t.Context(), addrs, 7, testGraphSum, testPartSum); err == nil || !strings.Contains(err.Error(), "vertices") {
		t.Fatalf("vertex mismatch not rejected: %v", err)
	}
	// Shards wired in the wrong order: identity check must catch it.
	swapped := []string{addrs[1], addrs[0], addrs[2]}
	if _, err := Dial(t.Context(), swapped, 6, testGraphSum, testPartSum); err == nil || !strings.Contains(err.Error(), "identifies as") {
		t.Fatalf("shard order mismatch not rejected: %v", err)
	}
	// Wrong shard count: dial only a prefix.
	if _, err := Dial(t.Context(), addrs[:2], 6, testGraphSum, testPartSum); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard count mismatch not rejected: %v", err)
	}
	// Same shape, different edge set: the graph fingerprint catches what
	// the vertex count cannot.
	if _, err := Dial(t.Context(), addrs, 6, testGraphSum+1, testPartSum); err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("graph fingerprint mismatch not rejected: %v", err)
	}
	// Same graph, different partitioning (e.g. hash vs locality, or two
	// locality seeds): the partitioning digest catches what the graph
	// fingerprint cannot.
	if _, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum+1); err == nil || !strings.Contains(err.Error(), "different partitioning") {
		t.Fatalf("partitioning digest mismatch not rejected: %v", err)
	}
	// Either side opting out (fingerprint/digest 0) skips the checks.
	if cl, err := Dial(t.Context(), addrs, 6, 0, 0); err != nil {
		t.Fatalf("fingerprint opt-out rejected: %v", err)
	} else {
		cl.Close()
	}
}

// TestTCPDialRefusesOlderProtocol: the protocol version is settled at
// the handshake, in both directions. A server still speaking DSR3 —
// whose results would carry vertex IDs where this build reads ordinals
// — is refused by Dial with wire.ErrBadMagic before any batch is sent;
// and this build's server leads its hello with DSR5, which is all a
// DSR3 or DSR4 client needs to refuse it the same way.
func TestTCPDialRefusesOlderProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	oldProtocolServer(t, ln)
	if cl, err := Dial(t.Context(), []string{ln.Addr().String()}, 6, 0, 0); !errors.Is(err, wire.ErrBadMagic) {
		if err == nil {
			cl.Close()
		}
		t.Fatalf("dialing a DSR3 server: err = %v, want wire.ErrBadMagic", err)
	}

	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards[:1], 6)
	defer stop()
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hello) < 5 || hello[0] != wire.MsgHello || string(hello[1:5]) != "DSR5" {
		t.Fatalf("server hello leads with % x, want MsgHello and DSR5", hello[:min(len(hello), 5)])
	}
}

func TestTCPServerRejectsGarbage(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards[:1], 6)
	defer stop()

	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(c, nil); err != nil { // hello
		t.Fatal(err)
	}
	// A hello frame where tasks belong: the server must answer MsgError
	// and drop the connection, not crash.
	if err := wire.WriteFrame(c, wire.AppendHello(nil, wire.Hello{})); err != nil {
		t.Fatal(err)
	}
	p, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ty, _ := wire.MsgType(p); ty != wire.MsgError {
		t.Fatalf("got message %#02x, want MsgError", ty)
	}
	if _, err := wire.ReadFrame(c, nil); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestTCPServerSkipsUnownedSeeds pins the broadcast contract over TCP:
// a batch whose seeds all live elsewhere is answered (not rejected)
// with Owned 0 and an empty search, and the connection stays usable.
func TestTCPServerSkipsUnownedSeeds(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards, 6)
	defer stop()

	cl, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	replyc := make(chan Reply, 1)
	cl.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{5, 999}}}, replyc)
	rep := <-replyc
	if rep.Err != nil {
		t.Fatalf("unowned seeds rejected: %v", rep.Err)
	}
	if r := rep.Results[0]; r.Owned != 0 || r.Hit || len(r.Boundary) != 0 {
		t.Fatalf("unowned batch produced %+v", r)
	}
	// The same connection still answers an owned batch afterward.
	cl.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}, replyc)
	rep = <-replyc
	if rep.Err != nil || rep.Results[0].Owned != 1 {
		t.Fatalf("owned batch after unowned one: %+v / %v", rep.Results, rep.Err)
	}
}

// TestTCPSummaryFetch: the client fetches each shard's boundary summary
// over the wire, the SummaryInfo carries the dial-time hello, and the
// connection keeps serving task batches interleaved with summaries.
func TestTCPSummaryFetch(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards, 6)
	defer stop()

	cl, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for p := 0; p < 3; p++ {
		info, err := cl.Summary(t.Context(), p)
		if err != nil {
			t.Fatalf("shard %d: %v", p, err)
		}
		if info.Hello.ShardID != uint32(p) || info.Hello.NumShards != 3 ||
			info.Hello.NumVertices != 6 || info.Hello.Graph != testGraphSum ||
			info.Hello.Partitioning != testPartSum {
			t.Fatalf("shard %d: hello %+v", p, info.Hello)
		}
		want := shards[p].Summary()
		if !slices.Equal(info.Summary.Boundary, want.Boundary) ||
			!slices.Equal(info.Summary.Edges, want.Edges) ||
			!slices.Equal(info.Summary.Cross, want.Cross) {
			t.Fatalf("shard %d: summary %+v, want %+v", p, info.Summary, want)
		}
	}

	// Interleave: batch, summary, batch on the same connection.
	replyc := make(chan Reply, 1)
	cl.Submit(1, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{2}}}, replyc)
	if rep := <-replyc; rep.Err != nil || !slices.Equal(chainReached(1, rep.Results[0].Boundary), []uint32{2}) {
		t.Fatalf("batch before summary: %+v / %v", rep.Results, rep.Err)
	}
	if _, err := cl.Summary(t.Context(), 1); err != nil {
		t.Fatal(err)
	}
	cl.Submit(1, wire.BatchHeader{}, []wire.Task{{Kind: wire.Backward, Query: 1, Seeds: []int32{3}}}, replyc)
	if rep := <-replyc; rep.Err != nil || !slices.Equal(chainReached(1, rep.Results[0].Boundary), []uint32{3}) {
		t.Fatalf("batch after summary: %+v / %v", rep.Results, rep.Err)
	}
}

func TestTCPClientSubmitAfterServerGone(t *testing.T) {
	shards, _ := chainFixture(t)
	addrs, stop := serveShards(t, shards, 6)

	cl, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer cl.Close()
	stop() // all servers down

	replyc := make(chan Reply, 1)
	deadline := time.After(10 * time.Second)
	// The write may succeed into the OS buffer before the reset is
	// observed, but the reply must eventually carry an error, and once
	// broken every further Submit fails fast.
	for {
		cl.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}, replyc)
		select {
		case rep := <-replyc:
			if rep.Err != nil {
				return // broken connection surfaced as an error reply
			}
		case <-deadline:
			t.Fatal("no error reply after server shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPClientUnsolicitedFrame: a frame that does not answer the call
// in flight — a stray results frame ahead of the answer, a second answer
// to an earlier request, a frame of another type — fails the connection
// and is never delivered as an answer, neither to that call nor to a
// later one: the connection stays failed with the same error.
func TestTCPClientUnsolicitedFrame(t *testing.T) {
	results := func(batch uint64, boundary ...uint32) []byte {
		return wire.AppendResults(nil, batch, false, []wire.Result{{Kind: wire.Forward, Boundary: boundary}})
	}
	cases := []struct {
		name  string
		serve func(c net.Conn) // the server's side after its hello
		ok    int              // calls answered before the connection fails
		want  string
	}{
		{"stray frame before the answer", func(c net.Conn) {
			wire.WriteFrame(c, results(3, 7, 7, 7))
			wire.ReadFrame(c, nil)
			wire.WriteFrame(c, results(1, 1, 2))
		}, 0, "response for batch 3 does not answer batch 1"},
		{"second answer to one request", func(c net.Conn) {
			wire.ReadFrame(c, nil)
			wire.WriteFrame(c, results(1, 1, 2))
			wire.WriteFrame(c, results(1, 7, 7, 7))
			wire.ReadFrame(c, nil)
			wire.WriteFrame(c, results(2, 1, 2))
		}, 1, "response for batch 1 does not answer batch 2"},
		{"summary where results belong", func(c net.Conn) {
			wire.ReadFrame(c, nil)
			wire.WriteFrame(c, wire.AppendSummary(nil, wire.Summary{}))
		}, 0, "message type 0x06, want 0x03"},
	}
	task := []wire.Task{{Kind: wire.Forward, Seeds: []int32{0}}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				wire.WriteFrame(c, wire.AppendHello(nil, wire.Hello{ShardID: 0, NumShards: 1, NumVertices: 6}))
				tc.serve(c)
				io.Copy(io.Discard, c) // until the client hangs up
			}()
			rep, err := TCPReplicaDialer(0, ln.Addr().String(), 1, 6, 0, 0)(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			for batch := uint64(1); batch <= uint64(tc.ok)+2; batch++ {
				r := rep.Run(wire.BatchHeader{Batch: batch}, task)
				if batch <= uint64(tc.ok) {
					if r.Err != nil || !slices.Equal(r.Results[0].Boundary, []uint32{1, 2}) {
						t.Fatalf("batch %d: %+v, want its answer", batch, r)
					}
					continue
				}
				if r.Err == nil || !strings.Contains(r.Err.Error(), tc.want) || r.Results != nil {
					t.Fatalf("batch %d: %+v, want no results and an error naming %q", batch, r, tc.want)
				}
			}
			rep.Close()
			<-served
		})
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(t.Context(), []string{addr}, -1, 0, 0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPClientCloseFailsPending(t *testing.T) {
	// A server that handshakes but never answers: Close must deliver
	// error replies to pending submits rather than leaking them.
	addr, stop := silentServer(t)
	defer stop()
	cl, err := Dial(t.Context(), []string{addr}, 6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replyc := make(chan Reply, 1)
	cl.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}, replyc)
	done := make(chan struct{})
	go func() {
		cl.Close()
		close(done)
	}()
	select {
	case rep := <-replyc:
		if rep.Err == nil {
			t.Fatal("pending submit resolved without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending submit never resolved")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestTCPSummaryCancelTearsDown: a summary fetch the server never
// answers ends with its context and takes the connection with it — the
// protocol cannot abandon one request and keep the connection in step.
func TestTCPSummaryCancelTearsDown(t *testing.T) {
	addr, stop := silentServer(t)
	defer stop()
	rep, err := TCPReplicaDialer(0, addr, 1, 6, 0, 0)(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(t.Context(), 20*time.Millisecond)
	defer cancel()
	if _, err := rep.Summary(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("summary past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if r := rep.Run(wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Seeds: []int32{0}}}); !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("batch after the cancelled fetch: %v, want the connection failed by the deadline", r.Err)
	}
}
