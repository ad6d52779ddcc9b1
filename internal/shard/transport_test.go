package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/wire"
)

// fleetShape is one way of standing the chain fixture's three
// partitions up behind the transport. open returns the transport plus a
// stop function for whatever serves it.
type fleetShape struct {
	name     string
	replicas int
	tcp      bool
	open     func(t *testing.T) (*Replicated, func())
}

func localDialer(sh *Shard) ReplicaDialer {
	return func(context.Context) (Replica, error) { return NewLocalReplica(sh), nil }
}

var fleetShapes = []fleetShape{
	{name: "in-process R=1", replicas: 1, open: func(t *testing.T) (*Replicated, func()) {
		shards, _ := chainFixture(t)
		return NewLoopback(shards), func() {}
	}},
	{name: "in-process R=3", replicas: 3, open: func(t *testing.T) (*Replicated, func()) {
		groups := make([][]ReplicaDialer, 3)
		for r := 0; r < 3; r++ {
			shards, _ := chainFixture(t) // replicas need Shard instances of their own
			for p, sh := range shards {
				groups[p] = append(groups[p], localDialer(sh))
			}
		}
		tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return tr, func() {}
	}},
	{name: "TCP R=1", replicas: 1, tcp: true, open: func(t *testing.T) (*Replicated, func()) {
		shards, _ := chainFixture(t)
		addrs, stop := serveShards(t, shards, 6)
		tr, err := Dial(t.Context(), addrs, 6, testGraphSum, testPartSum)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		return tr, stop
	}},
	{name: "TCP R=2", replicas: 2, tcp: true, open: func(t *testing.T) (*Replicated, func()) {
		shardsA, _ := chainFixture(t)
		shardsB, _ := chainFixture(t)
		addrsA, stopA := serveShards(t, shardsA, 6)
		addrsB, stopB := serveShards(t, shardsB, 6)
		stop := func() { stopA(); stopB() }
		groups := make([][]string, 3)
		for p := range groups {
			groups[p] = []string{addrsA[p], addrsB[p]}
		}
		tr, err := DialReplicated(t.Context(), groups, 6, testGraphSum, testPartSum, ReplicatedOptions{})
		if err != nil {
			stop()
			t.Fatal(err)
		}
		return tr, stop
	}},
}

// TestTransportConformance drives the same task batches through every
// shape of fleet the one transport serves — in-process and TCP, single
// replica and several — and holds each to the same answers: Results
// byte-identical to a bare Shard.Run, the shard's own Summary, the
// batch ID echoed, a timing footer exactly when asked for, and no
// goroutine left behind by Close.
func TestTransportConformance(t *testing.T) {
	batches := []struct {
		name  string
		hdr   wire.BatchHeader
		tasks []wire.Task
	}{
		{"owned seeds", wire.BatchHeader{Batch: 7}, []wire.Task{
			{Kind: wire.Forward, Query: 4, Seeds: []int32{0, 2, 4}},
			{Kind: wire.Backward, Query: 4, Seeds: []int32{1, 3, 5}},
		}},
		{"unowned seeds", wire.BatchHeader{Batch: 8}, []wire.Task{
			{Kind: wire.Forward, Query: 0, Seeds: []int32{999}},
		}},
		{"empty boundary", wire.BatchHeader{Batch: 9}, []wire.Task{
			{Kind: wire.Backward, Query: 2, Seeds: []int32{0}},
			{Kind: wire.Forward, Query: 2, Seeds: []int32{5}},
		}},
		{"local hit, traced", wire.BatchHeader{Batch: 10, Trace: true}, []wire.Task{
			{Kind: wire.Forward, Query: 1, Seeds: []int32{0, 2, 4}, Targets: []int32{1, 3, 5}},
		}},
		{"untraced, no batch ID", wire.BatchHeader{}, []wire.Task{
			{Kind: wire.Forward, Query: 3, Seeds: []int32{1}},
		}},
	}
	ref, _ := chainFixture(t)
	encode := func(res []wire.Result) []byte { return wire.AppendResults(nil, 0, false, res) }

	for _, shape := range fleetShapes {
		t.Run(shape.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tr, stop := shape.open(t)

			for p := 0; p < 3; p++ {
				info, err := tr.Summary(t.Context(), p)
				if err != nil {
					t.Fatalf("summary %d: %v", p, err)
				}
				want := ref[p].Summary()
				if !slices.Equal(info.Summary.Boundary, want.Boundary) ||
					!slices.Equal(info.Summary.Edges, want.Edges) ||
					!slices.Equal(info.Summary.Cross, want.Cross) {
					t.Errorf("summary %d = %+v, want %+v", p, info.Summary, want)
				}
				wantHello := wire.Hello{} // in-process replicas have no handshake identity
				if shape.tcp {
					wantHello = wire.Hello{ShardID: uint32(p), NumShards: 3, NumVertices: 6, Graph: testGraphSum, Partitioning: testPartSum, SummaryDigest: want.Digest()}
				}
				if info.Hello != wantHello {
					t.Errorf("summary %d: hello %+v, want %+v", p, info.Hello, wantHello)
				}
			}
			cancelled, cancel := context.WithCancel(t.Context())
			cancel()
			if _, err := tr.Summary(cancelled, 0); !errors.Is(err, context.Canceled) {
				t.Errorf("summary under a cancelled context: %v", err)
			}

			// Twice per replica, so the replica serving each batch has
			// buffers from the batch before to reuse.
			replyc := make(chan Reply, 1)
			for round := 0; round < 2*shape.replicas; round++ {
				for _, b := range batches {
					for p := 0; p < 3; p++ {
						tr.Submit(p, b.hdr, b.tasks, replyc)
						rep := <-replyc
						if rep.Err != nil {
							t.Fatalf("%s on partition %d: %v", b.name, p, rep.Err)
						}
						if rep.Shard != p || rep.Batch != b.hdr.Batch || rep.HasTiming != b.hdr.Trace {
							t.Errorf("%s on partition %d: reply from shard %d, batch %d, timing %v", b.name, p, rep.Shard, rep.Batch, rep.HasTiming)
						}
						if got, want := encode(rep.Results), encode(ref[p].Run(b.tasks)); !bytes.Equal(got, want) {
							t.Errorf("%s on partition %d: results %+v differ from Shard.Run's", b.name, p, rep.Results)
						}
					}
				}
			}

			wantEndpoints := 0
			if shape.tcp {
				wantEndpoints = 3 * shape.replicas
			}
			eps := tr.Endpoints()
			if len(eps) != wantEndpoints {
				t.Fatalf("Endpoints() has %d entries, want %d", len(eps), wantEndpoints)
			}
			for i, ep := range eps {
				if ep.Partition != i/shape.replicas || ep.Replica != i%shape.replicas || !ep.Live || ep.Addr == "" {
					t.Errorf("endpoint %d = %+v, want live p%d/r%d with its address", i, ep, i/shape.replicas, i%shape.replicas)
				}
			}
			for p, ph := range tr.Health() {
				if ph != (PartitionHealth{Partition: p, Replicas: shape.replicas, Live: shape.replicas}) {
					t.Errorf("Health()[%d] = %+v after a clean run", p, ph)
				}
			}

			tr.Close()
			tr.Close()
			tr.Submit(0, wire.BatchHeader{}, batches[0].tasks, replyc)
			if rep := <-replyc; !errors.Is(rep.Err, ErrClosed) {
				t.Errorf("submit after Close: %v, want ErrClosed", rep.Err)
			}
			stop()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// oldProtocolServer answers every connection with a DSR3 hello, which
// this build's dial refuses with wire.ErrBadMagic.
func oldProtocolServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			old := wire.AppendHello(nil, wire.Hello{ShardID: 0, NumShards: 1, NumVertices: 6})
			copy(old[1:5], "DSR3")
			wire.WriteFrame(c, old)
			c.Close()
		}
	}()
}

// silentServer handshakes as shard 0 of 1 and then never answers.
func silentServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	quit := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wire.WriteFrame(c, wire.AppendHello(nil, wire.Hello{ShardID: 0, NumShards: 1, NumVertices: 6}))
			go func() {
				<-quit
				c.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() { close(quit); ln.Close() }
}

// TestReplicaSetErrorUnwraps: the transport's all-replicas-failed error
// keeps its causes matchable — a protocol refusal by errors.Is, a
// network failure by errors.As, a closed transport by errors.Is —
// whether it comes out of construction, out of a batch, or after
// Close, for a set of one and a set of two.
func TestReplicaSetErrorUnwraps(t *testing.T) {
	isBadMagic := func(err error) bool { return errors.Is(err, wire.ErrBadMagic) }
	isClosed := func(err error) bool { return errors.Is(err, ErrClosed) }
	isOpError := func(err error) bool {
		var op *net.OpError
		return errors.As(err, &op)
	}
	tasks := []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}
	// submitUntil keeps submitting until the reply's error matches: the
	// first batch after a server dies reports the broken connection,
	// later ones the refused redial.
	submitUntil := func(t *testing.T, tr *Replicated, match func(error) bool) {
		t.Helper()
		replyc := make(chan Reply, 1)
		var last error
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
			if last = (<-replyc).Err; last != nil && match(last) {
				var rse *ReplicaSetError
				if !errors.As(last, &rse) {
					t.Fatalf("batch error %v is not a *ReplicaSetError", last)
				}
				return
			}
		}
		t.Fatalf("batch error never matched; last: %v", last)
	}
	// listeners returns R bound listeners and their addresses as one group.
	listeners := func(t *testing.T, R int) ([]net.Listener, [][]string) {
		t.Helper()
		lns := make([]net.Listener, R)
		group := make([]string, R)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			lns[i], group[i] = ln, ln.Addr().String()
		}
		return lns, [][]string{group}
	}
	// serving boots R real one-partition servers and dials them with no
	// background redial, so every redial is the batch's own.
	serving := func(t *testing.T, R int) (*Replicated, [][]string, func()) {
		t.Helper()
		group := make([]string, R)
		stops := make([]func(), R)
		for i := range group {
			shards, _ := buildShards(t, 6, [][2]graph.VertexID{{0, 1}, {1, 2}}, 1)
			group[i], _, stops[i] = serveOne(t, shards[0], 1, 6)
		}
		groups := [][]string{group}
		tr, err := DialReplicated(t.Context(), groups, 6, testGraphSum, testPartSum, ReplicatedOptions{ReconnectEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return tr, groups, func() {
			for _, stop := range stops {
				stop()
			}
		}
	}

	for _, R := range []int{1, 2} {
		t.Run(fmt.Sprintf("dial refused by protocol/R=%d", R), func(t *testing.T) {
			lns, groups := listeners(t, R)
			for _, ln := range lns {
				oldProtocolServer(t, ln)
			}
			if _, err := DialReplicated(t.Context(), groups, 6, 0, 0, ReplicatedOptions{}); !isBadMagic(err) {
				t.Fatalf("err = %v, want wire.ErrBadMagic in its chain", err)
			}
		})
		t.Run(fmt.Sprintf("dial refused by network/R=%d", R), func(t *testing.T) {
			lns, groups := listeners(t, R)
			for _, ln := range lns {
				ln.Close()
			}
			if _, err := DialReplicated(t.Context(), groups, 6, 0, 0, ReplicatedOptions{}); !isOpError(err) {
				t.Fatalf("err = %v, want a *net.OpError in its chain", err)
			}
		})
		t.Run(fmt.Sprintf("batch after servers gone/R=%d", R), func(t *testing.T) {
			tr, _, stop := serving(t, R)
			defer tr.Close()
			stop()
			submitUntil(t, tr, isOpError)
		})
		t.Run(fmt.Sprintf("batch after servers replaced by an old build/R=%d", R), func(t *testing.T) {
			tr, groups, stop := serving(t, R)
			defer tr.Close()
			stop()
			for _, addr := range groups[0] {
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Skipf("cannot rebind %s: %v", addr, err)
				}
				defer ln.Close()
				oldProtocolServer(t, ln)
			}
			submitUntil(t, tr, isBadMagic)
		})
		t.Run(fmt.Sprintf("batch in flight at Close/R=%d", R), func(t *testing.T) {
			group := make([]string, R)
			for i := range group {
				addr, stop := silentServer(t)
				defer stop()
				group[i] = addr
			}
			tr, err := DialReplicated(t.Context(), [][]string{group}, 6, 0, 0, ReplicatedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			replyc := make(chan Reply, 1)
			tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
			tr.Close()
			if rep := <-replyc; !isClosed(rep.Err) {
				t.Fatalf("in-flight batch failed with %v, want ErrClosed in its chain", rep.Err)
			}
			tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
			if rep := <-replyc; !isClosed(rep.Err) {
				t.Fatalf("submit after Close: %v, want ErrClosed", rep.Err)
			}
			if _, err := tr.Summary(t.Context(), 0); !isClosed(err) {
				t.Fatalf("summary after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestReplicatedGoroutineCensus: a Replicated serving k partitions runs k
// goroutines, one per partition however many replicas stand behind it,
// plus its reconnect loop when it has one — and none once closed.
func TestReplicatedGoroutineCensus(t *testing.T) {
	const k, R = 3, 2
	// census counts the goroutines the calling goroutine started in
	// this package, the TCP servers it boots aside.
	created := regexp.MustCompile(`created by dsr/internal/shard\.(\S+) in goroutine (\d+)`)
	census := func() int {
		buf := make([]byte, 1<<20)
		me := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
		n := 0
		for _, m := range created.FindAllStringSubmatch(string(buf[:runtime.Stack(buf, true)]), -1) {
			if m[2] == me && !strings.HasPrefix(m[1], "serveShards") {
				n++
			}
		}
		return n
	}
	shapes := []struct {
		name string
		want int
		open func(t *testing.T) *Replicated
	}{
		{"in-process", k, func(t *testing.T) *Replicated {
			groups := make([][]ReplicaDialer, k)
			for r := 0; r < R; r++ {
				shards, _ := chainFixture(t)
				for p, sh := range shards {
					groups[p] = append(groups[p], localDialer(sh))
				}
			}
			tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"TCP", k + 1, func(t *testing.T) *Replicated {
			groups := make([][]string, k)
			for r := 0; r < R; r++ {
				shards, _ := chainFixture(t)
				addrs, stop := serveShards(t, shards, 6)
				t.Cleanup(stop)
				for p, addr := range addrs {
					groups[p] = append(groups[p], addr)
				}
			}
			tr, err := DialReplicated(t.Context(), groups, 6, testGraphSum, testPartSum, ReplicatedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			tr := shape.open(t)
			for p := 0; p < k; p++ {
				if rep := submitOne(t, tr, p, int32(2*p)); rep.Err != nil {
					t.Fatal(rep.Err)
				}
			}
			if got := census(); got != shape.want {
				t.Errorf("%d transport goroutines while serving %d partitions × %d replicas, want %d", got, k, R, shape.want)
			}
			tr.Close()
			deadline := time.Now().Add(5 * time.Second)
			for census() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d transport goroutines left after Close", census())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
