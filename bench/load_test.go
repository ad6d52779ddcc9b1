package main

import (
	"bufio"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/bench/workload"
)

// fakeServer speaks the response half of the serving protocol: one
// "true" per request line, after whatever delay stall() asks for.
type fakeServer struct {
	ln          net.Listener
	stall       func(n int) time.Duration // delay before answering a connection's n-th line
	outstanding atomic.Int64
	maxOut      atomic.Int64
	wg          sync.WaitGroup
}

func newFakeServer(t *testing.T, stall func(n int) time.Duration) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, stall: stall}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go fs.handle(c)
		}
	}()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return fs
}

func (fs *fakeServer) handle(c net.Conn) {
	defer fs.wg.Done()
	defer c.Close()
	// Lines are read eagerly and answered by a second goroutine, so a
	// stall delays answers without stopping the server from reading —
	// like a server whose engine hangs, not one whose socket does.
	lines := make(chan struct{}, 1<<16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(c)
		for sc.Scan() {
			if out := fs.outstanding.Add(1); out > fs.maxOut.Load() {
				fs.maxOut.Store(out)
			}
			lines <- struct{}{}
		}
	}()
	n := 0
	for range lines {
		if fs.stall != nil {
			time.Sleep(fs.stall(n))
		}
		n++
		fs.outstanding.Add(-1)
		if _, err := c.Write([]byte("true\n")); err != nil {
			return
		}
	}
}

func testSources(n int) []workload.Source {
	src := make([]workload.Source, n)
	for i := range src {
		src[i] = workload.NewSampler(1, i, 1000)
	}
	return src
}

func TestClosedLoopKeepsTheWindowFull(t *testing.T) {
	fs := newFakeServer(t, func(int) time.Duration { return 50 * time.Microsecond })
	tl := newTimeline([]phase{{Name: "warm", Len: 50 * time.Millisecond, Segs: 1}, {Name: "run", Len: 300 * time.Millisecond, Segs: 3}})
	res, err := runLoad(loadSpec{addr: fs.ln.Addr().String(), seed: 1, tl: tl, sources: testSources(1), stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if got := fs.maxOut.Load(); got != window {
		t.Errorf("server saw at most %d outstanding, want the window of %d", got, window)
	}
	if r.failed != 0 || r.attempted < 10*window {
		t.Errorf("attempted %d failed %d", r.attempted, r.failed)
	}
	st := summarize(tl, []*recorder{r.rec})[1]
	// Little's law: with the window always full, latency is window/throughput.
	if want := 1000 * window / st.QPS; st.P50 < want/2 || st.P50 > 2*want {
		t.Errorf("p50 %v ms at %v q/s, want about %v ms", st.P50, st.QPS, want)
	}
	if len(r.samples) == 0 || len(r.samples) > r.attempted/2 {
		t.Errorf("kept %d samples of %d at stride 4", len(r.samples), r.attempted)
	}
}

// A server that stalls must inflate the latency of every query that was
// due while it stalled: the schedule does not wait for answers, and
// latency runs from the due time, so the stall cannot hide.
func TestOpenLoopChargesAStallToEveryQueryItHeldUp(t *testing.T) {
	const stallAt, stall = 100, 200 * time.Millisecond
	fs := newFakeServer(t, func(n int) time.Duration {
		if n == stallAt {
			return stall
		}
		return 0
	})
	steps := []workload.Step{{Rate: 1000, Len: 600 * time.Millisecond}}
	due, _ := workload.Arrivals(1, 0, 1, steps)
	tl := newTimeline([]phase{{Name: "run", Len: 2 * time.Second, Segs: 1}})
	tr := newTracer(1) // keeps a span per query, which is what is inspected
	res, err := runLoad(loadSpec{addr: fs.ln.Addr().String(), seed: 1, tl: tl, sources: testSources(1),
		arrivals: [][]time.Duration{due}, stride: 1 << 30, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.attempted != len(due) || r.failed != 0 {
		t.Fatalf("attempted %d of %d scheduled, %d failed", r.attempted, len(due), r.failed)
	}
	stallStart := due[stallAt]
	held := 0
	for i, sp := range r.spans {
		if sp.Start != due[i] {
			t.Fatalf("query %d timed from %v, not its due time %v", i, sp.Start, due[i])
		}
		lat := sp.End - sp.Start
		switch {
		case i < stallAt:
			if lat > 50*time.Millisecond {
				t.Errorf("query %d before the stall took %v", i, lat)
			}
		case due[i] < stallStart+stall-20*time.Millisecond:
			// Due while the server was stalled: answered only once it
			// came back, however promptly the generator sent it.
			held++
			if want := stallStart + stall - due[i]; lat < want-10*time.Millisecond {
				t.Errorf("query %d due %v into the stall shows %v, want at least %v", i, due[i]-stallStart, lat, want)
			}
		}
	}
	if held < 100 {
		t.Errorf("only %d queries were due during the stall", held)
	}
	// The generator itself kept to the schedule throughout.
	if late := percentile(sorted(r.late), 0.99); late > 20 {
		t.Errorf("generator ran %v ms late at p99", late)
	}
}

func sorted(vs []float64) []float64 { slices.Sort(vs); return vs }

func TestErrorResponsesCountAsFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		sc := bufio.NewScanner(c)
		for n := 0; sc.Scan(); n++ {
			reply := "false\n"
			switch n % 3 {
			case 1:
				reply = "error overload: server\n"
			case 2:
				reply = "error unavailable\n"
			}
			c.Write([]byte(reply))
		}
	}()
	tl := newTimeline([]phase{{Name: "run", Len: 50 * time.Millisecond, Segs: 1}})
	res, err := runLoad(loadSpec{addr: ln.Addr().String(), seed: 1, tl: tl, sources: testSources(1), stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.failed == 0 || r.failed < r.attempted*6/10 || r.failed > r.attempted*7/10 {
		t.Errorf("failed %d of %d, want two thirds", r.failed, r.attempted)
	}
}
