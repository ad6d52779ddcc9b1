package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{0x01},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestWriteFrameRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("empty payload: err = %v, want ErrEmptyFrame", err)
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized payload: err = %v, want ErrFrameTooBig", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{},
		{ShardID: 2, NumShards: 5, NumVertices: 1_000_000, Graph: 0xDEADBEEFCAFE},
		{ShardID: math.MaxUint32, NumShards: math.MaxUint32, NumVertices: math.MaxUint32, Graph: math.MaxUint64},
		{ShardID: 1, NumShards: 3, MetricsAddr: "127.0.0.1:9090"},
		{MetricsAddr: strings.Repeat("a", maxMetricsAddr)},
	} {
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestDecodeHelloRejectsOversizedMetricsAddr(t *testing.T) {
	p := AppendHello(nil, Hello{MetricsAddr: strings.Repeat("a", maxMetricsAddr+1)})
	if _, err := DecodeHello(p); err == nil {
		t.Fatal("hello with oversized metrics address accepted")
	}
}

// TestDecodeHelloRejectsOlderMagic: the previous protocol version's
// hello — identical but for the magic, whose results carry vertex IDs
// where this build reads ordinals — is refused with ErrBadMagic, as is
// the one before it.
func TestDecodeHelloRejectsOlderMagic(t *testing.T) {
	h := Hello{ShardID: 1, NumShards: 3, NumVertices: 100, Graph: 7, Partitioning: 9}
	for _, magic := range []string{"DSR3", "DSR2"} {
		p := AppendHello(nil, h)
		copy(p[1:5], magic)
		if _, err := DecodeHello(p); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s hello: err = %v, want ErrBadMagic", magic, err)
		}
	}
	if p := AppendHello(nil, h); string(p[1:5]) != "DSR4" {
		t.Errorf("hello magic = %q, want DSR4", p[1:5])
	}
}

func taskEqual(a, b Task) bool {
	return a.Kind == b.Kind && a.Query == b.Query &&
		idsEqual(a.Seeds, b.Seeds) && idsEqual(a.Targets, b.Targets)
}

func idsEqual[T int32 | uint32](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTasksRoundTrip(t *testing.T) {
	cases := [][]Task{
		nil,
		{{Kind: Forward, Query: 0, Seeds: []int32{0}}},
		{{Kind: Backward, Query: 7, Seeds: []int32{3, 1, 4, 1, 5}}},
		{
			{Kind: Forward, Query: 1, Seeds: []int32{0, math.MaxInt32}, Targets: []int32{9}},
			{Kind: Backward, Query: 2, Seeds: []int32{128, 16384, 2097152}},
			{Kind: Forward, Query: math.MaxUint32, Seeds: []int32{5}, Targets: nil},
		},
	}
	headers := []BatchHeader{
		{},
		{Trace: true, Batch: 1},
		{Batch: math.MaxUint64},
		{Trace: true, Batch: 1 << 40},
	}
	for ci, tasks := range cases {
		hdr := headers[ci%len(headers)]
		gotHdr, got, _, err := DecodeTasks(AppendTasks(nil, hdr, tasks), nil, nil)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if gotHdr != hdr {
			t.Fatalf("case %d: header round trip: got %+v, want %+v", ci, gotHdr, hdr)
		}
		if len(got) != len(tasks) {
			t.Fatalf("case %d: got %d tasks, want %d", ci, len(got), len(tasks))
		}
		for i := range tasks {
			if !taskEqual(got[i], tasks[i]) {
				t.Fatalf("case %d task %d: got %+v, want %+v", ci, i, got[i], tasks[i])
			}
		}
	}
}

func TestResultsRoundTrip(t *testing.T) {
	cases := [][]Result{
		nil,
		{{Kind: Forward, Query: 3, Hit: true, Owned: 2}},
		{
			{Kind: Forward, Query: 0, Hit: false, Owned: math.MaxUint32, Boundary: []uint32{1, 2, math.MaxUint32}},
			{Kind: Backward, Query: 1, Boundary: []uint32{300, 70000}},
			{Kind: Backward, Query: 2, Owned: 1, Boundary: nil},
		},
	}
	for ci, results := range cases {
		batch := uint64(ci * 17)
		info, got, _, err := DecodeResults(AppendResults(nil, batch, false, results), nil, nil)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if info.Batch != batch || info.HasTiming {
			t.Fatalf("case %d: info = %+v, want batch %d without timing", ci, info, batch)
		}
		if len(got) != len(results) {
			t.Fatalf("case %d: got %d results, want %d", ci, len(got), len(results))
		}
		for i := range results {
			w, g := results[i], got[i]
			if g.Kind != w.Kind || g.Query != w.Query || g.Hit != w.Hit || g.Owned != w.Owned || !idsEqual(g.Boundary, w.Boundary) {
				t.Fatalf("case %d result %d: got %+v, want %+v", ci, i, g, w)
			}
		}
	}
}

// TestResultsTimingFooter round-trips the server-timing footer that a
// traced batch's reply carries after its results.
func TestResultsTimingFooter(t *testing.T) {
	results := []Result{
		{Kind: Forward, Query: 0, Hit: true, Owned: 3, Boundary: []uint32{1, 2}},
		{Kind: Backward, Query: 1, Boundary: []uint32{5}},
	}
	timing := ServerTiming{Decode: 1200, Queue: 35, Search: 9_000_000, Encode: 800}
	p := AppendResults(nil, 42, true, results)
	p = AppendServerTiming(p, timing)
	info, got, _, err := DecodeResults(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Batch != 42 || !info.HasTiming || info.Timing != timing {
		t.Fatalf("info = %+v, want batch 42 with timing %+v", info, timing)
	}
	if len(got) != len(results) {
		t.Fatalf("got %d results, want %d", len(got), len(results))
	}
	if want := timing.Decode + timing.Queue + timing.Search + timing.Encode; timing.Total() != want {
		t.Fatalf("Total() = %d, want %d", timing.Total(), want)
	}
	// A payload that promises a footer but omits it is truncated.
	if _, _, _, err := DecodeResults(AppendResults(nil, 42, true, results), nil, nil); err == nil {
		t.Fatal("missing timing footer accepted")
	}
}

func pairsEqual(a, b [][2]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func summaryEqual(a, b Summary) bool {
	return idsEqual(a.Boundary, b.Boundary) && pairsEqual(a.Edges, b.Edges) && pairsEqual(a.Cross, b.Cross)
}

func TestSummaryRoundTrip(t *testing.T) {
	cases := []Summary{
		{},
		{Boundary: []uint32{7}},
		{
			Boundary: []uint32{1, 4, 9, math.MaxUint32},
			Edges:    [][2]uint32{{1, 4}, {1, 9}, {4, 4}},
			Cross:    [][2]uint32{{9, 1}, {4, math.MaxUint32}},
		},
		{
			Boundary: []uint32{0, 128, 16384, 2097152},
			Cross:    [][2]uint32{{128, 0}},
		},
	}
	for ci, s := range cases {
		got, err := DecodeSummary(AppendSummary(nil, s))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !summaryEqual(got, s) {
			t.Fatalf("case %d: got %+v, want %+v", ci, got, s)
		}
	}
}

func TestDecodeSummaryRejectsUnsortedBoundary(t *testing.T) {
	for _, boundary := range [][]uint32{{3, 1}, {5, 5}, {0, 2, 2}} {
		p := AppendSummary(nil, Summary{Boundary: boundary})
		if _, err := DecodeSummary(p); err == nil {
			t.Errorf("boundary %v accepted, want strict-order error", boundary)
		}
	}
}

// TestDecodeReuse verifies the arena-reuse contract: decoding into
// retained buffers allocates nothing in steady state.
func TestDecodeReuse(t *testing.T) {
	tasks := []Task{
		{Kind: Forward, Query: 1, Seeds: []int32{1, 2, 3}, Targets: []int32{4}},
		{Kind: Backward, Query: 2, Seeds: []int32{5, 6}},
	}
	payload := AppendTasks(nil, BatchHeader{Trace: true, Batch: 7}, tasks)
	var dst []Task
	var arena []int32
	var err error
	// Warm up capacity.
	if _, dst, arena, err = DecodeTasks(payload, dst[:0], arena[:0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, dst, arena, err = DecodeTasks(payload, dst[:0], arena[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeTasks allocates %v/op, want 0", allocs)
	}
	// The results decoder carries the same contract, timing footer
	// included: parsing the footer touches only the ResultsInfo value.
	rp := AppendServerTiming(AppendResults(nil, 7, true, []Result{
		{Kind: Forward, Query: 1, Hit: true, Owned: 2, Boundary: []uint32{3, 9}},
	}), ServerTiming{Decode: 1, Queue: 2, Search: 3, Encode: 4})
	var rdst []Result
	var rarena []uint32
	if _, rdst, rarena, err = DecodeResults(rp, rdst[:0], rarena[:0]); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_, rdst, rarena, err = DecodeResults(rp, rdst[:0], rarena[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeResults allocates %v/op, want 0", allocs)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	msg := "shard 3: partition mismatch"
	got, err := DecodeError(AppendError(nil, msg))
	if err != nil {
		t.Fatal(err)
	}
	if got != msg {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestRandomizedTaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		tasks := make([]Task, rng.Intn(8))
		for i := range tasks {
			tasks[i] = Task{
				Kind:    TaskKind(rng.Intn(2)),
				Query:   rng.Uint32(),
				Seeds:   randIDs(rng),
				Targets: randIDs(rng),
			}
		}
		hdr := BatchHeader{Trace: rng.Intn(2) == 1, Batch: rng.Uint64()}
		gotHdr, got, _, err := DecodeTasks(AppendTasks(nil, hdr, tasks), nil, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if gotHdr != hdr {
			t.Fatalf("iter %d: header mismatch: got %+v, want %+v", iter, gotHdr, hdr)
		}
		for i := range tasks {
			if !taskEqual(got[i], tasks[i]) {
				t.Fatalf("iter %d task %d mismatch", iter, i)
			}
		}
	}
}

func randIDs(rng *rand.Rand) []int32 {
	ids := make([]int32, rng.Intn(10))
	for i := range ids {
		ids[i] = rng.Int31()
	}
	if len(ids) == 0 {
		return nil
	}
	return ids
}

func TestMsgType(t *testing.T) {
	if _, err := MsgType(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("MsgType(nil): err = %v, want ErrTruncated", err)
	}
	ty, err := MsgType(AppendHello(nil, Hello{}))
	if err != nil || ty != MsgHello {
		t.Errorf("MsgType(hello) = %#02x, %v; want MsgHello", ty, err)
	}
}
