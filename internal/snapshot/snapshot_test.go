// Tests live in snapshot_test (not snapshot) because they round-trip
// through internal/shard, which imports this package.
package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/shard"
	"dsr/internal/snapshot"
)

// randomGraph generates a graph with n vertices and ~n*deg random edges.
func randomGraph(rng *rand.Rand, n int, deg float64) *graph.Graph {
	b := graph.NewBuilder(n)
	m := int(float64(n) * deg)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

// fixture builds a k-way partitioned fleet from a seeded random graph
// and takes each shard's snapshot.
func fixture(t testing.TB, seed int64, n, k int) (*graph.Graph, *graph.Partitioning, []*shard.Shard, []*snapshot.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, n, 2)
	pt, err := graph.Hash().Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*shard.Shard, k)
	sns := make([]*snapshot.Snapshot, k)
	for i := 0; i < k; i++ {
		shards[i] = shard.New(i, partition.ExtractOne(g, pt, i))
		sns[i] = shards[i].Snapshot(k, g.NumVertices(), g.Fingerprint(), pt.Digest())
	}
	return g, pt, shards, sns
}

// reChecksum recomputes the whole-file FNV-1a checksum (field at bytes
// 48..56 treated as zero) after a test deliberately edits a snapshot,
// so the edit reaches the structural validators instead of tripping the
// checksum line. Layout constants are part of the documented format.
func reChecksum(data []byte) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i, b := range data {
		if i >= 48 && i < 56 {
			b = 0
		}
		h ^= uint64(b)
		h *= prime64
	}
	binary.LittleEndian.PutUint64(data[48:], h)
}

func TestSnapshotRoundTrip(t *testing.T) {
	_, _, shards, sns := fixture(t, 1, 120, 3)
	for i, sn := range sns {
		buf, err := snapshot.Encode(sn)
		if err != nil {
			t.Fatalf("shard %d: Encode: %v", i, err)
		}
		dec, err := snapshot.Decode(buf)
		if err != nil {
			t.Fatalf("shard %d: Decode: %v", i, err)
		}
		if dec.Header != sn.Header {
			t.Fatalf("shard %d: header changed: %+v -> %+v", i, sn.Header, dec.Header)
		}
		if err := dec.Expect(i, 3); err != nil {
			t.Fatalf("shard %d: Expect on own deployment: %v", i, err)
		}
		// Re-encoding the decoded state must reproduce the bytes exactly:
		// decode loses nothing, and encoding is deterministic.
		buf2, err := snapshot.Encode(dec)
		if err != nil {
			t.Fatalf("shard %d: re-Encode: %v", i, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("shard %d: decode/encode round trip not byte-identical (%d vs %d bytes)", i, len(buf), len(buf2))
		}
		// Version 4's layout: the subgraph's five sections and the
		// condensation's three, nothing a load can derive — no exit
		// list, no reverse DAG.
		if v, secs := binary.LittleEndian.Uint32(buf[8:]), binary.LittleEndian.Uint32(buf[56:]); v != 4 || secs != 8 {
			t.Fatalf("shard %d: version %d with %d sections, want 4 with 8", i, v, secs)
		}
		// The reconstituted shard is indistinguishable from the fresh one.
		restored := shard.FromSnapshot(dec)
		if restored.NumVertices() != shards[i].NumVertices() {
			t.Fatalf("shard %d: NumVertices %d -> %d", i, shards[i].NumVertices(), restored.NumVertices())
		}
		if !reflect.DeepEqual(restored.Summary(), shards[i].Summary()) {
			t.Fatalf("shard %d: summary differs after round trip", i)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	// Two shards built independently from the same seed must snapshot to
	// identical bytes — the property -snapshot-verify's compare rests on.
	_, _, _, a := fixture(t, 7, 80, 2)
	_, _, _, b := fixture(t, 7, 80, 2)
	for i := range a {
		ba, err := snapshot.Encode(a[i])
		if err != nil {
			t.Fatal(err)
		}
		bb, err := snapshot.Encode(b[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("shard %d: two builds of the same state encode differently", i)
		}
	}
}

func TestWriteFileReadFile(t *testing.T) {
	_, _, _, sns := fixture(t, 3, 60, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, snapshot.Filename(0, 2))

	if _, err := snapshot.ReadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}

	size, err := snapshot.WriteFile(path, sns[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != size || got.Header != sns[0].Header {
		t.Fatalf("ReadFile: size %d (want %d), header %+v", got.Size, size, got.Header)
	}
	// The temp-file+rename left nothing behind but the snapshot itself.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != snapshot.Filename(0, 2) {
		t.Fatalf("directory not clean after WriteFile: %v", ents)
	}
	// Overwriting in place (the rolling-restart path) works too.
	if _, err := snapshot.WriteFile(path, sns[0]); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
}

func TestWriteFileErrors(t *testing.T) {
	_, _, _, sns := fixture(t, 22, 30, 2)
	// Unwritable directory: the temp-file creation fails cleanly.
	if _, err := snapshot.WriteFile(filepath.Join(t.TempDir(), "no-such-dir", "x.dsrsnap"), sns[0]); err == nil {
		t.Fatal("WriteFile into a missing directory must error")
	}
	if _, err := snapshot.WriteFile(filepath.Join(t.TempDir(), "x.dsrsnap"), &snapshot.Snapshot{}); err == nil {
		t.Fatal("WriteFile of a nil-subgraph snapshot must error")
	}
	if _, err := snapshot.WriteFile(filepath.Join(t.TempDir(), "x.dsrsnap"), &snapshot.Snapshot{Header: sns[0].Header, Sub: sns[0].Sub}); err == nil {
		t.Fatal("WriteFile of a snapshot without its condensation must error")
	}
	// A bare filename (no directory part) writes into the cwd-relative
	// path; exercise the dir == "" branch from inside a temp dir.
	t.Chdir(t.TempDir())
	if _, err := snapshot.WriteFile("bare.dsrsnap", sns[0]); err != nil {
		t.Fatalf("WriteFile with a bare filename: %v", err)
	}
}

func TestHeaderExpect(t *testing.T) {
	h := snapshot.Header{
		Version: snapshot.FormatVersion, ShardID: 1, ShardCount: 3,
		TotalVertices: 100, GraphFingerprint: 0xabc, PartitioningDigest: 0xdef,
	}
	cases := []struct {
		name      string
		id, count int
		ok        bool
	}{
		{"exact", 1, 3, true},
		{"wrong shard id", 0, 3, false},
		{"wrong shard count", 1, 4, false},
	}
	for _, c := range cases {
		err := h.Expect(c.id, c.count)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, snapshot.ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", c.name, err)
		}
	}
}

// TestSnapshotCorruption: every tampered variant of a valid snapshot
// must fail to decode — truncation, bit flips anywhere in the file,
// version skew, and structurally invalid state behind a fixed-up
// checksum all surface as load errors, never as a decoded snapshot.
func TestSnapshotCorruption(t *testing.T) {
	_, _, _, sns := fixture(t, 5, 100, 2)
	buf, err := snapshot.Encode(sns[0])
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, 8, 63, 64, 100, len(buf) / 2, len(buf) - 1} {
			if _, err := snapshot.Decode(buf[:n]); err == nil {
				t.Errorf("Decode of %d/%d bytes succeeded", n, len(buf))
			}
		}
	})

	t.Run("flipped byte", func(t *testing.T) {
		// Every header/table byte, then a stride through the payloads.
		for off := 0; off < len(buf); off += min(13, len(buf)-off) {
			mut := bytes.Clone(buf)
			mut[off] ^= 0x40
			if _, err := snapshot.Decode(mut); err == nil {
				t.Fatalf("Decode succeeded with byte %d flipped", off)
			}
		}
	})

	t.Run("version skew", func(t *testing.T) {
		// Version 1 carried the reachability index and the summary edges,
		// version 2 the subgraph's reverse CSR and the condensation's
		// member lists, version 3 the exit list and the reverse DAG; a
		// future writer would checksum its own bytes correctly.
		for _, v := range []uint32{1, 2, 3, snapshot.FormatVersion + 1} {
			mut := bytes.Clone(buf)
			binary.LittleEndian.PutUint32(mut[8:], v)
			reChecksum(mut)
			if _, err := snapshot.Decode(mut); !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
			}
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		mut := bytes.Clone(buf)
		mut[0] = 'X'
		reChecksum(mut)
		if _, err := snapshot.Decode(mut); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("invalid state behind valid checksum", func(t *testing.T) {
		// Point the component map (section kind 6) past the components
		// and fix the checksum: only the structural validators stand
		// between this file and an out-of-range read. Section table rows
		// are 24 bytes from offset 64 (documented format layout).
		mut := bytes.Clone(buf)
		row := mut[64+(6-1)*24:]
		off := binary.LittleEndian.Uint64(row[8:])
		count := binary.LittleEndian.Uint64(row[16:])
		if count == 0 {
			t.Skip("empty component map")
		}
		binary.LittleEndian.PutUint32(mut[off:], uint32(sns[0].Cond.N))
		reChecksum(mut)
		if _, err := snapshot.Decode(mut); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad header fields", func(t *testing.T) {
		// DecodeHeader's own range checks (no checksum in its way).
		big := bytes.Clone(buf)
		binary.LittleEndian.PutUint64(big[24:], 1<<40) // vertex count over uint32
		if _, err := snapshot.DecodeHeader(big); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("oversized vertex count: err = %v, want ErrCorrupt", err)
		}
		oob := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(oob[16:], 9) // shard 9 of 2
		if _, err := snapshot.DecodeHeader(oob); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("shard id out of range: err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("hostile section table", func(t *testing.T) {
		// Each mutation gets its checksum fixed up, so only the table and
		// payload validators stand between the bytes and a decode.
		row := func(b []byte, kind int) []byte { return b[64+(kind-1)*24:] }
		cases := []struct {
			name string
			mut  func(b []byte)
		}{
			{"wrong section count", func(b []byte) { binary.LittleEndian.PutUint32(b[56:], 17) }}, // version 1's
			{"kind out of order", func(b []byte) { binary.LittleEndian.PutUint32(row(b, 1)[0:], 2) }},
			{"bad element size", func(b []byte) { binary.LittleEndian.PutUint32(row(b, 1)[4:], 2) }},
			{"unaligned offset", func(b []byte) {
				r := row(b, 1)
				binary.LittleEndian.PutUint64(r[8:], binary.LittleEndian.Uint64(r[8:])+4)
			}},
			{"count past end of file", func(b []byte) { binary.LittleEndian.PutUint64(row(b, 1)[16:], 1<<40) }},
			{"odd pair count", func(b []byte) {
				// Cross section (kind 5) holds flattened pairs.
				r := row(b, 5)
				n := binary.LittleEndian.Uint64(r[16:])
				if n < 2 {
					t.Skip("no cross edges in fixture")
				}
				binary.LittleEndian.PutUint64(r[16:], n-1)
			}},
			{"csr offset overflows int64", func(b []byte) {
				r := row(b, 2) // forward CSR offsets, uint64 elements
				off := binary.LittleEndian.Uint64(r[8:])
				binary.LittleEndian.PutUint64(b[off:], ^uint64(0))
			}},
			{"cross edge outside graph", func(b []byte) {
				r := row(b, 5)
				if binary.LittleEndian.Uint64(r[16:]) == 0 {
					t.Skip("no cross edges in fixture")
				}
				off := binary.LittleEndian.Uint64(r[8:])
				binary.LittleEndian.PutUint32(b[off+4:], 1<<30) // the first edge's destination
			}},
		}
		for _, c := range cases {
			mut := bytes.Clone(buf)
			c.mut(mut)
			reChecksum(mut)
			if _, err := snapshot.Decode(mut); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
			}
		}
	})

	t.Run("wide span under a small graph", func(t *testing.T) {
		// Global IDs are checked against the header's vertex count before
		// the rank index is built over their span: this file would
		// otherwise cost 768 MB of bitmap before it was refused.
		wide := wideSpanSnapshot(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := snapshot.Decode(wide)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("Decode allocated %d bytes before refusing a %d-byte file", alloc, len(wide))
		}
	})

	t.Run("readfile names the path", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.dsrsnap")
		mut := bytes.Clone(buf)
		mut[len(mut)-1] ^= 1
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := snapshot.ReadFile(path)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "bad.dsrsnap") {
			t.Fatalf("err = %v, want ErrCorrupt naming the file", err)
		}
	})
}

// TestSnapshotLoadOrRebuildDifferential is the load-error-then-rebuild
// contract end to end: a fleet boots with one corrupted snapshot, that
// shard falls back to a rebuild while the others load, and the mixed
// fleet answers a randomized query stream identically to the
// whole-graph oracle.
func TestSnapshotLoadOrRebuildDifferential(t *testing.T) {
	const n, k = 200, 3
	g, pt, _, sns := fixture(t, 11, n, k)
	dir := t.TempDir()
	for i, sn := range sns {
		if _, err := snapshot.WriteFile(filepath.Join(dir, snapshot.Filename(i, k)), sn); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte of shard 1's snapshot.
	badPath := filepath.Join(dir, snapshot.Filename(1, k))
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot: load each snapshot; on any error, rebuild that shard from
	// the graph — the exact dsr-shard fallback.
	rebuilt := 0
	shards := make([]*shard.Shard, k)
	for i := 0; i < k; i++ {
		sn, err := snapshot.ReadFile(filepath.Join(dir, snapshot.Filename(i, k)))
		if err == nil {
			err = sn.Expect(i, k)
		}
		if err != nil {
			rebuilt++
			shards[i] = shard.New(i, partition.ExtractOne(g, pt, i))
			continue
		}
		shards[i] = shard.FromSnapshot(sn)
	}
	if rebuilt != 1 {
		t.Fatalf("rebuilt %d shards, want exactly the corrupted one", rebuilt)
	}

	e, err := dsr.ConnectTransport(t.Context(), shard.NewLoopback(shards), k, g.NumVertices(), dsr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(12))
	set := func() []graph.VertexID {
		s := make([]graph.VertexID, 1+rng.Intn(4))
		for i := range s {
			s[i] = graph.VertexID(rng.Intn(n))
		}
		return s
	}
	for q := 0; q < 80; q++ {
		S, T := set(), set()
		got, err := e.QueryBatchErr([]dsr.Query{{S: S, T: T}})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if want := dsr.NaiveReach(g, S, T); got[0] != want {
			t.Fatalf("query %d: Query(%v, %v) = %v, oracle = %v", q, S, T, got[0], want)
		}
	}
}

// encodeShard encodes the snapshot of partition id of g under pt.
func encodeShard(tb testing.TB, g *graph.Graph, pt *graph.Partitioning, id int) []byte {
	tb.Helper()
	sn := shard.New(id, partition.ExtractOne(g, pt, id)).Snapshot(pt.K, g.NumVertices(), g.Fingerprint(), pt.Digest())
	buf, err := snapshot.Encode(sn)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// wideSpanSnapshot is a valid-checksum snapshot of a 4-vertex graph
// whose partition lists global vertices 0 and 4,294,967,295: the
// second global ID of a range partition's snapshot, rewritten.
func wideSpanSnapshot(tb testing.TB) []byte {
	tb.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	pt, err := graph.Range().Partition(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	buf := encodeShard(tb, g, pt, 0)
	off := binary.LittleEndian.Uint64(buf[64+8:]) // section kind 1, the global IDs
	binary.LittleEndian.PutUint32(buf[off+4:], 1<<32-1)
	reChecksum(buf)
	return buf
}

// FuzzDecodeSnapshot throws whole files at Decode with the checksum
// re-stamped, so mutations reach the section validators rather than
// stopping at the checksum: Decode must return an error or a snapshot,
// never panic, and a snapshot it accepts must boot a shard
// (shard.FromSnapshot) and re-encode to bytes that decode again. Seeds:
// a hash and a range partition's snapshots, one holding a multi-vertex
// SCC, and the wide-span file.
func FuzzDecodeSnapshot(f *testing.F) {
	_, _, _, sns := fixture(f, 9, 50, 2)
	hashed, err := snapshot.Encode(sns[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hashed)
	g := randomGraph(rand.New(rand.NewSource(10)), 40, 1.5)
	pt, err := graph.Range().Partition(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeShard(f, g, pt, 1))
	// Two cycles, 0→1→2→0 and 3⇄4, bridged by 2→3 and range-split
	// between them: partition 0 condenses three vertices into one.
	b := graph.NewBuilder(5)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g = b.Build()
	if pt, err = graph.Range().Partition(g, 2); err != nil {
		f.Fatal(err)
	}
	multi := encodeShard(f, g, pt, 0)
	if sn, err := snapshot.Decode(multi); err != nil || sn.Cond.N >= sn.Sub.NumVertices() {
		f.Fatalf("seed holds no multi-vertex SCC (decode error %v)", err)
	}
	f.Add(multi)
	f.Add(wideSpanSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64 {
			// The header's vertex count bounds the span of the rank index
			// behind Subgraph.Local (1.5 bits per ID), so a file that
			// declares a huge graph may legitimately cost that much to
			// load: keep the declared graph under 2^20 vertices.
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint64(data[24:], binary.LittleEndian.Uint64(data[24:])%(1<<20))
			reChecksum(data)
		}
		sn, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		shard.FromSnapshot(sn)
		buf, err := snapshot.Encode(sn)
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if _, err := snapshot.Decode(buf); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}

// FuzzDecodeSnapshotHeader throws arbitrary bytes at the decode path:
// DecodeHeader and Decode must return errors, not panic, and anything
// that fully decodes must re-encode.
func FuzzDecodeSnapshotHeader(f *testing.F) {
	_, _, _, sns := fixture(f, 9, 50, 2)
	valid, err := snapshot.Encode(sns[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:64])
	f.Add(valid[:40])
	f.Add([]byte{})
	f.Add([]byte("DSRSNAP\x00garbage"))
	mut := bytes.Clone(valid)
	mut[80] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := snapshot.DecodeHeader(data); err != nil {
			// Header rejects it; Decode must agree.
			if _, err := snapshot.Decode(data); err == nil {
				t.Fatal("Decode accepted input DecodeHeader rejects")
			}
			return
		}
		sn, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		if _, err := snapshot.Encode(sn); err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
	})
}
