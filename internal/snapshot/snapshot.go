// Package snapshot persists one partition's query state — the local
// forward CSR subgraph and its SCC condensation — in a versioned,
// checksummed, mmap-friendly on-disk layout, so a shard restart is a
// file load instead of an edge-list read plus re-partition plus Tarjan.
// Nothing a load can derive in linear time is persisted: Decode derives
// the exits (the sources of the cross edges, by partition.ExtractOne's
// rule) and the reverse DAG (the transpose scc.Condense runs), and
// shard.FromSnapshot the regions, pruned DAGs and boundary summary.
// Format 4 holds eight sections: the subgraph's five (global IDs, CSR
// offsets and edges, entries, cross edges) and the condensation's three
// (component map, forward DAG CSR). The subgraph's own CSR stays: the
// snapshot is the partition itself, not only what a query reads.
//
// # Layout
//
// Everything is little-endian. The file opens with a fixed 64-byte
// header:
//
//	offset  size  field
//	     0     8  magic "DSRSNAP\x00"
//	     8     4  format version (uint32)
//	    12     4  reserved (0)
//	    16     4  shard ID (uint32)
//	    20     4  shard count (uint32)
//	    24     8  total graph vertex count (uint64)
//	    32     8  graph fingerprint (graph.Fingerprint)
//	    40     8  partitioning digest (graph.Partitioning.Digest)
//	    48     8  whole-file checksum (FNV-1a with this field zeroed)
//	    56     4  section count (uint32)
//	    60     4  reserved (0)
//
// followed by a section table (one 24-byte row per section: kind,
// element size, byte offset, element count) and the section payloads,
// each 8-byte aligned so fixed-width arrays can be used straight out of
// a mapping. Sections appear in canonical kind order and exactly once,
// which makes encoding deterministic: two snapshots of the same built
// state are byte-identical (what -snapshot-verify's compare relies on).
//
// The header identity fields mirror the distributed handshake: a
// snapshot for the wrong shard ID/count, a foreign graph, or a foreign
// partitioning is refused via Header.Expect exactly like a mismatched
// hello. The checksum makes corruption a load error — callers fall back
// to a rebuild, never to a wrong answer.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/scc"
)

// FormatVersion is the on-disk format version this package writes. A
// snapshot with any other version is refused with ErrVersion (and the
// caller rebuilds), so a format change never silently misreads old
// files.
const FormatVersion = 4

// Sentinel errors, matched with errors.Is through the wrapped detail.
var (
	// ErrCorrupt marks a file that is not a structurally valid snapshot:
	// bad magic, failed checksum, truncation, or any internal
	// inconsistency found during validation.
	ErrCorrupt = errors.New("corrupt snapshot")
	// ErrVersion marks a structurally plausible snapshot written by a
	// different format version.
	ErrVersion = errors.New("snapshot format version skew")
	// ErrMismatch marks a valid snapshot that belongs to a different
	// deployment: wrong shard ID/count, graph fingerprint, or
	// partitioning digest.
	ErrMismatch = errors.New("snapshot identity mismatch")
)

const (
	headerSize   = 64
	tableRowSize = 24
	magic        = "DSRSNAP\x00"
)

// Section kinds, in canonical file order.
const (
	secGlobal     = iota + 1 // subgraph local->global map (uint32)
	secFOff                  // subgraph forward CSR offsets (uint64)
	secFEdges                // subgraph forward CSR edges (int32)
	secEntries               // boundary entry local IDs (int32)
	secCross                 // cross-partition edges, flattened pairs (uint32)
	secComp                  // vertex -> SCC component (int32)
	secCondFOff              // condensation forward CSR offsets (int32)
	secCondFEdges            // condensation forward CSR edges (int32)
	numSections   = secCondFEdges
)

// Header identifies a snapshot: the format version it was written
// with, which partition of which deployment it holds, and the exact
// graph + partitioning it was built from.
type Header struct {
	Version            int
	ShardID            int
	ShardCount         int
	TotalVertices      int
	GraphFingerprint   uint64
	PartitioningDigest uint64
}

// Expect refuses a snapshot whose identity differs from the
// deployment's. Shard ID and count are always checked; totalVertices,
// graphSum, and partSum are skipped when 0 — the same "not computed"
// convention as the wire handshake, since a shard booting from a
// snapshot alone has nothing to compare the graph fields against (the
// coordinator's fleet cross-check covers that case).
func (h Header) Expect(shardID, shardCount, totalVertices int, graphSum, partSum uint64) error {
	if h.ShardID != shardID || h.ShardCount != shardCount {
		return fmt.Errorf("%w: snapshot is shard %d/%d, deployment wants %d/%d",
			ErrMismatch, h.ShardID, h.ShardCount, shardID, shardCount)
	}
	if totalVertices != 0 && h.TotalVertices != totalVertices {
		return fmt.Errorf("%w: snapshot graph has %d vertices, deployment's has %d",
			ErrMismatch, h.TotalVertices, totalVertices)
	}
	if graphSum != 0 && h.GraphFingerprint != graphSum {
		return fmt.Errorf("%w: graph fingerprint %#x, deployment's is %#x",
			ErrMismatch, h.GraphFingerprint, graphSum)
	}
	if partSum != 0 && h.PartitioningDigest != partSum {
		return fmt.Errorf("%w: partitioning digest %#x, deployment's is %#x",
			ErrMismatch, h.PartitioningDigest, partSum)
	}
	return nil
}

// Snapshot is one partition's decoded query state plus the identity
// header it was persisted under. Cond is Sub's SCC condensation, so
// shard.FromSnapshot runs no Tarjan.
type Snapshot struct {
	Header
	Sub  *partition.Subgraph
	Cond *scc.Condensation
	// Size is the encoded byte size; set by ReadFile and WriteFile.
	Size int
}

// Filename returns the canonical snapshot file name for one partition
// of a deployment. Keying the name on both shard ID and count lets one
// directory serve a whole fleet — and keeps a k=3 file from being
// offered to a k=4 boot at all.
func Filename(shardID, shardCount int) string {
	return fmt.Sprintf("part%d-of-%d.dsrsnap", shardID, shardCount)
}

// checksum computes the whole-file FNV-1a digest with the checksum
// field itself treated as zero.
func checksum(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, b := range data {
		if i >= 48 && i < 56 {
			b = 0
		}
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// section describes one payload during encoding.
type section struct {
	kind  uint32
	elem  uint32
	count int
	put   func(dst []byte)
}

func putU32s(dst []byte, vals []int32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

func putVIDs(dst []byte, vals []graph.VertexID) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

func putU64s(dst []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// Encode serializes sn to the on-disk format. Encoding the same built
// state twice yields identical bytes.
func Encode(sn *Snapshot) ([]byte, error) {
	if sn.Sub == nil || sn.Cond == nil {
		return nil, fmt.Errorf("snapshot: nil subgraph or condensation")
	}
	d := sn.Sub.Data()
	cd := sn.Cond.Data()

	secs := []section{
		{secGlobal, 4, len(d.Global), func(b []byte) { putVIDs(b, d.Global) }},
		{secFOff, 8, len(d.FOff), func(b []byte) { putU64s(b, d.FOff) }},
		{secFEdges, 4, len(d.FEdges), func(b []byte) { putU32s(b, d.FEdges) }},
		{secEntries, 4, len(d.Entries), func(b []byte) { putU32s(b, d.Entries) }},
		{secCross, 4, 2 * len(d.Cross), func(b []byte) {
			for i, pr := range d.Cross {
				binary.LittleEndian.PutUint32(b[8*i:], uint32(pr[0]))
				binary.LittleEndian.PutUint32(b[8*i+4:], uint32(pr[1]))
			}
		}},
		{secComp, 4, len(cd.Comp), func(b []byte) { putU32s(b, cd.Comp) }},
		{secCondFOff, 4, len(cd.FOff), func(b []byte) { putU32s(b, cd.FOff) }},
		{secCondFEdges, 4, len(cd.FEdges), func(b []byte) { putU32s(b, cd.FEdges) }},
	}

	// Lay out: header, table, then 8-aligned payloads.
	off := headerSize + numSections*tableRowSize
	offsets := make([]int, len(secs))
	for i, s := range secs {
		off = (off + 7) &^ 7
		offsets[i] = off
		off += s.count * int(s.elem)
	}
	buf := make([]byte, (off+7)&^7)

	copy(buf[0:8], magic)
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[16:], uint32(sn.ShardID))
	binary.LittleEndian.PutUint32(buf[20:], uint32(sn.ShardCount))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sn.TotalVertices))
	binary.LittleEndian.PutUint64(buf[32:], sn.GraphFingerprint)
	binary.LittleEndian.PutUint64(buf[40:], sn.PartitioningDigest)
	binary.LittleEndian.PutUint32(buf[56:], numSections)
	for i, s := range secs {
		row := buf[headerSize+i*tableRowSize:]
		binary.LittleEndian.PutUint32(row[0:], s.kind)
		binary.LittleEndian.PutUint32(row[4:], s.elem)
		binary.LittleEndian.PutUint64(row[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(row[16:], uint64(s.count))
		s.put(buf[offsets[i] : offsets[i]+s.count*int(s.elem)])
	}
	binary.LittleEndian.PutUint64(buf[48:], checksum(buf))
	return buf, nil
}

// Write encodes sn and writes it to w.
func Write(w io.Writer, sn *Snapshot) error {
	buf, err := Encode(sn)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteFile atomically persists sn at path via a temp file in the same
// directory, fsync, and rename — a reader never observes a partial
// snapshot, and a crash mid-write leaves any previous snapshot intact.
// It returns the encoded byte size.
func WriteFile(path string, sn *Snapshot) (int, error) {
	buf, err := Encode(sn)
	if err != nil {
		return 0, err
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	sn.Size = len(buf)
	return len(buf), nil
}

// DecodeHeader parses and validates only the fixed header: magic,
// version, and the identity fields. It never touches the payload, so
// it is safe and cheap on arbitrary input — the fuzz target's entry
// point, and what callers use to identify a snapshot without decoding
// it.
func DecodeHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), headerSize)
	}
	if string(data[0:8]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != FormatVersion {
		return Header{}, fmt.Errorf("%w: file is version %d, this build reads %d", ErrVersion, version, FormatVersion)
	}
	h := Header{
		Version:            int(version),
		ShardID:            int(binary.LittleEndian.Uint32(data[16:])),
		ShardCount:         int(binary.LittleEndian.Uint32(data[20:])),
		GraphFingerprint:   binary.LittleEndian.Uint64(data[32:]),
		PartitioningDigest: binary.LittleEndian.Uint64(data[40:]),
	}
	tv := binary.LittleEndian.Uint64(data[24:])
	if tv > math.MaxUint32 {
		return Header{}, fmt.Errorf("%w: total vertex count %d overflows uint32", ErrCorrupt, tv)
	}
	h.TotalVertices = int(tv)
	if h.ShardCount < 1 || h.ShardID < 0 || h.ShardID >= h.ShardCount {
		return Header{}, fmt.Errorf("%w: shard %d of %d out of range", ErrCorrupt, h.ShardID, h.ShardCount)
	}
	return h, nil
}

// rawSections extracts and bounds-checks the section table, returning
// the payload byte slices indexed by kind.
func rawSections(data []byte) ([numSections + 1][]byte, [numSections + 1]int, error) {
	var payload [numSections + 1][]byte
	var counts [numSections + 1]int
	if got := binary.LittleEndian.Uint32(data[56:]); got != numSections {
		return payload, counts, fmt.Errorf("%w: %d sections, want %d", ErrCorrupt, got, numSections)
	}
	if len(data) < headerSize+numSections*tableRowSize {
		return payload, counts, fmt.Errorf("%w: truncated section table", ErrCorrupt)
	}
	prevEnd := headerSize + numSections*tableRowSize
	for i := 0; i < numSections; i++ {
		row := data[headerSize+i*tableRowSize:]
		kind := binary.LittleEndian.Uint32(row[0:])
		elem := binary.LittleEndian.Uint32(row[4:])
		off := binary.LittleEndian.Uint64(row[8:])
		count := binary.LittleEndian.Uint64(row[16:])
		if kind != uint32(i+1) {
			return payload, counts, fmt.Errorf("%w: section %d has kind %d, want canonical order", ErrCorrupt, i, kind)
		}
		if elem != 4 && elem != 8 {
			return payload, counts, fmt.Errorf("%w: section %d element size %d", ErrCorrupt, kind, elem)
		}
		// Bounds before any allocation: count*elem cannot exceed the
		// file, so a hostile table cannot make us allocate beyond it.
		if off%8 != 0 || off < uint64(prevEnd) || off > uint64(len(data)) ||
			count > uint64(len(data)) || off+count*uint64(elem) > uint64(len(data)) {
			return payload, counts, fmt.Errorf("%w: section %d spans [%d, %d+%d*%d) outside file of %d bytes",
				ErrCorrupt, kind, off, off, count, elem, len(data))
		}
		payload[kind] = data[off : off+count*uint64(elem)]
		counts[kind] = int(count)
		prevEnd = int(off + count*uint64(elem))
	}
	return payload, counts, nil
}

func decodeU32s(raw []byte, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func decodeVIDs(raw []byte, count int) []graph.VertexID {
	out := make([]graph.VertexID, count)
	for i := range out {
		out[i] = graph.VertexID(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func decodeOffsets(raw []byte, count int) ([]int64, error) {
	out := make([]int64, count)
	for i := range out {
		v := binary.LittleEndian.Uint64(raw[8*i:])
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("%w: CSR offset %d overflows int64", ErrCorrupt, v)
		}
		out[i] = int64(v)
	}
	return out, nil
}

func decodePairs(raw []byte, count int) ([][2]uint32, error) {
	if count%2 != 0 {
		return nil, fmt.Errorf("%w: odd element count %d in a pair section", ErrCorrupt, count)
	}
	out := make([][2]uint32, count/2)
	for i := range out {
		out[i][0] = binary.LittleEndian.Uint32(raw[8*i:])
		out[i][1] = binary.LittleEndian.Uint32(raw[8*i+4:])
	}
	return out, nil
}

// Decode parses and fully validates a snapshot. Any deviation — failed
// checksum, truncation, version skew, or state that violates the
// invariants the query path relies on — is an error; a Snapshot that
// decodes is safe to serve from. Errors wrap ErrCorrupt, ErrVersion,
// or ErrMismatch for callers that care which.
func Decode(data []byte) (*Snapshot, error) {
	h, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	if got, want := checksum(data), binary.LittleEndian.Uint64(data[48:]); got != want {
		return nil, fmt.Errorf("%w: checksum %#x, file claims %#x", ErrCorrupt, got, want)
	}
	payload, counts, err := rawSections(data)
	if err != nil {
		return nil, err
	}

	// Cross-object checks against the header first: every global ID this
	// partition mentions must exist in the deployment's graph. They run
	// before SubgraphFromData, whose rank index costs memory in the span
	// of the owned IDs — which one stray ID would stretch to 2^32.
	global := decodeVIDs(payload[secGlobal], counts[secGlobal])
	for i, gv := range global {
		if int(gv) >= h.TotalVertices {
			return nil, fmt.Errorf("%w: local vertex %d is global %d, graph has %d", ErrCorrupt, i, gv, h.TotalVertices)
		}
	}
	cross32, err := decodePairs(payload[secCross], counts[secCross])
	if err != nil {
		return nil, err
	}
	cross := make([][2]graph.VertexID, len(cross32))
	for i, pr := range cross32 {
		if int(pr[0]) >= h.TotalVertices || int(pr[1]) >= h.TotalVertices {
			return nil, fmt.Errorf("%w: cross edge %d (%d->%d) outside graph of %d vertices", ErrCorrupt, i, pr[0], pr[1], h.TotalVertices)
		}
		cross[i] = [2]graph.VertexID{graph.VertexID(pr[0]), graph.VertexID(pr[1])}
	}
	foff, err := decodeOffsets(payload[secFOff], counts[secFOff])
	if err != nil {
		return nil, err
	}

	cond, err := scc.CondensationFromData(scc.CondensationData{
		Comp:   decodeU32s(payload[secComp], counts[secComp]),
		FOff:   decodeU32s(payload[secCondFOff], counts[secCondFOff]),
		FEdges: decodeU32s(payload[secCondFEdges], counts[secCondFEdges]),
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(cond.Comp) != len(global) {
		return nil, fmt.Errorf("%w: condensation covers %d vertices, subgraph has %d", ErrCorrupt, len(cond.Comp), len(global))
	}
	sub, err := partition.SubgraphFromData(partition.SubgraphData{
		Global:  global,
		FOff:    foff,
		FEdges:  decodeU32s(payload[secFEdges], counts[secFEdges]),
		Entries: decodeU32s(payload[secEntries], counts[secEntries]),
		Cross:   cross,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Snapshot{Header: h, Sub: sub, Cond: cond, Size: len(data)}, nil
}

// ReadFile loads and decodes the snapshot at path. A missing file
// surfaces as an fs.ErrNotExist-wrapping error, distinct from
// corruption.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sn, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sn, nil
}
