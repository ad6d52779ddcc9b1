// Package wire is the binary protocol between the DSR coordinator and
// its shards: length-prefixed frames carrying varint-packed messages.
// A frame is a 4-byte big-endian payload length followed by the
// payload; the payload's first byte is the message type. Six message
// types exist:
//
//   - MsgHello    — server -> client on connect: shard identity
//     (shard ID, shard count, vertex count, graph fingerprint,
//     partitioning digest, summary digest) so a coordinator can refuse
//     a shard built from a different graph, partitioned differently,
//     or shipping a different boundary summary.
//   - MsgSummaryRequest — client -> server: ask for the shard's
//     boundary summary (no payload beyond the type byte).
//   - MsgSummary  — server -> client: the shard's boundary summary —
//     its boundary-vertex set, summary edges, and outgoing
//     cross-partition edges, all as global vertex IDs. The coordinator
//     stitches the k summaries into the global boundary graph without
//     ever holding the full graph.
//   - MsgTasks    — client -> server: a batch of local-search tasks,
//     each tagged with the batch-query index it belongs to. Seeds and
//     targets are global vertex IDs; a shard silently skips the ones
//     it does not own (the coordinator broadcasts, it has no placement
//     data) and reports how many it owned. The batch leads with a
//     header — a flags byte plus a coordinator-assigned batch ID —
//     whose trace flag asks the server to measure itself.
//   - MsgResults  — server -> client: one result per task, in task
//     order, carrying local-hit flags, owned-seed counts, and
//     boundary-vertex sets — as ordinals into the Boundary list of the
//     shard's own MsgSummary, which the coordinator already holds, so
//     neither end searches for a vertex and a reached boundary vertex
//     costs a byte or two whatever its ID. Echoes the batch ID, and when the batch
//     requested tracing the payload ends with a server-timing footer
//     (decode, queue-wait, local-search, and encode nanoseconds) so
//     the coordinator can split round-trip time into network vs shard
//     compute.
//   - MsgError    — server -> client: a fatal protocol error as text;
//     the connection is closed afterwards.
//
// Vertex IDs and boundary ordinals are packed as unsigned varints:
// boundary sets are the dominant payload and both are small numbers, so
// varints beat fixed 4-byte encoding on exactly the traffic DSR is
// designed to bound (boundary vertices only, never partition
// interiors).
//
// Every Decode* function is hardened against hostile input: lengths are
// capped before any allocation, element counts are validated against
// the bytes actually present (each element costs at least one byte),
// and all errors are returned, never panicked.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// MaxFrame caps a frame payload at 64 MiB. ReadFrame rejects larger
// length prefixes before allocating, so a garbage or hostile header
// cannot trigger an arbitrarily large make.
const MaxFrame = 1 << 26

// Message type bytes (first byte of every frame payload).
const (
	MsgHello          = 0x01
	MsgTasks          = 0x02
	MsgResults        = 0x03
	MsgError          = 0x04
	MsgSummaryRequest = 0x05
	MsgSummary        = 0x06
)

// helloMagic guards against a client speaking to something that is not
// a DSR shard — and against an old one: it leads the hello payload
// ("DSR5"; DSR3 added the task-batch header, the server-timing footer
// on results and the hello's metrics address, DSR4 turned a result's
// boundary vertices from global IDs into ordinals — bytes an older
// peer would decode without complaint and misread, which is why the
// handshake has to refuse it — and DSR5 added the summary digest to
// the hello, when summaries became first-boundary skeletons and
// results stopped at every key component).
const helloMagic = 0x44535235

// Task-batch header flags (the byte after the MsgTasks type byte).
// Unknown bits are rejected by DecodeTasks: a flag this build does not
// understand means a newer peer, and silently ignoring it could drop a
// semantic the sender depends on.
const (
	// TaskFlagTrace asks the server to time itself and append a
	// server-timing footer to its MsgResults reply.
	TaskFlagTrace = 0x01

	taskFlagsKnown = TaskFlagTrace
)

// Results flags (the byte after the MsgResults type byte).
const (
	// resultFlagTiming marks a server-timing footer after the results.
	resultFlagTiming = 0x01

	resultFlagsKnown = resultFlagTiming
)

// maxMetricsAddr caps the hello's metrics-address string. Real
// addresses are host:port; anything past this is hostile or corrupt.
const maxMetricsAddr = 256

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrEmptyFrame  = errors.New("wire: empty frame")
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadMagic    = errors.New("wire: bad hello magic")
)

// TaskKind selects the local search a shard runs for a task.
type TaskKind uint8

const (
	// Forward is a search from the query's sources within the shard's
	// partition that stops at the first key component — one on an
	// entry→exit path holding a boundary vertex — on every path: report
	// a hit if a local target is reached, plus the boundary vertices
	// reached up to there.
	Forward TaskKind = iota
	// Backward is a reverse search from the query's targets that stops
	// the same way on the way back: report the boundary vertices that
	// reach a target locally up to there.
	Backward
)

// Task is one local-search request. Seeds and Targets are global
// vertex IDs: the coordinator holds no placement data, so it
// broadcasts the same task batch to every shard and each shard runs
// the search from whichever seeds it owns, skipping the rest. Query
// ties the task to a position in the coordinator's batch so results
// can be routed back. Targets is only meaningful for Forward tasks.
type Task struct {
	Kind    TaskKind
	Query   uint32
	Seeds   []int32
	Targets []int32
}

// Result answers one Task. Boundary holds the boundary vertices the
// search reached, entries and exits alike — ones the sources reach
// (Forward) or ones that reach a target (Backward) — each as its
// ordinal in the answering shard's Summary.Boundary list, not as a
// vertex ID. It need not be the whole closure: the search stops at the
// first key component, reported by one representative vertex, and the
// coordinator's summary edges carry it on to the rest, so together they
// are. The list is sorted, the
// same on every replica of the partition, and already with the
// coordinator, so an ordinal is all either end needs. Owned
// counts how many of the task's Seeds this shard owned — summed over
// all shards it tells the broadcast coordinator whether every seed was
// actually searched (a dead partition's seeds go missing, which must
// fail the query rather than read as false). Hit is only meaningful
// for Forward results.
type Result struct {
	Kind     TaskKind
	Query    uint32
	Hit      bool
	Owned    uint32
	Boundary []uint32
}

// Summary is one shard's contribution to the global boundary graph,
// shipped in response to a MsgSummaryRequest. All IDs are global.
// Boundary lists the partition's boundary vertices (entries ∪ exits)
// in strictly increasing order — the decoder enforces the order, so a
// decoded Summary is always canonical. Edges holds summary pairs of
// boundary vertices, the second reachable from the first without
// leaving the partition — a shard ships its first-boundary skeleton,
// whose closure holds every entry→exit pair — and Cross the
// raw cross-partition edges whose source lies in the partition.
// Stitched over all k shards these are the edges of the DSR boundary
// graph.
type Summary struct {
	Boundary []uint32
	Edges    [][2]uint32
	Cross    [][2]uint32
}

// Digest is the FNV-1a hash of s's MsgSummary encoding: what a shard
// announces in its hello and what a coordinator holds every replica of
// a partition to. Encoding is canonical for a decoded Summary, so the
// coordinator's digest of what it received is the shard's own.
func (s Summary) Digest() uint64 {
	h := fnv.New64a()
	h.Write(AppendSummary(nil, s))
	return h.Sum64()
}

// Hello identifies a shard server to a connecting coordinator. Graph
// is a fingerprint of the exact edge set the shard was built from
// (graph.Fingerprint) and Partitioning a digest of the vertex-to-
// partition assignment (graph.Partitioning.Digest) — the latter catches
// two processes that loaded the same graph but partitioned it
// differently (e.g. hash vs locality, or locality with different
// seeds). SummaryDigest is the shard's encoded boundary summary's
// Summary.Digest: replicas of one partition must ship the summary the
// coordinator stitched, so one that summarizes differently — another
// build's summary semantics — is refused too. For any of the three, 0
// means "not computed" and skips the check. MetricsAddr, when non-empty, is the host:port of the shard's ops
// endpoint so a coordinator can aggregate the fleet's /metrics
// registries without separate service discovery.
type Hello struct {
	ShardID       uint32
	NumShards     uint32
	NumVertices   uint32
	Graph         uint64
	Partitioning  uint64
	SummaryDigest uint64
	MetricsAddr   string
}

// BatchHeader prefixes every MsgTasks batch. Batch is a coordinator-
// assigned ID echoed back in the MsgResults reply (0 means unassigned);
// Trace asks the server to measure itself and append a server-timing
// footer to the reply.
type BatchHeader struct {
	Trace bool
	Batch uint64
}

// ServerTiming is a shard server's self-measured breakdown of one task
// batch, in nanoseconds: request decode, queue wait for the shard's run
// lock, the local search itself, and response encode. It rides as a
// footer on MsgResults when the batch's header set Trace, letting the
// coordinator split observed round-trip time into network vs shard
// compute — the communication/computation separation the DSR evaluation
// is built on.
type ServerTiming struct {
	Decode uint64
	Queue  uint64
	Search uint64
	Encode uint64
}

// Total is the server-side wall time covered by the breakdown.
func (t ServerTiming) Total() uint64 {
	return t.Decode + t.Queue + t.Search + t.Encode
}

// ResultsInfo carries the per-batch metadata decoded from a MsgResults
// payload: the echoed batch ID and, when the server measured itself,
// its timing footer.
type ResultsInfo struct {
	Batch     uint64
	HasTiming bool
	Timing    ServerTiming
}

// WriteFrame writes one length-prefixed frame. The payload must be
// non-empty and at most MaxFrame bytes.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf's capacity when possible, and
// returns the payload. The length prefix is validated against MaxFrame
// before any allocation. io.EOF is returned only for a clean EOF at a
// frame boundary; a partial frame yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// AppendHello appends a MsgHello payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, MsgHello)
	dst = binary.BigEndian.AppendUint32(dst, helloMagic)
	dst = binary.AppendUvarint(dst, uint64(h.ShardID))
	dst = binary.AppendUvarint(dst, uint64(h.NumShards))
	dst = binary.AppendUvarint(dst, uint64(h.NumVertices))
	dst = binary.AppendUvarint(dst, h.Graph)
	dst = binary.AppendUvarint(dst, h.Partitioning)
	dst = binary.AppendUvarint(dst, h.SummaryDigest)
	dst = binary.AppendUvarint(dst, uint64(len(h.MetricsAddr)))
	dst = append(dst, h.MetricsAddr...)
	return dst
}

// DecodeHello decodes a MsgHello payload (including the type byte).
func DecodeHello(p []byte) (Hello, error) {
	var h Hello
	p, err := expectType(p, MsgHello)
	if err != nil {
		return h, err
	}
	if len(p) < 4 {
		return h, ErrTruncated
	}
	if binary.BigEndian.Uint32(p) != helloMagic {
		return h, ErrBadMagic
	}
	p = p[4:]
	if h.ShardID, p, err = readUint32(p); err != nil {
		return h, err
	}
	if h.NumShards, p, err = readUint32(p); err != nil {
		return h, err
	}
	if h.NumVertices, p, err = readUint32(p); err != nil {
		return h, err
	}
	if h.Graph, p, err = readUint64(p); err != nil {
		return h, err
	}
	if h.Partitioning, p, err = readUint64(p); err != nil {
		return h, err
	}
	if h.SummaryDigest, p, err = readUint64(p); err != nil {
		return h, err
	}
	alen, p, err := readCount(p)
	if err != nil {
		return h, err
	}
	if alen > maxMetricsAddr {
		return h, fmt.Errorf("wire: metrics address length %d exceeds %d", alen, maxMetricsAddr)
	}
	h.MetricsAddr = string(p[:alen])
	p = p[alen:]
	if len(p) != 0 {
		return h, fmt.Errorf("wire: %d trailing bytes after hello", len(p))
	}
	return h, nil
}

// AppendTasks appends a MsgTasks payload carrying the batch to dst,
// led by its header (flags byte + batch ID).
func AppendTasks(dst []byte, h BatchHeader, tasks []Task) []byte {
	dst = append(dst, MsgTasks)
	flags := byte(0)
	if h.Trace {
		flags |= TaskFlagTrace
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, h.Batch)
	dst = binary.AppendUvarint(dst, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		dst = append(dst, byte(t.Kind))
		dst = binary.AppendUvarint(dst, uint64(t.Query))
		dst = appendIDs32(dst, t.Seeds)
		dst = appendIDs32(dst, t.Targets)
	}
	return dst
}

// DecodeTasks decodes a MsgTasks payload, returning its batch header.
// Decoded tasks are appended to dst and their Seeds/Targets slices into
// arena, so a caller that keeps both between calls (truncated to length
// 0) pays no steady-state allocations. The returned tasks alias the
// returned arena. Unknown header flag bits are rejected.
func DecodeTasks(p []byte, dst []Task, arena []int32) (BatchHeader, []Task, []int32, error) {
	var hdr BatchHeader
	p, err := expectType(p, MsgTasks)
	if err != nil {
		return hdr, dst, arena, err
	}
	if len(p) == 0 {
		return hdr, dst, arena, ErrTruncated
	}
	flags := p[0]
	if flags&^byte(taskFlagsKnown) != 0 {
		return hdr, dst, arena, fmt.Errorf("wire: unknown task flags %#02x", flags)
	}
	hdr.Trace = flags&TaskFlagTrace != 0
	p = p[1:]
	if hdr.Batch, p, err = readUint64(p); err != nil {
		return hdr, dst, arena, err
	}
	count, p, err := readCount(p)
	if err != nil {
		return hdr, dst, arena, err
	}
	for i := 0; i < count; i++ {
		if len(p) == 0 {
			return hdr, dst, arena, ErrTruncated
		}
		kind := TaskKind(p[0])
		if kind != Forward && kind != Backward {
			return hdr, dst, arena, fmt.Errorf("wire: bad task kind %d", kind)
		}
		p = p[1:]
		var q uint32
		if q, p, err = readUint32(p); err != nil {
			return hdr, dst, arena, err
		}
		var seeds, targets []int32
		if seeds, arena, p, err = readIDs32(p, arena); err != nil {
			return hdr, dst, arena, err
		}
		if targets, arena, p, err = readIDs32(p, arena); err != nil {
			return hdr, dst, arena, err
		}
		dst = append(dst, Task{Kind: kind, Query: q, Seeds: seeds, Targets: targets})
	}
	if len(p) != 0 {
		return hdr, dst, arena, fmt.Errorf("wire: %d trailing bytes after tasks", len(p))
	}
	return hdr, dst, arena, nil
}

// AppendResults appends a MsgResults payload to dst, echoing the
// request's batch ID. withTiming declares that a server-timing footer
// follows the results; the caller MUST then complete the payload with
// AppendServerTiming before framing it. The footer is appended
// separately so the server can include the encode time of the results
// themselves in the measurement.
func AppendResults(dst []byte, batch uint64, withTiming bool, results []Result) []byte {
	dst = append(dst, MsgResults)
	flags := byte(0)
	if withTiming {
		flags |= resultFlagTiming
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, batch)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i := range results {
		r := &results[i]
		dst = append(dst, byte(r.Kind))
		dst = binary.AppendUvarint(dst, uint64(r.Query))
		hit := byte(0)
		if r.Hit {
			hit = 1
		}
		dst = append(dst, hit)
		dst = binary.AppendUvarint(dst, uint64(r.Owned))
		dst = binary.AppendUvarint(dst, uint64(len(r.Boundary)))
		for _, v := range r.Boundary {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// AppendServerTiming appends the server-timing footer to a MsgResults
// payload built with withTiming=true.
func AppendServerTiming(dst []byte, t ServerTiming) []byte {
	dst = binary.AppendUvarint(dst, t.Decode)
	dst = binary.AppendUvarint(dst, t.Queue)
	dst = binary.AppendUvarint(dst, t.Search)
	dst = binary.AppendUvarint(dst, t.Encode)
	return dst
}

// DecodeResults decodes a MsgResults payload, appending results to dst
// and their Boundary slices into arena (same reuse contract as
// DecodeTasks). The returned info carries the echoed batch ID and the
// server-timing footer when present. Unknown flag bits are rejected.
func DecodeResults(p []byte, dst []Result, arena []uint32) (ResultsInfo, []Result, []uint32, error) {
	var info ResultsInfo
	p, err := expectType(p, MsgResults)
	if err != nil {
		return info, dst, arena, err
	}
	if len(p) == 0 {
		return info, dst, arena, ErrTruncated
	}
	flags := p[0]
	if flags&^byte(resultFlagsKnown) != 0 {
		return info, dst, arena, fmt.Errorf("wire: unknown result flags %#02x", flags)
	}
	info.HasTiming = flags&resultFlagTiming != 0
	p = p[1:]
	if info.Batch, p, err = readUint64(p); err != nil {
		return info, dst, arena, err
	}
	count, p, err := readCount(p)
	if err != nil {
		return info, dst, arena, err
	}
	for i := 0; i < count; i++ {
		if len(p) < 3 { // kind + query varint + hit, at minimum
			return info, dst, arena, ErrTruncated
		}
		kind := TaskKind(p[0])
		if kind != Forward && kind != Backward {
			return info, dst, arena, fmt.Errorf("wire: bad result kind %d", kind)
		}
		p = p[1:]
		var q uint32
		if q, p, err = readUint32(p); err != nil {
			return info, dst, arena, err
		}
		if len(p) == 0 {
			return info, dst, arena, ErrTruncated
		}
		if p[0] > 1 {
			return info, dst, arena, fmt.Errorf("wire: bad hit byte %d", p[0])
		}
		hit := p[0] == 1
		p = p[1:]
		var owned uint32
		if owned, p, err = readUint32(p); err != nil {
			return info, dst, arena, err
		}
		n, p2, err := readCount(p)
		if err != nil {
			return info, dst, arena, err
		}
		p = p2
		start := len(arena)
		for j := 0; j < n; j++ {
			var v uint32
			if v, p, err = readUint32(p); err != nil {
				return info, dst, arena, err
			}
			arena = append(arena, v)
		}
		dst = append(dst, Result{Kind: kind, Query: q, Hit: hit, Owned: owned, Boundary: arena[start:len(arena):len(arena)]})
	}
	if info.HasTiming {
		if info.Timing.Decode, p, err = readUint64(p); err != nil {
			return info, dst, arena, err
		}
		if info.Timing.Queue, p, err = readUint64(p); err != nil {
			return info, dst, arena, err
		}
		if info.Timing.Search, p, err = readUint64(p); err != nil {
			return info, dst, arena, err
		}
		if info.Timing.Encode, p, err = readUint64(p); err != nil {
			return info, dst, arena, err
		}
	}
	if len(p) != 0 {
		return info, dst, arena, fmt.Errorf("wire: %d trailing bytes after results", len(p))
	}
	return info, dst, arena, nil
}

// AppendSummaryRequest appends a MsgSummaryRequest payload to dst. The
// request carries nothing beyond its type byte.
func AppendSummaryRequest(dst []byte) []byte {
	return append(dst, MsgSummaryRequest)
}

// AppendSummary appends a MsgSummary payload to dst. s.Boundary must be
// strictly increasing (which Shard summaries are by construction);
// DecodeSummary rejects anything else.
func AppendSummary(dst []byte, s Summary) []byte {
	dst = append(dst, MsgSummary)
	dst = binary.AppendUvarint(dst, uint64(len(s.Boundary)))
	for _, v := range s.Boundary {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = appendPairs(dst, s.Edges)
	dst = appendPairs(dst, s.Cross)
	return dst
}

func appendPairs(dst []byte, pairs [][2]uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, pr := range pairs {
		dst = binary.AppendUvarint(dst, uint64(pr[0]))
		dst = binary.AppendUvarint(dst, uint64(pr[1]))
	}
	return dst
}

// DecodeSummary decodes a MsgSummary payload. It enforces the boundary
// list's strict ordering (sorted, no duplicates), so accepted summaries
// are canonical and safe to binary-search; element counts are validated
// against the bytes present before any slice grows, like every other
// decoder here.
func DecodeSummary(p []byte) (Summary, error) {
	var s Summary
	p, err := expectType(p, MsgSummary)
	if err != nil {
		return s, err
	}
	nb, p, err := readCount(p)
	if err != nil {
		return s, err
	}
	for j := 0; j < nb; j++ {
		var v uint32
		if v, p, err = readUint32(p); err != nil {
			return s, err
		}
		if j > 0 && v <= s.Boundary[j-1] {
			return s, fmt.Errorf("wire: boundary list not strictly increasing at index %d", j)
		}
		s.Boundary = append(s.Boundary, v)
	}
	if s.Edges, p, err = readPairs(p); err != nil {
		return s, err
	}
	if s.Cross, p, err = readPairs(p); err != nil {
		return s, err
	}
	if len(p) != 0 {
		return s, fmt.Errorf("wire: %d trailing bytes after summary", len(p))
	}
	return s, nil
}

func readPairs(p []byte) ([][2]uint32, []byte, error) {
	n, p, err := readCount(p)
	if err != nil {
		return nil, nil, err
	}
	var pairs [][2]uint32
	for j := 0; j < n; j++ {
		var a, b uint32
		if a, p, err = readUint32(p); err != nil {
			return nil, nil, err
		}
		if b, p, err = readUint32(p); err != nil {
			return nil, nil, err
		}
		pairs = append(pairs, [2]uint32{a, b})
	}
	return pairs, p, nil
}

// AppendError appends a MsgError payload to dst.
func AppendError(dst []byte, msg string) []byte {
	return append(append(dst, MsgError), msg...)
}

// DecodeError decodes a MsgError payload into its message text.
func DecodeError(p []byte) (string, error) {
	p, err := expectType(p, MsgError)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// MsgType peeks at a payload's message type byte.
func MsgType(p []byte) (byte, error) {
	if len(p) == 0 {
		return 0, ErrTruncated
	}
	return p[0], nil
}

func expectType(p []byte, want byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, ErrTruncated
	}
	if p[0] != want {
		return nil, fmt.Errorf("wire: message type %#02x, want %#02x", p[0], want)
	}
	return p[1:], nil
}

// readCount reads an element-count varint and validates it against the
// bytes actually remaining: every element costs at least one byte, so a
// count larger than len(rest) is corrupt and must fail here, before the
// caller extends any slice by it.
func readCount(p []byte) (int, []byte, error) {
	c, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	p = p[n:]
	if c > uint64(len(p)) {
		return 0, nil, fmt.Errorf("wire: count %d exceeds %d remaining bytes", c, len(p))
	}
	return int(c), p, nil
}

func readUint64(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, p[n:], nil
}

func readUint32(p []byte) (uint32, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	if v > math.MaxUint32 {
		return 0, nil, fmt.Errorf("wire: varint %d overflows uint32", v)
	}
	return uint32(v), p[n:], nil
}

func appendIDs32(dst []byte, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	return dst
}

// readIDs32 reads a count-prefixed vertex-ID list into arena and
// returns the slice of arena holding it. IDs must fit int32: local
// vertex IDs are non-negative int32 by construction.
func readIDs32(p []byte, arena []int32) ([]int32, []int32, []byte, error) {
	n, p, err := readCount(p)
	if err != nil {
		return nil, arena, nil, err
	}
	start := len(arena)
	for j := 0; j < n; j++ {
		v, np := binary.Uvarint(p)
		if np <= 0 {
			return nil, arena, nil, ErrTruncated
		}
		if v > math.MaxInt32 {
			return nil, arena, nil, fmt.Errorf("wire: vertex ID %d overflows int32", v)
		}
		arena = append(arena, int32(v))
		p = p[np:]
	}
	return arena[start:len(arena):len(arena)], arena, p, nil
}
