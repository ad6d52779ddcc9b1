package dsr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/partition/locality"
	"dsr/internal/scc"
	"dsr/internal/wire"
)

// stitchReference is stitchBoundary as it was before the bucketed
// index: the boundary lists concatenated and sorted, and every edge end
// resolved by a binary search of the whole list — the source first in
// its own shard's list, then in the merged one. TestStitchMatchesReference
// and FuzzStitchBoundary hold the stitch to it byte for byte, refusals
// included.
func stitchReference(n int, sums []wire.Summary) (*boundaryGraph, error) {
	verts, g, err := stitchRowsReference(n, sums)
	if err != nil {
		return nil, err
	}
	return condenseReference(verts, sums, g), nil
}

// stitchRowsReference is the reference's validation and row layout
// over dense ids, indices into the returned sorted vertex list.
func stitchRowsReference(n int, sums []wire.Summary) ([]uint32, *csr, error) {
	k := len(sums)
	total := 0
	for p := range sums {
		b := sums[p].Boundary
		for i := 1; i < len(b); i++ {
			if b[i-1] >= b[i] {
				return nil, nil, fmt.Errorf("dsr: shard %d boundary list is not strictly increasing at %d", p, i)
			}
		}
		total += len(b)
	}
	verts := make([]uint32, 0, total)
	for p := range sums {
		verts = append(verts, sums[p].Boundary...)
	}
	slices.Sort(verts)
	for i := 1; i < len(verts); i++ {
		if verts[i] == verts[i-1] {
			return nil, nil, fmt.Errorf("dsr: boundary vertex %d claimed by two shards — the fleet was not built from one partitioning", verts[i])
		}
	}
	if len(verts) > 0 && int64(verts[len(verts)-1]) >= int64(n) {
		return nil, nil, fmt.Errorf("dsr: boundary vertex %d out of range (graph has %d vertices)", verts[len(verts)-1], n)
	}
	nb := len(verts)

	// Validation before any stitching: each shard's edge sources must be
	// its own boundary vertices (row ownership — the parallel count and
	// fill below stay race-free even against a buggy or hostile shard)
	// and each target must resolve to some shard's boundary vertex. This
	// is the only pass that searches: it leaves every edge behind as a
	// (source, target) pair of dense ids in ends[p] for the passes below.
	// Summaries list an entry's edges consecutively, so a repeated source
	// reuses the previous resolution.
	ends := make([][]int32, k)
	errs := make([]error, k)
	parallelParts(k, func(p int) {
		s := &sums[p]
		pairs := make([]int32, 0, 2*(len(s.Edges)+len(s.Cross)))
		var src uint32
		d := int32(-1) // dense id of src, -1 before the first edge
		resolve := func(edges [][2]uint32, what string) error {
			for _, pr := range edges {
				if d < 0 || pr[0] != src {
					if _, ok := slices.BinarySearch(s.Boundary, pr[0]); !ok {
						return fmt.Errorf("dsr: shard %d %s edge %d->%d: source is not one of its boundary vertices", p, what, pr[0], pr[1])
					}
					src = pr[0]
					i, _ := slices.BinarySearch(verts, src)
					d = int32(i)
				}
				t, ok := slices.BinarySearch(verts, pr[1])
				if !ok {
					return fmt.Errorf("dsr: shard %d %s edge %d->%d: target is not a boundary vertex of any shard", p, what, pr[0], pr[1])
				}
				pairs = append(pairs, d, int32(t))
			}
			return nil
		}
		if errs[p] = resolve(s.Edges, "summary"); errs[p] == nil {
			errs[p] = resolve(s.Cross, "cross")
		}
		ends[p] = pairs
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Count per-row degrees, lay out the CSR, fill rows (deg doubles as
	// the per-row cursor). Multi-edges and entry==exit self-pairs stay
	// in: the decomposition tolerates them and the DAG build dedupes.
	g := &csr{off: make([]int64, nb+1)}
	deg := make([]int32, nb)
	parallelParts(k, func(p int) {
		for i := 0; i < len(ends[p]); i += 2 {
			deg[ends[p][i]]++
		}
	})
	for i := 0; i < nb; i++ {
		g.off[i+1] = g.off[i] + int64(deg[i])
	}
	if g.off[nb] > math.MaxInt32 {
		return nil, nil, fmt.Errorf("dsr: the summaries carry %d edges, more than the condensation's 32-bit offsets address", g.off[nb])
	}
	g.adj = make([]int32, g.off[nb])
	clear(deg)
	parallelParts(k, func(p int) {
		for i := 0; i < len(ends[p]); i += 2 {
			d := ends[p][i]
			g.adj[g.off[d]+int64(deg[d])] = ends[p][i+1]
			deg[d]++
		}
	})
	return verts, g, nil
}

// condenseReference files components under partition and ordinal
// with one merge walk per partition.
func condenseReference(verts []uint32, sums []wire.Summary, g *csr) *boundaryGraph {
	cond := scc.Condense(g, nil)
	d := cond.Data()
	poff, pred := cond.Reverse()
	bg := &boundaryGraph{nverts: len(verts), compOf: make([][]int32, len(sums)),
		off: d.FOff, succ: d.FEdges, poff: poff, pred: pred}
	for p := range sums {
		tab := make([]int32, len(sums[p].Boundary))
		dense := 0
		for ord, v := range sums[p].Boundary {
			for verts[dense] != v {
				dense++
			}
			tab[ord] = d.Comp[dense]
		}
		bg.compOf[p] = tab
	}
	return bg
}

// sameStitch reports the first part of the stitched graph on which got
// and want differ, or "" when they are byte-identical.
func sameStitch(got, want *boundaryGraph) string {
	switch {
	case got.nverts != want.nverts:
		return fmt.Sprintf("nverts %d, want %d", got.nverts, want.nverts)
	case len(got.compOf) != len(want.compOf):
		return fmt.Sprintf("compOf for %d partitions, want %d", len(got.compOf), len(want.compOf))
	case !slices.Equal(got.off, want.off):
		return "off"
	case !slices.Equal(got.succ, want.succ):
		return "succ"
	case !slices.Equal(got.poff, want.poff):
		return "poff"
	case !slices.Equal(got.pred, want.pred):
		return "pred"
	}
	for p := range got.compOf {
		if !slices.Equal(got.compOf[p], want.compOf[p]) {
			return fmt.Sprintf("compOf[%d]", p)
		}
	}
	return ""
}

// checkStitch stitches one fleet both ways and fails unless the two
// agree: both accept with byte-identical graphs, or both refuse with the
// same text. It returns the refusal, nil if the fleet was accepted.
func checkStitch(t testing.TB, name string, n int, sums []wire.Summary) error {
	t.Helper()
	got, gerr := stitchBoundary(n, sums)
	want, werr := stitchReference(n, sums)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s: stitch error %v, reference error %v", name, gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: stitch refused with %q, reference with %q", name, gerr, werr)
		}
	default:
		if diff := sameStitch(got, want); diff != "" {
			t.Fatalf("%s: %s differs from the reference", name, diff)
		}
	}
	return gerr
}

// fleetOf fabricates a k-shard fleet over the given boundary IDs:
// ids[i] belongs to shard owner(i), each shard lists its own in
// increasing order, and every vertex gets up to deg summary edges to
// its own shard's vertices and up to deg cross edges to anyone's, drawn
// from rng. The IDs must be strictly increasing.
func fleetOf(rng *rand.Rand, k int, ids []uint32, owner func(i int) int, deg int) []wire.Summary {
	sums := make([]wire.Summary, k)
	for i, v := range ids {
		p := owner(i)
		sums[p].Boundary = append(sums[p].Boundary, v)
	}
	for p := range sums {
		s := &sums[p]
		for _, u := range s.Boundary {
			for j := rng.Intn(deg + 1); j > 0; j-- {
				s.Edges = append(s.Edges, [2]uint32{u, s.Boundary[rng.Intn(len(s.Boundary))]})
			}
			for j := rng.Intn(deg + 1); j > 0; j-- {
				s.Cross = append(s.Cross, [2]uint32{u, ids[rng.Intn(len(ids))]})
			}
		}
	}
	return sums
}

// randomFleet is a seeded fleet of 1 to 5 shards, some possibly empty,
// with boundary IDs drawn densely or sparsely from [0, n) and spread by
// a stride from 1 to 2^20, so the index sees buckets of one, of many
// and of none.
func randomFleet(rng *rand.Rand) (int, []wire.Summary) {
	k := 1 + rng.Intn(5)
	span := 1 + rng.Intn(3000)
	stride := []uint32{1, 1, 3, 1000, 1 << 20}[rng.Intn(5)]
	density := []float64{0.02, 0.3, 0.9, 1}[rng.Intn(4)]
	var ids []uint32
	for v := 0; v < span; v++ {
		if rng.Float64() < density {
			ids = append(ids, uint32(v)*stride)
		}
	}
	busy := 1 + rng.Intn(k) // shards busy..k-1 stay empty
	return span*int(stride) + rng.Intn(3), fleetOf(rng, k, ids, func(int) int { return rng.Intn(busy) }, rng.Intn(4))
}

// breakFleet makes one of the five refusals happen somewhere in sums,
// if the fleet has what it needs: a list out of order, a vertex claimed
// by two shards, a vertex out of range, an edge whose source its shard
// does not own, an edge to a vertex no shard declared.
func breakFleet(rng *rand.Rand, n int, sums []wire.Summary) int {
	p := rng.Intn(len(sums))
	s := &sums[p]
	insert := func(edges *[][2]uint32, e [2]uint32) {
		*edges = slices.Insert(*edges, rng.Intn(len(*edges)+1), e)
	}
	var all []uint32
	for q := range sums {
		all = append(all, sums[q].Boundary...)
	}
	slices.Sort(all)
	switch rng.Intn(5) {
	case 0:
		if len(s.Boundary) >= 2 {
			i := 1 + rng.Intn(len(s.Boundary)-1)
			s.Boundary[i] = s.Boundary[i-1] - uint32(rng.Intn(2))
		}
	case 1:
		if q := rng.Intn(len(sums)); q != p && len(sums[q].Boundary) > 0 {
			v := sums[q].Boundary[rng.Intn(len(sums[q].Boundary))]
			if i, found := slices.BinarySearch(s.Boundary, v); !found {
				s.Boundary = slices.Insert(s.Boundary, i, v)
			}
		}
	case 2:
		if len(all) > 0 {
			return int(all[len(all)-1]) - rng.Intn(2)
		}
	case 3:
		if len(s.Boundary) > 0 && len(all) > 0 {
			src := all[rng.Intn(len(all))] + uint32(rng.Intn(2)) // another shard's, or possibly nobody's
			insert(&s.Edges, [2]uint32{src, s.Boundary[0]})
		}
	case 4:
		if len(s.Boundary) > 0 {
			dst := uint32(rng.Intn(n + 2))
			if _, found := slices.BinarySearch(all, dst); !found {
				insert(&s.Cross, [2]uint32{s.Boundary[rng.Intn(len(s.Boundary))], dst})
			}
		}
	}
	return n
}

// TestStitchMatchesReference holds the bucketed stitch to the search
// stitch it replaced, byte for byte — nverts, compOf, off, succ, poff,
// pred — and refusal for refusal, by exact text: on the finish's
// boundary shapes, on seeded random fleets (intact and broken), on the
// benchmark graph's real summaries under both partitioners, and on ID
// layouts that aim at the index's buckets.
func TestStitchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for _, shape := range append(boundaryShapes(rng), seamShapes(8)...) {
		n, sums := summariesOf(shape.nb, shape.edges)
		if err := checkStitch(t, shape.name, n, sums); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
	}

	accepted, refused := 0, 0
	for i := 0; i < 600; i++ {
		n, sums := randomFleet(rng)
		if i%2 == 1 {
			n = breakFleet(rng, n, sums)
		}
		if checkStitch(t, fmt.Sprintf("random fleet %d", i), n, sums) == nil {
			accepted++
		} else {
			refused++
		}
	}
	if accepted < 300 || refused < 150 {
		t.Fatalf("random fleets: %d accepted, %d refused — the generator no longer covers both", accepted, refused)
	}

	g, n := benchGraph()
	for _, strat := range []graph.Partitioner{graph.Hash(), locality.New(locality.Options{Seed: 1})} {
		sums := make([]wire.Summary, 3)
		for p, sh := range loopbackShards(t, g, strat, 3) {
			sums[p] = sh.Summary()
		}
		if err := checkStitch(t, "bench graph/"+strat.Name(), n, sums); err != nil {
			t.Fatal(err)
		}
	}

	const B = 5000
	dense := make([]uint32, B+1) // every ID in [0, B), then the top of the ID space
	for i := range dense {
		dense[i] = uint32(i)
	}
	dense[B] = math.MaxUint32
	var pow2 []uint32 // 0, then every power of two up to 2^31
	pow2 = append(pow2, 0)
	for s := 0; s < 32; s++ {
		pow2 = append(pow2, 1<<s)
	}
	var band []uint32 // shard 0 owns [100000, 104000); the rest scatter around it
	bandOwner := map[uint32]int{}
	for v := uint32(0); v < 300000; v += 1 + uint32(rng.Intn(97)) {
		if v >= 100000 && v < 104000 {
			continue
		}
		band = append(band, v)
		bandOwner[v] = 1 + rng.Intn(2)
	}
	for v := uint32(100000); v < 104000; v++ {
		band = append(band, v)
		bandOwner[v] = 0
	}
	slices.Sort(band)
	for _, c := range []struct {
		name  string
		n     int
		ids   []uint32
		owner func(i int) int
	}{
		{"dense plus top", 1 << 32, dense, func(i int) int { return i % 3 }},
		{"dense plus top, one shard", 1 << 32, dense, func(int) int { return 0 }},
		{"powers of two", 1 << 32, pow2, func(i int) int { return i % 4 }},
		{"contiguous band", 300000, band, func(i int) int { return bandOwner[band[i]] }},
	} {
		k := 0
		for i := range c.ids {
			k = max(k, c.owner(i)+1)
		}
		sums := fleetOf(rng, k, c.ids, c.owner, 3)
		if err := checkStitch(t, c.name, c.n, sums); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The same layout with an unknown target in every bucket's gap
		// and past the top: refused alike.
		for _, dst := range []uint32{c.ids[len(c.ids)-1] - 1, c.ids[len(c.ids)/2] + 1, math.MaxUint32} {
			if _, found := slices.BinarySearch(c.ids, dst); found {
				continue
			}
			broken := slices.Clone(sums)
			broken[0].Cross = append(slices.Clone(broken[0].Cross), [2]uint32{broken[0].Boundary[0], dst})
			if checkStitch(t, c.name+"/unknown target", c.n, broken) == nil {
				t.Fatalf("%s: a cross edge to %d was accepted", c.name, dst)
			}
		}
	}
}

// TestStitchRefusalsMatchReference pins each of the five refusals on a
// small fleet: the stitch refuses it with exactly the reference's text.
func TestStitchRefusalsMatchReference(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		sums []wire.Summary
		want string
	}{
		{"non-increasing list", 10, []wire.Summary{{Boundary: []uint32{2, 4, 4}}, {Boundary: []uint32{1}}}, "not strictly increasing at 2"},
		{"duplicate across shards", 10, []wire.Summary{{Boundary: []uint32{1, 5, 7}}, {Boundary: []uint32{2, 7}}, {Boundary: []uint32{5}}}, "boundary vertex 5 claimed by two shards"},
		{"out of range", 7, []wire.Summary{{Boundary: []uint32{1, 6}}, {Boundary: []uint32{7}}}, "boundary vertex 7 out of range"},
		{"source owned by another shard", 10, []wire.Summary{
			{Boundary: []uint32{1, 3}, Edges: [][2]uint32{{1, 3}, {2, 3}}}, {Boundary: []uint32{2}},
		}, "shard 0 summary edge 2->3: source is not one of its boundary vertices"},
		{"source owned by nobody", 10, []wire.Summary{
			{Boundary: []uint32{1}}, {Boundary: []uint32{2}, Cross: [][2]uint32{{2, 1}, {9, 1}}},
		}, "shard 1 cross edge 9->1: source is not one of its boundary vertices"},
		{"unknown target", 10, []wire.Summary{
			{Boundary: []uint32{1, 3}, Cross: [][2]uint32{{3, 2}}}, {Boundary: []uint32{4}},
		}, "shard 0 cross edge 3->2: target is not a boundary vertex of any shard"},
		{"target in the bucket after the top one", 10, []wire.Summary{
			{Boundary: []uint32{1, 3}}, {Boundary: []uint32{4}, Edges: [][2]uint32{{4, 6}}},
		}, "shard 1 summary edge 4->6: target is not a boundary vertex of any shard"},
		{"target past the top", 1 << 32, []wire.Summary{
			{Boundary: []uint32{1, 3}}, {Boundary: []uint32{4}, Edges: [][2]uint32{{4, math.MaxUint32}}},
		}, "target is not a boundary vertex of any shard"},
	} {
		err := checkStitch(t, c.name, c.n, c.sums)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: stitch = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// fuzzFleet decodes fuzz bytes into a fleet and its vertex count.
// Everything is two bytes, little-endian, and a missing byte reads as
// zero: a header (k = 1 + low two bits, then a shift of up to 16 that
// scales every raw ID), n (raw + 1, scaled), then per shard its boundary
// list — a length below 64, a first raw ID and raw gaps (a gap of 0
// repeats a vertex) — and then per shard its summary and cross edges —
// two counts below 256, then each edge's two ends. An end with the top
// bit set picks a listed vertex by index (a source from its own shard's
// list, a target from all lists in shard order), otherwise it is a raw
// ID, so most edges resolve and the rest probe the refusals.
func fuzzFleet(data []byte) (int, []wire.Summary) {
	next := func() int {
		var b [2]byte
		data = data[copy(b[:], data):]
		return int(b[0]) | int(b[1])<<8
	}
	h := next()
	k, shift := 1+h&3, uint(h>>2)%17
	n := (next() + 1) << shift
	sums := make([]wire.Summary, k)
	var all []uint32
	for p := range sums {
		raw := uint64(0)
		for i := next() % 64; i > 0; i-- {
			raw += uint64(next())
			v := uint32(raw << shift)
			sums[p].Boundary = append(sums[p].Boundary, v)
			all = append(all, v)
		}
	}
	end := func(list []uint32) uint32 {
		e := next()
		if e&0x8000 != 0 && len(list) > 0 {
			return list[(e&0x7fff)%len(list)]
		}
		return uint32(e) << shift
	}
	for p := range sums {
		s := &sums[p]
		ne, nc := next()%256, next()%256
		for i := 0; i < ne+nc; i++ {
			e := [2]uint32{end(s.Boundary), end(all)}
			if i < ne {
				s.Edges = append(s.Edges, e)
			} else {
				s.Cross = append(s.Cross, e)
			}
		}
	}
	return n, sums
}

// fuzzFleetBytes encodes a fleet the way fuzzFleet decodes it: every ID
// a multiple of 1<<shift, boundary lists increasing by gaps that fit in
// two bytes, an edge end that is listed (its own shard's list for a
// source) by index and any other by raw ID.
func fuzzFleetBytes(shift uint, n int, sums []wire.Summary) []byte {
	var out []byte
	put := func(vs ...int) {
		for _, v := range vs {
			out = append(out, byte(v), byte(v>>8))
		}
	}
	put(len(sums)-1|int(shift)<<2, n>>shift-1)
	var all []uint32
	for _, s := range sums {
		put(len(s.Boundary))
		prev := uint32(0)
		for _, v := range s.Boundary {
			put(int((v - prev) >> shift))
			prev = v
		}
		all = append(all, s.Boundary...)
	}
	end := func(list []uint32, v uint32) int {
		if i := slices.Index(list, v); i >= 0 {
			return 0x8000 | i
		}
		return int(v >> shift)
	}
	for _, s := range sums {
		put(len(s.Edges), len(s.Cross))
		for _, e := range slices.Concat(s.Edges, s.Cross) {
			put(end(s.Boundary, e[0]), end(all, e[1]))
		}
	}
	return out
}

// stitchSeed is one committed corpus case (testdata/fuzz/FuzzStitchBoundary),
// by what it is.
type stitchSeed struct {
	name   string
	shift  uint
	n      int
	sums   []wire.Summary
	refuse string // what the refusal says, "" if the fleet is accepted
}

var stitchSeeds = []stitchSeed{
	{"clustered", 0, 65536, []wire.Summary{
		{Boundary: []uint32{10, 11, 12, 13, 60000}, Edges: [][2]uint32{{10, 13}, {13, 60000}}, Cross: [][2]uint32{{12, 14}}},
		{Boundary: []uint32{14, 15, 16, 65000}, Cross: [][2]uint32{{14, 10}, {65000, 11}, {65000, 60000}}},
	}, ""},
	{"empty-shard", 4, 4096, []wire.Summary{
		{Boundary: []uint32{16, 48}, Edges: [][2]uint32{{16, 48}}, Cross: [][2]uint32{{48, 32}}},
		{},
		{Boundary: []uint32{32, 4080}, Cross: [][2]uint32{{4080, 16}}},
	}, ""},
	{"duplicate-across-shards", 0, 100, []wire.Summary{
		{Boundary: []uint32{3, 7, 9}}, {Boundary: []uint32{4, 7}},
	}, "boundary vertex 7 claimed by two shards"},
	{"source-owned-by-another-shard", 0, 100, []wire.Summary{
		{Boundary: []uint32{3, 9}, Edges: [][2]uint32{{3, 9}, {4, 9}}}, {Boundary: []uint32{4, 8}},
	}, "shard 0 summary edge 4->9: source is not one of its boundary vertices"},
}

// TestStitchFuzzSeeds checks fuzzFleetBytes and fuzzFleet agree and the
// committed seeds are what they claim: each decodes to its fleet and is
// accepted or refused as named.
func TestStitchFuzzSeeds(t *testing.T) {
	for _, c := range stitchSeeds {
		n, sums := fuzzFleet(fuzzFleetBytes(c.shift, c.n, c.sums))
		if n != c.n || len(sums) != len(c.sums) {
			t.Fatalf("%s: decoded n %d over %d shards, want %d over %d", c.name, n, len(sums), c.n, len(c.sums))
		}
		for p := range sums {
			got, want := sums[p], c.sums[p]
			if !slices.Equal(got.Boundary, want.Boundary) || !slices.Equal(got.Edges, want.Edges) || !slices.Equal(got.Cross, want.Cross) {
				t.Fatalf("%s: shard %d decoded as %+v, want %+v", c.name, p, got, want)
			}
		}
		err := checkStitch(t, c.name, n, sums)
		if c.refuse == "" && err != nil || c.refuse != "" && (err == nil || !strings.Contains(err.Error(), c.refuse)) {
			t.Fatalf("%s: stitch = %v, want refusal %q", c.name, err, c.refuse)
		}
	}
}

// FuzzStitchBoundary drives the stitch and its reference with whatever
// fleet the fuzz bytes decode to: neither may panic, they must accept
// the same fleets with byte-identical graphs, and refuse the rest with
// the same text. The seeds are stitchSeeds, committed under
// testdata/fuzz as well.
func FuzzStitchBoundary(f *testing.F) {
	for _, c := range stitchSeeds {
		f.Add(fuzzFleetBytes(c.shift, c.n, c.sums))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, sums := fuzzFleet(data)
		checkStitch(t, "fuzz", n, sums)
	})
}
