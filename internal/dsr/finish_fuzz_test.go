package dsr

import (
	"math/rand"
	"slices"
	"testing"
)

// fuzzRound decodes fuzz bytes into a boundary graph and one round on
// it. Everything is two bytes, little-endian, and a missing byte reads
// as zero: the vertex count (1..1024, up to sixteen bitmap words), the
// edge count, the edges — each joins two vertices from the smaller to
// the larger, so the graph is a DAG, unless the top bit of the first
// end marks a back edge — then the queries until the bytes run out,
// each a header (three bits of seed count, three of goal count, two of
// kind: open, open, decided, locally hit) and its seeds and goals.
func fuzzRound(data []byte) (boundaryShape, []roundQuery) {
	next := func() int {
		var b [2]byte
		data = data[copy(b[:], data):]
		return int(b[0]) | int(b[1])<<8
	}
	shape := boundaryShape{name: "fuzz", nb: 1 + next()%1024}
	for m := next() % 4096; m > 0; m-- {
		a, b := next(), next()
		lo, hi := int32(min(a&0x7fff%shape.nb, b%shape.nb)), int32(max(a&0x7fff%shape.nb, b%shape.nb))
		if a&0x8000 != 0 {
			lo, hi = hi, lo
		}
		shape.edges = append(shape.edges, [2]int32{lo, hi})
	}
	var round []roundQuery
	for len(data) > 0 {
		h := next()
		q := roundQuery{done: h>>6&3 == 2, ans: h>>8&1 == 1, hit: h>>6&3 == 3}
		for i := h & 7; i > 0; i-- {
			q.seeds = append(q.seeds, int32(next()%shape.nb))
		}
		for i := h >> 3 & 7; i > 0; i-- {
			q.goals = append(q.goals, int32(next()%shape.nb))
		}
		round = append(round, q)
	}
	return shape, round
}

// fuzzBytes encodes a shape and a round the way fuzzRound decodes them.
func fuzzBytes(shape boundaryShape, round []roundQuery) []byte {
	var out []byte
	put := func(vs ...int) {
		for _, v := range vs {
			out = append(out, byte(v), byte(v>>8))
		}
	}
	put(shape.nb-1, len(shape.edges))
	for _, e := range shape.edges {
		if e[0] <= e[1] {
			put(int(e[0]), int(e[1]))
		} else {
			put(int(e[1])|0x8000, int(e[0]))
		}
	}
	for _, q := range round {
		h := len(q.seeds) | len(q.goals)<<3
		switch {
		case q.done && q.ans:
			h |= 2<<6 | 1<<8
		case q.done:
			h |= 2 << 6
		case q.hit:
			h |= 3 << 6
		}
		put(h)
		for _, v := range slices.Concat(q.seeds, q.goals) {
			put(int(v))
		}
	}
	return out
}

// FuzzBoundaryFinish drives the finish — the sweep, and the lookups in
// the graph's label cover — and the per-query BFS with whatever
// boundary graph and round the fuzz bytes decode to: both finishes must
// give the BFS's answer to every query, so each other's too.
func FuzzBoundaryFinish(f *testing.F) {
	// The committed corpus (testdata/fuzz) holds hand-sized cases — no
	// bytes, one edge asked both ways, a cycle, seed component == goal
	// component, a three-word chain, an hourglass across the first word
	// boundary; these seeds are the seam shapes at four bitmap words (small, because the
	// fuzzer minimizes whatever it finds interesting), each with a round
	// of more than one chunk drawn from the shape's own seed and goal
	// vertices.
	rng := rand.New(rand.NewSource(20260929))
	for _, shape := range seamShapes(4) {
		round := make([]roundQuery, finishChunk+2)
		for i := range round {
			for j := rng.Intn(2); j >= 0; j-- {
				round[i].seeds = append(round[i].seeds, shape.seeds[rng.Intn(len(shape.seeds))])
				round[i].goals = append(round[i].goals, shape.goals[rng.Intn(len(shape.goals))])
			}
		}
		f.Add(fuzzBytes(shape, round))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shape, round := fuzzRound(data)
		g, bg := shape.stitched(t)
		checkRound(t, shape.name, g, bg, newFinisher(bg.ncomp()), round)
		checkRound(t, shape.name+"/labels", g, bg, labelFinisher(bg, -1), round)
	})
}

// TestFuzzRoundCodec checks fuzzBytes and fuzzRound agree, so the fuzz
// seeds are the shapes they claim to be.
func TestFuzzRoundCodec(t *testing.T) {
	for _, shape := range seamShapes(4) {
		round := []roundQuery{
			{seeds: shape.seeds[:3], goals: shape.goals[:2]},
			{done: true, ans: true},
			{done: true, goals: shape.goals[:1]},
			{hit: true, seeds: shape.seeds[:1]},
		}
		got, gotRound := fuzzRound(fuzzBytes(shape, round))
		if got.nb != shape.nb || len(got.edges) != len(shape.edges) || len(gotRound) != len(round) {
			t.Fatalf("%s: decoded %d vertices, %d edges, %d queries; want %d, %d, %d",
				shape.name, got.nb, len(got.edges), len(gotRound), shape.nb, len(shape.edges), len(round))
		}
		for i, e := range shape.edges {
			if got.edges[i] != e {
				t.Fatalf("%s: edge %d decoded as %v, want %v", shape.name, i, got.edges[i], e)
			}
		}
		for i, q := range round {
			d := gotRound[i]
			if d.done != q.done || d.ans != q.ans || d.hit != q.hit || !slices.Equal(d.seeds, q.seeds) || !slices.Equal(d.goals, q.goals) {
				t.Fatalf("%s: query %d decoded as %+v, want %+v", shape.name, i, d, q)
			}
		}
	}
}
