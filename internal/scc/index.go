package scc

import "math/bits"

// Index is a bitset reachability index over a fixed exit set: exit i
// owns bit i, and every component stores the bitset of exits reachable
// from it (through any path in the condensation, exits in the component
// itself included). Building it is one bottom-up sweep of the DAG —
// O((V+E)·B/64) word-parallel OR work and N·⌈B/64⌉ words of memory for
// N components and B exits — after which the exits an entry reaches
// read straight out of its component's bitset.
//
// No product code builds one: a partition's summary is its shard's own
// boundary-directed sweep (internal/shard), which costs what the
// entries reach rather than components × exits. The index stays as an
// independent oracle for that sweep's summaries and because the
// benchmark harness times BuildIndex (scc.index_ms).
type Index struct {
	cond  *Condensation
	exits []int32 // bit i <-> exits[i]
	words int     // bitset words per component
	bits  []uint64
}

// BuildIndex builds the reachability index of cond over exits. The
// exits slice is retained; callers must not mutate it afterwards.
func BuildIndex(cond *Condensation, exits []int32) *Index {
	words := (len(exits) + 63) / 64
	ix := &Index{
		cond:  cond,
		exits: exits,
		words: words,
		bits:  make([]uint64, cond.N*words),
	}
	for i, x := range exits {
		cc := int(cond.Comp[x])
		ix.bits[cc*words+i/64] |= 1 << uint(i%64)
	}
	// Components are numbered in reverse topological order, so every
	// successor of component cc has a smaller ID and its bitset is
	// already final when cc is processed.
	for cc := 0; cc < cond.N; cc++ {
		dst := ix.bits[cc*words : (cc+1)*words]
		for _, d := range cond.Out(int32(cc)) {
			src := ix.bits[int(d)*words : (int(d)+1)*words]
			for i, w := range src {
				dst[i] |= w
			}
		}
	}
	return ix
}

// NumExits returns the number of indexed exits.
func (ix *Index) NumExits() int { return len(ix.exits) }

// AppendExitsFrom appends to dst every exit reachable from vertex v
// (v itself included if it is an exit) and returns the extended slice.
// Exits appear in bit order, i.e. the order of the exit slice the index
// was built with.
func (ix *Index) AppendExitsFrom(v int32, dst []int32) []int32 {
	b := ix.bits[int(ix.cond.Comp[v])*ix.words:][:ix.words]
	for wi, word := range b {
		for word != 0 {
			dst = append(dst, ix.exits[wi*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return dst
}
