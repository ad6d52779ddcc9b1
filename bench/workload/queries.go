package workload

import (
	"math"
	"math/rand/v2"
	"time"

	"dsr/internal/graph"
)

// MaxSetSize bounds |S| and |T|; each is uniform in [1, MaxSetSize].
const MaxSetSize = 16

// Query is one set-reachability question. ID is the query's position
// in its stream (Sampler) or its pool index (Pool).
type Query struct {
	ID   int
	S, T []graph.VertexID
}

// Source yields a connection's query stream.
type Source interface {
	Next() Query
}

// Sampler draws queries with uniform set sizes and uniform vertices.
// With n in the hundreds of thousands two draws never coincide in
// practice, so every query misses the result cache.
type Sampler struct {
	r    *rand.Rand
	n    int
	next int
}

// NewSampler returns connection conn's stream over an n-vertex graph.
// Streams of different connections are independent.
func NewSampler(seed uint64, conn, n int) *Sampler {
	return &Sampler{r: rng(seed, streamQueries<<32|uint64(conn)), n: n}
}

// Next returns a fresh query; its slices are the caller's.
func (s *Sampler) Next() Query {
	q := Query{ID: s.next, S: s.set(), T: s.set()}
	s.next++
	return q
}

func (s *Sampler) set() []graph.VertexID {
	vs := make([]graph.VertexID, 1+s.r.IntN(MaxSetSize))
	for i := range vs {
		vs[i] = graph.VertexID(s.r.IntN(s.n))
	}
	return vs
}

// Pool is a fixed set of distinct queries drawn Zipf-skewed: a few are
// asked constantly, most rarely. Sized at a multiple of the serving
// layer's cache, it makes most answers cache hits while still forcing
// evictions.
type Pool struct {
	Queries []Query
}

// NewPool draws size queries over an n-vertex graph.
func NewPool(seed uint64, size, n int) *Pool {
	s := &Sampler{r: rng(seed, streamPool), n: n}
	p := &Pool{Queries: make([]Query, size)}
	for i := range p.Queries {
		p.Queries[i] = s.Next()
	}
	return p
}

// ZipfSource draws from a Pool with exponent s, permuting S and T on
// every draw so the server's key canonicalisation — not byte equality
// of the request line — is what finds the cache entry.
type ZipfSource struct {
	pool *Pool
	r    *rand.Rand
	z    *rand.Zipf
}

// Zipf returns connection conn's skewed stream over the pool.
func (p *Pool) Zipf(seed uint64, conn int, s float64) *ZipfSource {
	r := rng(seed, streamQueries<<32|uint64(conn))
	return &ZipfSource{pool: p, r: r, z: rand.NewZipf(r, s, 1, uint64(len(p.Queries)-1))}
}

// Next returns a pool query with freshly permuted copies of its sets.
func (z *ZipfSource) Next() Query {
	q := z.pool.Queries[z.z.Uint64()]
	return Query{ID: q.ID, S: z.permuted(q.S), T: z.permuted(q.T)}
}

func (z *ZipfSource) permuted(vs []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, j := range z.r.Perm(len(vs)) {
		out[i] = vs[j]
	}
	return out
}

// Step is one constant-rate stretch of an open-loop schedule.
type Step struct {
	Rate float64 // arrivals per second, across all connections
	Len  time.Duration
}

// Arrivals returns connection conn's due times (offsets from the
// schedule's start) for a Poisson process that runs each step in turn,
// at 1/conns of the step's rate — the superposition over connections is
// Poisson at the full rate. ends[i] is the number of arrivals due
// before step i ends.
func Arrivals(seed uint64, conn, conns int, steps []Step) (due []time.Duration, ends []int) {
	r := rng(seed, streamArrivals<<32|uint64(conn))
	var t, stepStart float64 // seconds
	for _, st := range steps {
		stepEnd := stepStart + st.Len.Seconds()
		// An exponential gap drawn at the old rate that crosses into a
		// new step is dropped and redrawn from the step boundary, which
		// memorylessness makes exact.
		t = stepStart
		for {
			t += r.ExpFloat64() / (st.Rate / float64(conns))
			if t >= stepEnd {
				break
			}
			due = append(due, time.Duration(t*float64(time.Second)))
		}
		ends = append(ends, len(due))
		stepStart = stepEnd
	}
	return due, ends
}

// Sampled reports whether query id of connection conn belongs to the
// seeded 1-in-stride verification sample.
func Sampled(seed uint64, conn, id, stride int) bool {
	x := seed ^ uint64(streamSample)<<56 ^ uint64(conn)<<40 ^ uint64(id)
	// splitmix64 finaliser: a fixed hash, so membership needs no state.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(stride) == 0
}

// TrueShare is the fraction of oracle answers that are true — the
// workload is only a load test if both answers occur.
func TrueShare(answers []bool) float64 {
	if len(answers) == 0 {
		return math.NaN()
	}
	t := 0
	for _, a := range answers {
		if a {
			t++
		}
	}
	return float64(t) / float64(len(answers))
}
