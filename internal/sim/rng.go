package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a named, seeded random stream. Every stochastic component owns its
// own stream so that changing one component's draw count never perturbs
// another's sequence — the property that lets WB, SIB and LBICA runs see an
// identical workload.
type RNG struct {
	name string
	seed int64 // the derived (seed ^ name-hash) source seed
	src  *countingSource
	r    *rand.Rand
}

// countingSource wraps a rand.Source and counts raw Int63 draws, which is
// what makes RNG.Clone possible: a clone reseeds a fresh source and
// fast-forwards it by replaying the recorded draw count. The wrapper
// deliberately does NOT implement rand.Source64 — rand.Rand routes every
// method this package uses (Float64, Intn, Int63n, NormFloat64,
// ExpFloat64, Perm) through src.Int63() alone, and keeping Uint64 off the
// interface guarantees the draw counter sees every consumed value.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.n = 0
	c.src.Seed(seed)
}

// NewRNG derives a stream from a run seed and a component name. The same
// (seed, name) pair always yields the same sequence.
func NewRNG(seed int64, name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	derived := seed ^ int64(h.Sum64())
	src := &countingSource{src: rand.NewSource(derived)}
	return &RNG{name: name, seed: derived, src: src, r: rand.New(src)}
}

// Clone returns an independent RNG positioned at exactly this stream's
// current point: the clone's future draws match the original's draw for
// draw, and advancing either side never perturbs the other. It works by
// reseeding a fresh source with the stream's derived seed and replaying
// the recorded raw draw count, so cloning is O(draws so far) but needs no
// access to math/rand internals.
func (g *RNG) Clone() *RNG {
	src := &countingSource{src: rand.NewSource(g.seed)}
	for i := uint64(0); i < g.src.n; i++ {
		src.src.Int63()
	}
	src.n = g.src.n
	return &RNG{name: g.name, seed: g.seed, src: src, r: rand.New(src)}
}

// Stream splits a base seed into the seed for run runIndex of a batch.
// The result depends only on (seed, runIndex) — never on scheduling
// order — so a parallel sweep that seeds run i with Stream(seed, i)
// produces runs byte-identical to the same sweep executed serially.
//
// The split is a SplitMix64-style finalizer over both inputs, so nearby
// (seed, runIndex) pairs land far apart: Stream(s, 0), Stream(s, 1), …
// share no statistical structure the way s, s+1, … would.
func Stream(seed int64, runIndex int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(runIndex) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Name returns the stream name.
func (g *RNG) Name() string { return g.name }

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform draw in [0,n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Zipf draws one rank from a Zipf-like distribution over [0,n) with
// exponent s, using the shared rank table NewZipf memoises per (n, s).
// Each call still allocates a Zipfian; hot paths should hold one from
// NewZipf.
func (g *RNG) Zipf(n int, s float64) int {
	return NewZipf(g, n, s).Next()
}
