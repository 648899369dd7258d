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
	src  *lfSource
	r    *rand.Rand
}

// Register geometry of math/rand's additive lagged-Fibonacci generator.
const (
	lfLen = 607
	lfTap = 273
	// lfLag is feed−tap (mod lfLen), an invariant of every reachable state.
	lfLag = lfLen - lfTap
)

// lfSource is an in-package copy of math/rand's default source: the
// additive lagged-Fibonacci recurrence over a 607-word register with tap
// and feed indices. It produces the same stream as rand.NewSource for
// every seed, draw for draw, and its whole state is the register and the
// two indices — which is what makes an RNG checkpointable in O(state): a
// restore copies them in instead of replaying the draws since the seed.
//
// The source deliberately does NOT implement rand.Source64: rand.Rand then
// routes every method this package uses (Float64, Intn, Int63n,
// NormFloat64, ExpFloat64, Perm) through Int63 alone, exactly as it did
// over math/rand's own source wrapped behind plain rand.Source.
type lfSource struct {
	tap, feed int
	vec       [lfLen]int64
}

// newLFSource returns the source positioned where rand.NewSource(seed)
// starts. math/rand seeds its register from a cooked table this package
// does not carry; instead, the first lfLen outputs of rand.NewSource(seed)
// are the register after one full turn (each draw rewrites the word at
// the feed index, and feed visits every index once per turn), and
// stepping the recurrence back lfLen times from there recovers the
// starting register.
func newLFSource(seed int64) *lfSource {
	ref := rand.NewSource(seed).(rand.Source64)
	s := &lfSource{tap: 0, feed: lfLag}
	for i := 0; i < lfLen; i++ {
		s.step() // advances the indices; the sum is overwritten
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for i := 0; i < lfLen; i++ {
		s.unstep()
	}
	return s
}

// step advances the indices and folds the tap word into the feed word,
// returning the new feed word.
func (s *lfSource) step() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// unstep inverts step: the tap word is untouched by a step, so
// subtracting it restores the feed word.
func (s *lfSource) unstep() {
	s.vec[s.feed] -= s.vec[s.tap]
	s.tap++
	if s.tap == lfLen {
		s.tap = 0
	}
	s.feed++
	if s.feed == lfLen {
		s.feed = 0
	}
}

// Int63 implements rand.Source.
func (s *lfSource) Int63() int64 { return s.step() & (1<<63 - 1) }

// Seed implements rand.Source.
func (s *lfSource) Seed(seed int64) { *s = *newLFSource(seed) }

// NewRNG derives a stream from a run seed and a component name. The same
// (seed, name) pair always yields the same sequence.
func NewRNG(seed int64, name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return newRNG(name, seed^int64(h.Sum64()))
}

// newRNG builds the stream with the given name and derived seed,
// positioned at its first draw.
func newRNG(name string, derived int64) *RNG {
	src := newLFSource(derived)
	return &RNG{name: name, seed: derived, src: src, r: rand.New(src)}
}

// Rewound returns a new, independent stream with this one's name and
// seed, positioned at its first draw — the unstarted copy a rebuilt
// component owns before a checkpoint restores its register.
func (g *RNG) Rewound() *RNG { return newRNG(g.name, g.seed) }

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
