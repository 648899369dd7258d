package sim

import (
	"math"
	"math/rand"
	"testing"

	"lbica/internal/ckpt"
)

// rngOracleSeeds covers the seed-reduction edge cases of math/rand's
// seeding (zero, negative, past 2³¹−1, the int64 extremes) plus seeds of
// the shape runs actually use.
func rngOracleSeeds() []int64 {
	seeds := []int64{0, 1, -1, 1 << 40, math.MinInt64, math.MaxInt64}
	for i := 0; i < 3; i++ {
		seeds = append(seeds, Stream(42, i))
	}
	return seeds
}

// mixedDraw applies one of the rand.Rand methods the RNG wraps, chosen by
// op, and returns its result as bits for comparison.
func mixedDraw(r *rand.Rand, op int) uint64 {
	switch op % 7 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return math.Float64bits(r.Float64())
	case 2:
		return uint64(r.Intn(1000))
	case 3:
		return uint64(r.Int63n(1<<40 + 7))
	case 4:
		return math.Float64bits(r.NormFloat64())
	case 5:
		return math.Float64bits(r.ExpFloat64())
	default:
		var h uint64
		for _, v := range r.Perm(5) {
			h = h*31 + uint64(v)
		}
		return h
	}
}

// The in-package source must be draw-for-draw math/rand's: raw Int63
// outputs, and every wrapped method through rand.Rand, over 10⁵ draws.
// The reference hides Uint64 behind plain rand.Source so both sides run
// the same rand.Rand code paths.
func TestLFSourceMatchesMathRand(t *testing.T) {
	const draws = 100_000
	for _, seed := range rngOracleSeeds() {
		ours, ref := newLFSource(seed), rand.NewSource(seed)
		for i := 0; i < draws; i++ {
			if a, b := ours.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d: raw draw %d = %d, math/rand %d", seed, i, a, b)
			}
		}
		mr := rand.New(newLFSource(seed))
		rr := rand.New(struct{ rand.Source }{rand.NewSource(seed)})
		for i := 0; i < draws; i++ {
			if a, b := mixedDraw(mr, i), mixedDraw(rr, i); a != b {
				t.Fatalf("seed %d: mixed draw %d (op %d) = %#x, math/rand %#x", seed, i, i%7, a, b)
			}
		}
	}
}

// encodeRNG checkpoints one stream on its own.
func encodeRNG(g *RNG) []byte {
	enc := ckpt.NewEncoder()
	g.EncodeState(enc)
	return enc.Data()
}

// decodeRNG restores data onto g, returning the decoder's error.
func decodeRNG(g *RNG, data []byte) error {
	d := ckpt.NewDecoder(data)
	g.DecodeState(d)
	return d.Err()
}

// A stream checkpointed at a random mid-stream position and restored onto
// its Rewound copy continues with the identical draws.
func TestRNGRestoreContinuesStream(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	for _, seed := range rngOracleSeeds() {
		g := NewRNG(seed, "restore")
		skip := pick.Intn(50_000)
		for i := 0; i < skip; i++ {
			mixedDraw(g.r, i)
		}
		back := g.Rewound()
		if err := decodeRNG(back, encodeRNG(g)); err != nil {
			t.Fatalf("seed %d: decode after %d draws: %v", seed, skip, err)
		}
		for i := 0; i < 10_000; i++ {
			if a, b := mixedDraw(g.r, i), mixedDraw(back.r, i); a != b {
				t.Fatalf("seed %d: restored stream diverges %d draws after position %d", seed, i, skip)
			}
		}
	}
}

// Indices no draw sequence can reach fail the decode — never a panic —
// and leave the target stream untouched.
func TestRNGDecodeRejectsCorruptIndices(t *testing.T) {
	g := NewRNG(3, "corrupt")
	for i := 0; i < 1000; i++ {
		g.Float64()
	}
	encodeAt := func(tap, feed int) []byte {
		enc := ckpt.NewEncoder()
		enc.String(g.name)
		enc.I64(g.seed)
		enc.Int(tap)
		enc.Int(feed)
		for _, v := range g.src.vec {
			enc.I64(v)
		}
		return enc.Data()
	}
	cases := []struct {
		name      string
		tap, feed int
	}{
		{"tap negative", -1, lfLag - 1},
		{"tap past register", lfLen, lfLag},
		{"feed negative", 0, -1},
		{"feed past register", 0, lfLen},
		{"huge indices", math.MaxInt, math.MinInt},
		{"wrong lag", 0, lfLag + 1},
		{"swapped", lfLag, 0},
	}
	for _, tc := range cases {
		target, want := g.Rewound(), g.Rewound()
		if err := decodeRNG(target, encodeAt(tc.tap, tc.feed)); err == nil {
			t.Errorf("%s: tap %d feed %d decoded without error", tc.name, tc.tap, tc.feed)
		}
		for i := 0; i < 100; i++ {
			if a, b := target.Float64(), want.Float64(); a != b {
				t.Fatalf("%s: failed decode modified the stream", tc.name)
			}
		}
	}
	// Every reachable index pair decodes.
	for tap := 0; tap < lfLen; tap++ {
		if err := decodeRNG(g.Rewound(), encodeAt(tap, (tap+lfLag)%lfLen)); err != nil {
			t.Fatalf("tap %d: reachable indices rejected: %v", tap, err)
		}
	}
}
