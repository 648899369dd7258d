package sim

import (
	"math"
	"runtime"
	"sync"
	"weak"
)

// Zipfian samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Rank 0 is the hottest.
type Zipfian struct {
	g *RNG
	t *zipfTable
}

// zipfTable is the immutable rank table behind every Zipfian over one
// (n, s): the normalised CDF plus a Chen–Asau guide table, where guide[k]
// is the first rank whose CDF value is ≥ k/n. The guide brackets a draw's
// rank within its 1/n-wide bucket, so Next costs O(1) expected probes
// instead of a binary search over the whole CDF. A table costs 12 bytes
// per rank.
type zipfTable struct {
	cdf   []float64
	guide []int32
}

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return tableOver(cdf)
}

// tableOver builds the guide table over a non-decreasing CDF.
func tableOver(cdf []float64) *zipfTable {
	n := len(cdf)
	guide := make([]int32, n)
	i := 0
	for k := range guide {
		bound := float64(k) / float64(n)
		for i < n-1 && cdf[i] < bound {
			i++
		}
		guide[k] = int32(i)
	}
	return &zipfTable{cdf: cdf, guide: guide}
}

// zipfKey names a rank table; s is keyed by its bits so that every
// distinct exponent (including NaN payloads) gets its own table.
type zipfKey struct {
	n int
	s uint64
}

// zipfTables memoises rank tables through weak references: a table lives
// only while some Zipfian holds it, and its cleanup drops the dead entry.
// Building one is a math.Pow per rank, which phase changes and checkpoint
// restores would otherwise repeat for every generator.
var zipfTables = struct {
	mu sync.Mutex
	m  map[zipfKey]weak.Pointer[zipfTable]
}{m: make(map[zipfKey]weak.Pointer[zipfTable])}

func sharedZipfTable(n int, s float64) *zipfTable {
	k := zipfKey{n: n, s: math.Float64bits(s)}
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	if t := zipfTables.m[k].Value(); t != nil {
		return t
	}
	t := newZipfTable(n, s)
	zipfTables.m[k] = weak.Make(t)
	runtime.AddCleanup(t, dropZipfTable, k)
	return t
}

// dropZipfTable removes k's entry once its table is collected, unless a
// newer live table has replaced it in the meantime.
func dropZipfTable(k zipfKey) {
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	if wp, ok := zipfTables.m[k]; ok && wp.Value() == nil {
		delete(zipfTables.m, k)
	}
}

// NewZipf returns a sampler over n ranks with exponent s (s may be any
// positive value; s≈0 degenerates to uniform) drawing from g. Samplers
// with equal (n, s) share one immutable rank table, built on first use
// and freed with the last sampler that holds it. It panics if n <= 0 or
// n exceeds the int32 rank range.
func NewZipf(g *RNG, n int, s float64) *Zipfian {
	if n <= 0 {
		panic("sim: NewZipf with n <= 0")
	}
	if n > math.MaxInt32 {
		panic("sim: NewZipf with n beyond the int32 rank range")
	}
	return &Zipfian{g: g, t: sharedZipfTable(n, s)}
}

// Next draws a rank.
func (z *Zipfian) Next() int { return z.t.rank(z.g.Float64()) }

// rank maps a uniform draw u to the first rank whose CDF value is ≥ u
// (the last rank if rounding leaves every value below u), which is
// exactly what a binary search over the whole CDF returns. The guide
// entries for k = ⌊u·n⌋ and k+1 bracket that rank. Rounding in u·n can
// put u just below k/n, never above (k+1)/n, so only the lower end may
// need widening. The search inside the bracket keeps the worst case
// logarithmic where many tail ranks share one guide bucket.
func (t *zipfTable) rank(u float64) int {
	cdf, last := t.cdf, len(t.cdf)-1
	k := int(u * float64(len(cdf)))
	if k > last {
		k = last
	}
	lo, hi := int(t.guide[k]), last
	if k < last {
		hi = int(t.guide[k+1])
	}
	for lo > 0 && cdf[lo-1] >= u {
		lo--
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
