package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// searchRank is the reference lookup: a binary search for the first CDF
// entry ≥ u, the last rank when none is.
func searchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkRanks compares the guide-table lookup with the binary search at
// every probe and at both floating-point neighbours of each, reporting at
// most a few mismatches per table.
func checkRanks(t *testing.T, name string, tab *zipfTable, probes []float64) {
	t.Helper()
	bad := 0
	for _, u := range probes {
		for _, v := range []float64{u, math.Nextafter(u, math.Inf(-1)), math.Nextafter(u, math.Inf(1))} {
			if got, want := tab.rank(v), searchRank(tab.cdf, v); got != want && bad < 5 {
				bad++
				t.Errorf("%s u=%v: rank %d, binary search %d", name, v, got, want)
			}
		}
	}
}

// boundaries returns every guide bucket edge k/n of an n-rank table.
func boundaries(n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = float64(k) / float64(n)
	}
	return out
}

// The guide-table lookup must return the binary search's rank for every
// draw, including every CDF value, every guide boundary k/n, and the
// floating-point neighbours of both, where a lookup that stops one step
// early or late would show.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	g := NewRNG(1, "zipf-oracle")
	for _, n := range []int{1, 2, 3, 7, 1000, 16384, 147456} {
		for _, s := range []float64{0.0001, 0.3, 0.85, 1, 1.3, 3} {
			tab := newZipfTable(n, s)
			draws := make([]float64, 100000)
			for i := range draws {
				draws[i] = g.Float64()
			}
			name := fmt.Sprintf("n=%d s=%v", n, s)
			checkRanks(t, name, tab, draws)
			checkRanks(t, name, tab, tab.cdf)
			checkRanks(t, name, tab, boundaries(n))
		}
	}
}

// Zipf CDFs almost never land within an ulp of a bucket edge, so the
// walks that correct for rounding in ⌊u·n⌋ are exercised on synthetic
// CDFs whose values all sit within a few ulps of edges.
func TestZipfRankAtBucketEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 7, 10, 49, 1000} {
		for trial := 0; trial < 200; trial++ {
			cdf := make([]float64, n)
			for i := range cdf {
				c := float64(rng.Intn(n+1)) / float64(n)
				for step := rng.Intn(7) - 3; step != 0; {
					if step > 0 {
						c, step = math.Nextafter(c, 2), step-1
					} else {
						c, step = math.Nextafter(c, -1), step+1
					}
				}
				cdf[i] = c
			}
			sort.Float64s(cdf)
			cdf[n-1] = 1
			tab := tableOver(cdf)
			name := fmt.Sprintf("n=%d trial=%d", n, trial)
			checkRanks(t, name, tab, tab.cdf)
			checkRanks(t, name, tab, boundaries(n))
		}
	}
}

func zipfEntries(k zipfKey) bool {
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	_, ok := zipfTables.m[k]
	return ok
}

func TestZipfTablesShared(t *testing.T) {
	a := NewZipf(NewRNG(1, "a"), 1000, 1.1)
	b := NewZipf(NewRNG(2, "b"), 1000, 1.1)
	if a.t != b.t {
		t.Error("equal (n, s) built two tables")
	}
	if c := NewZipf(NewRNG(1, "a"), 1000, math.Nextafter(1.1, 2)); c.t == a.t {
		t.Error("exponents with different bits share a table")
	}
	if d := NewZipf(NewRNG(1, "a"), 999, 1.1); d.t == a.t {
		t.Error("different n share a table")
	}
	if w := a.WithRNG(NewRNG(3, "c")); w.t != a.t {
		t.Error("WithRNG rebuilt the table")
	}
}

// A table lives only while a sampler holds it: once the last one is
// dropped, a collection runs the cleanup that removes the memo entry.
func TestZipfTableFreedWithLastHolder(t *testing.T) {
	k := zipfKey{n: 4321, s: math.Float64bits(2.5)}
	z := NewZipf(NewRNG(1, "gc"), k.n, 2.5)
	if !zipfEntries(k) {
		t.Fatal("NewZipf left no memo entry")
	}
	runtime.GC()
	if !zipfEntries(k) {
		t.Fatal("memo entry dropped while a sampler still holds the table")
	}
	runtime.KeepAlive(z)
	z = nil
	// Cleanups run on their own goroutine after the collection that
	// finds the table unreachable; poll for that with a deadline.
	for deadline := time.Now().Add(10 * time.Second); zipfEntries(k); {
		if time.Now().After(deadline) {
			t.Fatal("memo entry outlived its table")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if z2 := NewZipf(NewRNG(1, "gc"), k.n, 2.5); z2.Next() < 0 || !zipfEntries(k) {
		t.Fatal("rebuilding a freed table left no memo entry")
	}
}

func TestZipfTablesConcurrent(t *testing.T) {
	const workers = 8
	tabs := make([][3]*zipfTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewRNG(int64(w), "concurrent")
			for i, s := range []float64{0.6, 0.7, 0.8} {
				z := NewZipf(g, 2048, s)
				z.Next()
				tabs[w][i] = z.t
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if tabs[w] != tabs[0] {
			t.Fatalf("worker %d got tables %v, worker 0 got %v", w, tabs[w], tabs[0])
		}
	}
}
