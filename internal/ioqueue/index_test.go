package ioqueue

import (
	"math/rand"
	"testing"
)

// checkIndex asserts that h holds exactly the reference map's entries.
func checkIndex(t *testing.T, h *mergeIndex, ref map[int64]*node, step int) {
	t.Helper()
	if h.count != len(ref) {
		t.Fatalf("step %d: index holds %d entries, reference %d", step, h.count, len(ref))
	}
	seen := 0
	h.each(func(k int64, n *node) {
		seen++
		if ref[k] != n {
			t.Fatalf("step %d: key %d maps to %p, reference %p", step, k, n, ref[k])
		}
	})
	if seen != len(ref) {
		t.Fatalf("step %d: each visited %d entries, reference has %d", step, seen, len(ref))
	}
	for k, n := range ref {
		if got := h.get(k); got != n {
			t.Fatalf("step %d: get(%d) = %p, reference %p", step, k, got, n)
		}
	}
}

// runIndexOps applies random set / get / delete-if-same-node operations
// over keys to both the index and a Go map, comparing after every step.
func runIndexOps(t *testing.T, rng *rand.Rand, h *mergeIndex, keys []int64, steps int) {
	t.Helper()
	ref := make(map[int64]*node)
	pool := make([]*node, 8)
	for i := range pool {
		pool[i] = &node{}
	}
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(3); op {
		case 0:
			n := pool[rng.Intn(len(pool))]
			h.set(k, n)
			ref[k] = n
		case 1:
			if got := h.get(k); got != ref[k] {
				t.Fatalf("step %d: get(%d) = %p, reference %p", step, k, got, ref[k])
			}
		case 2:
			// Half the deletes name the mapped node, half another one,
			// which must leave the entry in place.
			n := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 && ref[k] != nil {
				n = ref[k]
			}
			h.deleteIf(k, n)
			if ref[k] == n {
				delete(ref, k)
			}
		}
		checkIndex(t, h, ref, step)
	}
}

func TestMergeIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sector-like keys: block-aligned, sequential, plus 0 and negatives.
	var keys []int64
	for i := int64(-4); i < 60; i++ {
		keys = append(keys, i*8)
	}
	var h mergeIndex
	runIndexOps(t, rng, &h, keys, 20000)
}

// Keys that all hash to the last slots of a minimum-size table collide
// into one probe run that wraps past the end; deletions out of that run
// must shift the wrapped entries back correctly.
func TestMergeIndexWrappingCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var probe mergeIndex
	probe.grow()
	last := len(probe.keys) - 1
	var keys []int64
	for k := int64(0); len(keys) < 7; k++ {
		if h := probe.home(k); h == last || h == last-1 {
			keys = append(keys, k)
		}
	}
	for trial := 0; trial < 200; trial++ {
		var h mergeIndex
		runIndexOps(t, rng, &h, keys, 200)
	}
}

// Growth keeps every entry through repeated doublings and back down to
// empty, including across deletes between growth steps.
func TestMergeIndexGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h mergeIndex
	ref := make(map[int64]*node)
	var added []int64
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(1 << 20))
		n := &node{}
		h.set(k, n)
		ref[k] = n
		added = append(added, k)
		if i%7 == 0 {
			old := added[i/7]
			h.deleteIf(old, ref[old])
			delete(ref, old)
		}
	}
	checkIndex(t, &h, ref, -1)
	if len(h.keys) < 2*h.count {
		t.Fatalf("load above one half: %d entries in %d slots", h.count, len(h.keys))
	}
	for k, n := range ref {
		h.deleteIf(k, n)
		delete(ref, k)
	}
	checkIndex(t, &h, ref, -2)
}
