package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"lbica/internal/checkpoint"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func leaderOf(t *testing.T, specs []Spec, warmup int) int {
	t.Helper()
	idx := warmLeaderIndex(specs, warmup)
	if idx < 0 {
		t.Fatal("group unexpectedly unshareable")
	}
	return idx
}

// TestRunWarmSharedCachedRoundTrip is the tentpole's persistence
// contract: the first invocation over an empty store simulates each
// warmup prefix and publishes it (Cache annotation cache-store), the
// second restores it (cache-hit), and both invocations — single-volume
// and multi-volume — return results byte-identical to the uncached
// planner, which is itself pinned byte-identical to scratch runs. At one
// volume the scratch members (here SIB, whose prefix can never fork from
// the leader's) go through the store with their own private prefixes; at
// more than one the scratch members are multi-volume runs the cache does
// not cover, so their annotation stays empty.
func TestRunWarmSharedCachedRoundTrip(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	for _, volumes := range []int{1, 2} {
		skew := 0.0
		if volumes > 1 {
			skew = 1.2
		}
		specs := warmGroup("tpcc", volumes, skew, intervals)
		leaderIdx := leaderOf(t, specs, warmup)
		want, _ := RunWarmShared(ctx, specs, warmup)
		store := openStore(t)

		first, plan1 := RunWarmSharedCached(ctx, specs, warmup, store)
		if got := plan1[leaderIdx]; got != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheStore}) {
			t.Errorf("%d volumes, first run leader outcome %+v, want leader/cache-store", volumes, got)
		}
		second, plan2 := RunWarmSharedCached(ctx, specs, warmup, store)
		if got := plan2[leaderIdx]; got != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheHit}) {
			t.Errorf("%d volumes, second run leader outcome %+v, want leader/cache-hit", volumes, got)
		}
		for i, s := range specs {
			mustEqual(t, first[i], want[i], s.Scheme+" (store pass)")
			mustEqual(t, second[i], want[i], s.Scheme+" (hit pass)")
			if s.Scheme != SchemeSIB {
				continue
			}
			wantCache := ""
			if volumes == 1 {
				wantCache = WarmCacheStore
			}
			if got := plan1[i]; got != (WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB, Cache: wantCache}) {
				t.Errorf("%d volumes, first run SIB outcome %+v", volumes, got)
			}
			if volumes == 1 {
				wantCache = WarmCacheHit
			}
			if got := plan2[i]; got != (WarmOutcome{Kind: WarmScratch, Reason: WarmReasonSIB, Cache: wantCache}) {
				t.Errorf("%d volumes, second run SIB outcome %+v", volumes, got)
			}
		}
	}
}

// A corrupt store entry must degrade to simulation — Cache annotation
// cache-corrupt, results untouched — and the rewritten entry must serve
// the next invocation as a clean hit.
func TestRunWarmSharedCachedCorruptFallback(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	specs := warmGroup("tpcc", 1, 0, intervals)
	leaderIdx := leaderOf(t, specs, warmup)
	want, _ := RunWarmShared(ctx, specs, warmup)
	store := openStore(t)

	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx].Cache != WarmCacheStore {
		t.Fatalf("seed run leader outcome %+v", plan[leaderIdx])
	}
	key := warmCacheKey(specs[leaderIdx].Normalize(), SchemeLBICA, warmup)
	path := store.Path(key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
	if wantOut := (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheCorrupt}); plan[leaderIdx] != wantOut {
		t.Errorf("corrupt-entry leader outcome %+v, want %+v", plan[leaderIdx], wantOut)
	}
	for i, s := range specs {
		mustEqual(t, got[i], want[i], s.Scheme+" (corrupt fallback)")
	}

	// The fallback overwrote the bad entry: next invocation hits clean.
	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx] != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheHit}) {
		t.Errorf("post-overwrite leader outcome %+v, want leader/cache-hit", plan[leaderIdx])
	}
}

// A truncated payload inside a structurally valid container (checksum
// recomputed) must be rejected by the stack decoder and degrade the same
// way.
func TestRunWarmSharedCachedDecodeFailureFallback(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	specs := warmGroup("tpcc", 1, 0, intervals)
	leaderIdx := leaderOf(t, specs, warmup)
	store := openStore(t)

	if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx].Cache != WarmCacheStore {
		t.Fatalf("seed run leader outcome %+v", plan[leaderIdx])
	}
	key := warmCacheKey(specs[leaderIdx].Normalize(), SchemeLBICA, warmup)
	_, payloads, err := checkpoint.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry with the payload cut in half: the container is
	// self-consistent, so only DecodeStack can notice.
	short := payloads[0][:len(payloads[0])/2]
	if err := checkpoint.WriteFile(store.Path(key), key, [][]byte{short}); err != nil {
		t.Fatal(err)
	}

	want, _ := RunWarmShared(ctx, specs, warmup)
	got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
	if wantOut := (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheCorrupt}); plan[leaderIdx] != wantOut {
		t.Errorf("short-payload leader outcome %+v, want %+v", plan[leaderIdx], wantOut)
	}
	for i, s := range specs {
		mustEqual(t, got[i], want[i], s.Scheme+" (decode fallback)")
	}
}

// The cache key must separate every spec axis that shapes the prefix: a
// store seeded for one spec must miss for a neighbouring one.
func TestWarmCacheKeySeparatesSpecs(t *testing.T) {
	base := Spec{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 11, Intervals: 40}.Normalize()
	vary := []Spec{
		{Workload: "mail", Scheme: SchemeLBICA, Seed: 11, Intervals: 40},
		{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 12, Intervals: 40},
		{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 11, Intervals: 41},
		{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 11, Intervals: 40, RateFactor: 1.5},
		{Workload: "tpcc", Scheme: SchemeLBICA, Seed: 11, Intervals: 40, Volumes: 2},
	}
	baseKey := warmCacheKey(base, SchemeLBICA, 10)
	if k2 := warmCacheKey(base, SchemeLBICA, 11); k2 == baseKey {
		t.Error("warmup length not part of the cache key")
	}
	for _, s := range vary {
		if k := warmCacheKey(s.Normalize(), SchemeLBICA, 10); k == baseKey {
			t.Errorf("spec %+v shares cache key with base", s)
		}
	}
	// The driving scheme keys the prefix: a scratch member's private
	// prefix (its own balancer) must never collide with the shared
	// leader prefix (always the LBICA balancer) for the same spec.
	if k := warmCacheKey(base, SchemeSIB, 10); k == baseKey {
		t.Error("driving scheme not part of the cache key")
	}
	// The nominal member scheme is NOT the discriminator — a one-volume
	// ARRAY-LB leader runs the same LBICA balancer and shares the entry.
	arr := base
	arr.Scheme = SchemeArrayLB
	if k := warmCacheKey(arr, SchemeLBICA, 10); k != baseKey {
		t.Error("spec scheme leaked into the cache key")
	}
}

// Siblings of a cache-hit leader restore from the payload the store
// loaded, not from a live stack: a WB member (balancer dropped on
// restore) and, on a 3-volume statically routed array, every volume of
// the WB and LBICA members must still finish byte-identical to
// from-scratch runs.
func TestRunWarmSharedCachedHitSiblingsMatchScratch(t *testing.T) {
	ctx := context.Background()
	const warmup, intervals = 10, 40
	for _, volumes := range []int{1, 3} {
		skew := 0.0
		if volumes > 1 {
			skew = 1.2
		}
		specs := warmGroup("mail", volumes, skew, intervals)
		leaderIdx := leaderOf(t, specs, warmup)
		store := openStore(t)
		if _, plan := RunWarmSharedCached(ctx, specs, warmup, store); plan[leaderIdx].Cache != WarmCacheStore {
			t.Fatalf("%d volumes: seed run leader outcome %+v", volumes, plan[leaderIdx])
		}
		got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
		if plan[leaderIdx] != (WarmOutcome{Kind: WarmLeader, Cache: WarmCacheHit}) {
			t.Fatalf("%d volumes: leader outcome %+v, want leader/cache-hit", volumes, plan[leaderIdx])
		}
		for i, s := range specs {
			if s.Scheme == SchemeWB && plan[i].Kind != WarmForked {
				t.Errorf("%d volumes: WB outcome %+v, want forked off the loaded payload", volumes, plan[i])
			}
			mustEqual(t, got[i], RunContext(ctx, s), fmt.Sprintf("%d volumes, %s", volumes, s.Scheme))
		}
	}
}

// hotCountCalls counts HotBlocks calls on the hotCountWorkload generator.
var hotCountCalls atomic.Int64

const hotCountWorkload = "test-hotcount-mail"

// hotCounter wraps the mail workload and counts HotBlocks calls — the
// prewarm's only entry into the generator.
type hotCounter struct{ *workload.PhaseGen }

func (h hotCounter) HotBlocks(n int) []int64 {
	hotCountCalls.Add(1)
	return h.PhaseGen.HotBlocks(n)
}

var registerHotCount = sync.OnceValue(func() error {
	mail, err := workload.Default.Resolve(WorkloadMail)
	if err != nil {
		return err
	}
	return workload.Default.Register(hotCountWorkload, func(s workload.Scale, g *sim.RNG) workload.Generator {
		return hotCounter{mail(s, g).(*workload.PhaseGen)}
	})
})

// The warm planner restores store hits and siblings onto stacks built
// without the prewarm, single- and multi-volume: only the stacks that
// simulate a prefix ask the generator for its hot set, one call per
// volume, and every member still matches its scratch run.
func TestWarmRestoresSkipPrewarm(t *testing.T) {
	if err := registerHotCount(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const warmup, intervals = 10, 40
	for _, volumes := range []int{1, 2} {
		var specs []Spec
		for _, s := range warmGroup(hotCountWorkload, volumes, 0, intervals) {
			if volumes == 1 || s.Scheme == SchemeWB || s.Scheme == SchemeLBICA {
				specs = append(specs, s)
			}
		}
		store := openStore(t)
		for pass := 1; pass <= 2; pass++ {
			hotCountCalls.Store(0)
			got, plan := RunWarmSharedCached(ctx, specs, warmup, store)
			calls := hotCountCalls.Load()
			want := int64(0)
			for i, o := range plan {
				if o.Kind != WarmForked && o.Cache != WarmCacheHit {
					want += int64(volumes)
				} else if pass == 1 && o.Kind != WarmForked {
					t.Fatalf("%d volumes: first pass %s outcome %+v restored from an empty store", volumes, specs[i].Scheme, o)
				}
				if pass == 2 && o.Kind != WarmForked && o.Cache != WarmCacheHit {
					t.Errorf("%d volumes: second pass %s outcome %+v, want a fork or a cache hit", volumes, specs[i].Scheme, o)
				}
			}
			if calls != want {
				t.Errorf("%d volumes, pass %d: %d HotBlocks calls, want %d (plan %+v)", volumes, pass, calls, want, plan)
			}
			for i, s := range specs {
				mustEqual(t, got[i], RunContext(ctx, s), fmt.Sprintf("%d volumes, pass %d, %s", volumes, pass, s.Scheme))
			}
		}
	}
}
