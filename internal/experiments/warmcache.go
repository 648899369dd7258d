package experiments

import (
	"context"
	"fmt"
	"time"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// Persistent warm-cache traffic annotations (WarmOutcome.Cache): how one
// run's warmup prefix interacted with an on-disk checkpoint store. They
// are orthogonal to the plan-structure kinds — a leader and a scratch
// member can each hit or store, without changing how the group shared.
const (
	// WarmCacheHit: the warmup prefix was restored from an on-disk
	// checkpoint instead of being simulated.
	WarmCacheHit = "cache-hit"
	// WarmCacheStore: the warmup prefix was simulated and the checkpoint
	// published for future invocations.
	WarmCacheStore = "cache-store"
	// WarmCacheCorrupt: a WarmCacheStore whose store entry existed but
	// was unusable (truncated, checksum mismatch, format skew, or a
	// failed restore): the prefix was simulated and the bad entry
	// overwritten — the sweep degrades, it never fails.
	WarmCacheCorrupt = "cache-corrupt"
)

// warmCacheKey is the canonical content address of a warmup prefix: every
// normalized spec field that shapes the first warmupIntervals intervals,
// plus the checkpoint format version. scheme names the balancer that
// drives the prefix — SchemeLBICA for a group's shared leader prefix (the
// leader always runs the LBICA balancer, even when the nominal leader
// member is a one-volume ARRAY-LB), a scratch member's own scheme for its
// private prefix. Execution-only fields (ShardWorkers, RouteVariant) are
// absent: they never shape simulated state.
//
// Intervals is part of the key even though the prefix stops at the warmup
// barrier: the stack is armed for the full run, so the total tick budget
// is serialized state.
func warmCacheKey(spec Spec, scheme string, warmupIntervals int) string {
	s := spec.Normalize()
	t := s.Thresholds.Normalize()
	return fmt.Sprintf(
		"v%d|wl=%s|scheme=%s|seed=%d|iv=%d|step=%d|rate=%g|cache=%g|burst=%g|vol=%d|rp=%s|rs=%g|th=%g,%g,%g,%g,%d|warm=%d",
		checkpoint.FormatVersion, s.Workload, scheme, s.Seed, s.Intervals, int64(s.Interval),
		s.RateFactor, s.CacheMult, s.BurstMult,
		s.Volumes, s.RoutePolicy, s.RouteSkew,
		t.DominantPair, t.MemberMin, t.PromoteAlone, t.ReadAlone, t.MinQueued,
		warmupIntervals)
}

// prepareWarmStacks produces stacks standing at the warmup barrier and
// their checkpoint payloads, consulting the store first when one is
// given. build must return freshly constructed, not-yet-started stacks
// (one per volume), built without the prewarm when restore is set; the
// hit path restores the loaded payloads onto such stacks, the scratch
// path starts prewarmed ones, steps them to the barrier and encodes
// them. Restore failures of any kind fall back to the scratch path and
// overwrite the entry. The payloads are nil when the stacks cannot be
// checkpointed. The returned annotation is the run's cache traffic
// (WarmOutcome.Cache): WarmCacheHit, WarmCacheStore, WarmCacheCorrupt, or
// "" when the store held nothing usable and the publish failed too (or
// there is no store at all).
func prepareWarmStacks(ctx context.Context, spec Spec, scheme string, warmupIntervals int, store *checkpoint.Store, build func(restore bool) []*engine.Stack) ([]*engine.Stack, [][]byte, string) {
	corrupt := false
	var key string
	if store != nil {
		key = warmCacheKey(spec, scheme, warmupIntervals)
		payloads, err := store.Load(key)
		switch {
		case err != nil:
			corrupt = true
		case payloads != nil:
			if stacks, err := restoreStacks(ctx, payloads, build, checkpoint.DecodeStack); err == nil {
				return stacks, payloads, WarmCacheHit
			}
			corrupt = true
		}
	}

	// Scratch: simulate the prefix, then publish it for the next
	// invocation. A failed encode or write leaves the run untouched —
	// the cache is strictly an accelerator.
	stacks := build(false)
	barrier := time.Duration(warmupIntervals) * spec.Interval
	for _, st := range stacks {
		st.Start(ctx, spec.Intervals)
	}
	for _, st := range stacks {
		st.StepTo(barrier)
	}
	payloads := make([][]byte, len(stacks))
	for v, st := range stacks {
		p, err := checkpoint.EncodeStack(st)
		if err != nil {
			return stacks, nil, ""
		}
		payloads[v] = p
	}
	if store != nil && store.Save(key, payloads) == nil {
		if corrupt {
			return stacks, payloads, WarmCacheCorrupt
		}
		return stacks, payloads, WarmCacheStore
	}
	return stacks, payloads, ""
}

// restoreStacks builds fresh, unprewarmed stacks and restores one payload
// onto each through decode — the one restore path shared by store hits
// and by siblings copied off a group leader.
func restoreStacks(ctx context.Context, payloads [][]byte, build func(restore bool) []*engine.Stack, decode func(context.Context, *engine.Stack, []byte) error) ([]*engine.Stack, error) {
	if payloads == nil {
		return nil, fmt.Errorf("experiments: no checkpoint to restore")
	}
	stacks := build(true)
	if len(payloads) != len(stacks) {
		return nil, fmt.Errorf("experiments: %d checkpoint payloads for %d stacks", len(payloads), len(stacks))
	}
	for v, st := range stacks {
		if err := decode(ctx, st, payloads[v]); err != nil {
			return nil, err
		}
	}
	return stacks, nil
}

// runMemberCached runs one scratch member — a run that cannot reuse its
// group leader's prefix — backed by the same persistent store: the
// member's own warmup prefix, under its own scheme, is restored when a
// checkpoint exists and simulated-then-published when not. Sharing
// within an invocation needs cross-scheme prefix equality, but sharing
// across invocations only needs same-spec determinism, so even the
// schemes the fork planner must exclude (an acted balancer, SIB's
// scans, a group with no forkable leader) amortize their prefixes over
// repeated sweeps. Falls back to plain RunContext — outcome unchanged —
// when there is no store, the warmup is not strictly inside the run, or
// the member is multi-volume (the adaptive controller's wiring has no
// checkpoint codec, and static arrays fork from the leader instead).
func runMemberCached(ctx context.Context, s Spec, warmupIntervals int, store *checkpoint.Store, reason string) (*engine.Results, WarmOutcome) {
	o := WarmOutcome{Kind: WarmScratch, Reason: reason}
	ns := s.Normalize()
	if store == nil || ns.Volumes > 1 || warmupIntervals <= 0 || warmupIntervals >= ns.Intervals {
		return RunContext(ctx, s), o
	}
	cfg := ns.engineConfig()
	stacks, _, cache := prepareWarmStacks(ctx, ns, ns.Scheme, warmupIntervals, store, func(restore bool) []*engine.Stack {
		cfg := cfg
		if restore {
			cfg = cfg.ForRestore()
		}
		return []*engine.Stack{engine.New(cfg, NewGenerator(ns), NewBalancerWithThresholds(ns.Scheme, ns.Thresholds))}
	})
	o.Cache = cache
	st := stacks[0]
	st.Drain()
	res := st.Collect()
	res.Workload = ns.Workload
	if ns.Scheme == SchemeArrayLB {
		res.Scheme = SchemeArrayLB
	}
	return res, o
}

// RunWarmSharedCached is RunWarmShared backed by a persistent checkpoint
// store: before simulating a warmup prefix — the group leader's shared
// one, or a scratch member's private one — the run checks the store for
// a checkpoint of that exact prefix (keyed by the normalized spec,
// driving scheme and warmup length) and restores it instead; after
// simulating a prefix no cache held, it writes the checkpoint through
// for future invocations. Results remain byte-identical to scratch runs
// — the restore property is pinned by the checkpoint package's
// equivalence tests — and a store entry that is missing, corrupt,
// truncated, or version-skewed silently degrades to simulation
// (surfaced in the member's WarmOutcome.Cache, never as an error). A
// nil store is exactly RunWarmShared.
func RunWarmSharedCached(ctx context.Context, specs []Spec, warmupIntervals int, store *checkpoint.Store) ([]*engine.Results, []WarmOutcome) {
	out := make([]*engine.Results, len(specs))
	plan := make([]WarmOutcome, len(specs))
	leaderIdx := warmLeaderIndex(specs, warmupIntervals)
	if leaderIdx < 0 {
		for i, s := range specs {
			out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, WarmReasonNoLeader)
		}
		return out, plan
	}
	runWarm(ctx, specs, specs[leaderIdx].Normalize(), leaderIdx, warmupIntervals, store, out, plan)
	return out, plan
}
