package experiments

import (
	"context"

	"lbica/internal/array"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// Warm-plan outcome kinds: how one member of a warm-shared scheme group
// actually ran (WarmOutcome.Kind).
const (
	// WarmLeader simulated the shared warmup prefix itself and then ran
	// to completion.
	WarmLeader = "leader"
	// WarmForked was restored from the leader's checkpoint at the warmup
	// barrier and ran only the remainder.
	WarmForked = "forked"
	// WarmScratch ran from scratch; WarmOutcome.Reason says why.
	WarmScratch = "scratch"
)

// Scratch fallback reasons (WarmOutcome.Reason; empty for leader/forked
// members).
const (
	// WarmReasonNoLeader: the group has no forkable leader scheme, the
	// warmup is zero or not shorter than the run, or the group is a
	// single spec — nothing to share.
	WarmReasonNoLeader = "no-leader"
	// WarmReasonSIB: SIB diverges from every other scheme at t=0 (WT+WO
	// policy pin plus periodic queue scans that stall the SSD), so there
	// is no common prefix to reuse.
	WarmReasonSIB = "sib"
	// WarmReasonBalancerActed: a WB member can only reuse the leader's
	// prefix while the leader's balancer has not observably acted; it
	// had, so the prefixes diverged.
	WarmReasonBalancerActed = "balancer-acted"
	// WarmReasonMultiVolume: a multi-volume ARRAY-LB member adapts its
	// routing at every interval barrier, so its prefix diverges from the
	// statically routed leader's from the first barrier on.
	WarmReasonMultiVolume = "multi-volume"
	// WarmReasonForkError: the leader's state could not be checkpointed
	// or restored onto the member; it ran from scratch instead.
	WarmReasonForkError = "fork-error"
)

// WarmOutcome records how one member of a warm-shared group ran: its
// Kind (leader, forked, scratch) and, for scratch members, the Reason
// sharing was impossible. RunWarmShared returns one per spec, so sweeps
// can report their warm-plan hit rate instead of falling back silently.
type WarmOutcome struct {
	Kind   string
	Reason string
	// Cache is the run's persistent-store traffic ("" without a store,
	// and for forked members, which restore the leader's payload):
	// WarmCacheHit, WarmCacheStore, or WarmCacheCorrupt. Orthogonal to
	// Kind — both the group leader's shared prefix and a scratch
	// member's private one go through the store.
	Cache string
}

// warmLeaderIndex picks the group's warmup leader, or -1 when the group
// cannot share: sharing needs at least two specs, a warmup strictly
// shorter than the run, and a forkable leader scheme. A plain LBICA
// member is preferred — at one volume ARRAY-LB runs as LBICA relabeled
// and may lead too, but then the relabel stays the special case rather
// than the leader's. A multi-volume ARRAY-LB cannot lead (or share): its
// controller reweights routing at every interval barrier, so its prefix
// diverges from every statically routed scheme's.
func warmLeaderIndex(specs []Spec, warmupIntervals int) int {
	if warmupIntervals <= 0 || len(specs) < 2 {
		return -1
	}
	if ns := specs[0].Normalize(); warmupIntervals >= ns.Intervals {
		return -1
	}
	arrayLB := -1
	for i, s := range specs {
		if s.Scheme == SchemeLBICA {
			return i
		}
		if arrayLB < 0 && s.Scheme == SchemeArrayLB && s.Normalize().Volumes == 1 {
			arrayLB = i
		}
	}
	return arrayLB
}

// CanShareWarmup reports whether a group of specs differing only by
// scheme can share one simulated warmup prefix of warmupIntervals via
// stack forking (see RunWarmShared).
func CanShareWarmup(specs []Spec, warmupIntervals int) bool {
	return warmLeaderIndex(specs, warmupIntervals) >= 0
}

// RunWarmShared executes a group of specs that differ only by scheme,
// simulating their common warmup prefix once: a leader (LBICA — or
// ARRAY-LB, which at one volume is LBICA relabeled) runs to the warmup
// barrier, each other scheme's run is forked from it there — built fresh
// and restored from the leader's checkpoint payload — and every branch
// then runs to completion independently. At Volumes > 1 the leader is
// the full statically routed array — all N volume stacks step to the
// barrier and are checkpointed together, so a sibling restores one
// atomic array-wide snapshot.
// Results are returned in spec order and are byte-identical to running
// each spec from scratch:
//
//   - An LBICA member (or at one volume an ARRAY-LB member) restores the
//     leader's balancer state — identical by construction, since the
//     schemes share the same per-volume balancer and the whole prefix.
//   - A WB member restores with the balancer dropped, valid only while no
//     leader balancer has observably acted (engine.BalancerActed); a
//     balancer that already bypassed or switched policy means the
//     prefixes diverged, and the WB cell falls back to a scratch run.
//   - SIB members, multi-volume ARRAY-LB members (the adaptive
//     controller diverges from static routing at the first barrier),
//     and any fork failure fall back to a scratch run.
//
// When the group cannot share at all (CanShareWarmup false) every member
// runs from scratch, making RunWarmShared a drop-in replacement for
// per-spec RunContext calls. The returned outcomes record, per spec, how
// it ran and why a scratch member could not share.
func RunWarmShared(ctx context.Context, specs []Spec, warmupIntervals int) ([]*engine.Results, []WarmOutcome) {
	return RunWarmSharedCached(ctx, specs, warmupIntervals, nil)
}

// runWarm is the warm plan for one group: the leader stands at the
// warmup barrier — one stack, or at Volumes > 1 the full statically
// routed LBICA array, all N volume stacks wired exactly as RunContext
// wires them — either restored from the checkpoint store or simulated.
// Each sharing sibling is built fresh and restored from the leader's
// payload, so it sees one atomic array-wide snapshot; every member the
// planner must exclude runs a store-backed private prefix
// (runMemberCached).
func runWarm(ctx context.Context, specs []Spec, spec Spec, leaderIdx, warmupIntervals int, store *checkpoint.Store, out []*engine.Results, plan []WarmOutcome) {
	cfg := spec.engineConfig()
	acfg := spec.arrayConfig()
	build := func(scheme string) func(restore bool) []*engine.Stack {
		return func(restore bool) []*engine.Stack {
			cfg := cfg
			if restore {
				cfg = cfg.ForRestore()
			}
			if spec.Volumes <= 1 {
				return []*engine.Stack{engine.New(cfg, NewGenerator(spec), NewBalancerWithThresholds(scheme, spec.Thresholds))}
			}
			vs := spec
			vs.Scheme = scheme
			sts := make([]*engine.Stack, spec.Volumes)
			for v := range sts {
				sts[v] = vs.newVolumeStack(cfg, acfg, v)
			}
			return sts
		}
	}
	// finish runs a member's stacks to completion and collects its
	// results: one stack's directly, a multi-volume array's merged.
	finish := func(sts []*engine.Stack, s Spec) *engine.Results {
		if len(sts) == 1 {
			sts[0].Drain()
			res := sts[0].Collect()
			res.Workload = s.Workload
			if s.Scheme == SchemeArrayLB {
				res.Scheme = SchemeArrayLB
			}
			return res
		}
		per := make([]*engine.Results, len(sts))
		for v, st := range sts {
			st.Drain()
			res := st.Collect()
			res.Volume = v
			// Same partial rule as array.Run: a cancellation that still let
			// the volume close every interval changed nothing; volumes
			// stopped short are dropped.
			if ctx.Err() != nil && len(res.Samples) < spec.Intervals {
				continue
			}
			per[v] = res
		}
		merged := array.Merge(per)
		merged.Workload = s.Workload
		return merged
	}

	leaders, payloads, lcache := prepareWarmStacks(ctx, spec, SchemeLBICA, warmupIntervals, store, build(SchemeLBICA))
	acted := false
	for _, st := range leaders {
		acted = acted || st.BalancerActed()
	}

	// The payload is dropped with the last restore, before that sibling
	// runs: it is as large as the cache.
	restores := 0
	for i, s := range specs {
		if _, reason := siblingPlan(s, acted, spec.Volumes); i != leaderIdx && reason == "" {
			restores++
		}
	}
	for i, s := range specs {
		if i == leaderIdx {
			continue
		}
		scheme, reason := siblingPlan(s, acted, spec.Volumes)
		if reason == "" {
			decode := checkpoint.DecodeStack
			if scheme == SchemeWB {
				decode = checkpoint.DecodeStackDropBalancer
			}
			sts, err := restoreStacks(ctx, payloads, build(scheme), decode)
			if restores--; restores == 0 {
				payloads = nil
			}
			if err == nil {
				out[i] = finish(sts, s)
				plan[i] = WarmOutcome{Kind: WarmForked}
				continue
			}
			reason = WarmReasonForkError
		}
		out[i], plan[i] = runMemberCached(ctx, s, warmupIntervals, store, reason)
	}
	out[leaderIdx] = finish(leaders, specs[leaderIdx])
	plan[leaderIdx] = WarmOutcome{Kind: WarmLeader, Cache: lcache}
}

// siblingPlan says how a non-leader group member runs: restored from the
// leader's payload onto a stack built for scheme, or — when reason is
// set — from scratch.
func siblingPlan(s Spec, acted bool, volumes int) (scheme, reason string) {
	switch {
	case s.Scheme == SchemeWB && acted:
		return "", WarmReasonBalancerActed
	case s.Scheme == SchemeWB:
		return SchemeWB, ""
	case s.Scheme == SchemeLBICA, s.Scheme == SchemeArrayLB && volumes <= 1:
		return SchemeLBICA, ""
	case s.Scheme == SchemeArrayLB:
		return "", WarmReasonMultiVolume
	}
	return "", WarmReasonSIB
}
