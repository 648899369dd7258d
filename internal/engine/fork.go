// Stack forking: copy a mid-run stack so several scheme variants can
// share one warm-up prefix. A fork is a checkpoint round trip (ckpt.go)
// held in memory — encode the running stack, build a fresh one of the
// same configuration, restore the state onto it — so it inherits the
// codec's determinism contract: the fork, run to completion, produces
// byte-identical Results to a stack built fresh and run uninterrupted.
package engine

import (
	"context"
	"fmt"

	"lbica/internal/ckpt"
	"lbica/internal/workload"
)

// RebuildableBalancer is a Balancer that can build an unattached
// instance of its own scheme and configuration. Fork attaches that
// instance to the fresh stack and restores the decision state into it
// through the checkpoint codec.
type RebuildableBalancer interface {
	Balancer
	Rebuild() Balancer
}

// DropBalancer is the balFor argument that gives the fork no balancer —
// the WB baseline. Only sound when the original's balancer has not yet
// influenced the run (no policy changes, no bypasses); callers guard
// that, the fork itself cannot tell.
func DropBalancer(*Stack) Balancer { return nil }

// Fork copies the running stack. The copy continues from the original's
// exact state — virtual clock, pending events, queued and in-flight
// requests, cache contents, RNG positions, accumulated statistics — and
// running it to completion yields byte-identical Results to an
// uninterrupted from-scratch run. The copy is built without the prewarm
// (Config.ForRestore) and restored through the checkpoint codec, so a
// fork costs the size of the state, not the length of the prefix.
//
// balFor is nil, keeping the original's scheme (which must be a
// RebuildableBalancer), or DropBalancer, installing none (the WB
// baseline); Fork treats any non-nil balFor as DropBalancer. The
// original stack is not modified and remains runnable; Fork may be
// called repeatedly at different points.
//
// Forking fails (with the original untouched) when the generator cannot
// be rebuilt, any state cannot be checkpointed, or the run is traced — a
// trace recorder is an external sink the copy cannot share without
// interleaving two runs' events.
func (st *Stack) Fork(ctx context.Context, balFor func(*Stack) Balancer) (*Stack, error) {
	rg, ok := st.gen.(workload.Rebuildable)
	if !ok {
		return nil, fmt.Errorf("engine: generator %q cannot be rebuilt", st.gen.Name())
	}
	drop := balFor != nil
	var bal Balancer
	if !drop && st.bal != nil {
		rb, ok := st.bal.(RebuildableBalancer)
		if !ok {
			return nil, fmt.Errorf("engine: balancer %q cannot be rebuilt", st.bal.Name())
		}
		bal = rb.Rebuild()
	}
	enc := ckpt.NewEncoder()
	st.EncodeState(enc)
	if err := enc.Err(); err != nil {
		return nil, err
	}
	gen := rg.Rebuild()
	if gen == nil {
		return nil, fmt.Errorf("engine: generator %q cannot be rebuilt", st.gen.Name())
	}
	f := New(st.cfg.ForRestore(), gen, bal)
	d := ckpt.NewDecoder(enc.Data())
	if drop {
		f.DecodeStateDropBalancer(ctx, d)
	} else {
		f.DecodeState(ctx, d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// BalancerActed reports whether the attached balancer has observably
// influenced the run so far: any policy-timeline entry, balancer-routed
// bypass, shadow cancellation, cache policy switch, or recorded bypass
// counter. While it returns false, the run's state is bit-identical to
// what a balancer-less (WB) run would have produced, so a fork taken
// with DropBalancer is a valid shared-warmup WB baseline; once it
// returns true the schemes have diverged and a WB variant must run from
// scratch. Always false when no balancer is attached.
func (st *Stack) BalancerActed() bool {
	if st.bal == nil {
		return false
	}
	if len(st.timeline) > 0 || st.bypassed > 0 || st.cancelled > 0 {
		return true
	}
	cs := st.cch.Stats()
	return cs.PolicySwitches > 0 || cs.BypassedReads > 0 || cs.BypassedWr > 0
}
