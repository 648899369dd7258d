package checkpoint_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
	"lbica/internal/workload"
)

func ckptSpec(wl, scheme string) experiments.Spec {
	return experiments.Spec{Workload: wl, Scheme: scheme, Seed: 7, Intervals: 60}.Normalize()
}

func buildStack(spec experiments.Spec) *engine.Stack {
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	return engine.New(cfg, experiments.NewGenerator(spec), experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
}

func runScratch(spec experiments.Spec) *engine.Results {
	st := buildStack(spec)
	return st.RunContext(context.Background(), spec.Intervals)
}

func mustEqual(t *testing.T, got, want *engine.Results, what string) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want.Samples {
		if i >= len(got.Samples) {
			t.Errorf("%s: got %d samples, want %d", what, len(got.Samples), len(want.Samples))
			return
		}
		if !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
			t.Errorf("%s: first divergent sample %d\ngot:  %+v\nwant: %+v", what, i, got.Samples[i], want.Samples[i])
			return
		}
	}
	t.Errorf("%s: results diverge outside samples\ngot:  %+v\nwant: %+v", what, got, want)
}

// warmPayload steps a fresh stack to the barrier and encodes it.
func warmPayload(t *testing.T, spec experiments.Spec, barrier time.Duration) []byte {
	t.Helper()
	leader := buildStack(spec)
	leader.Start(context.Background(), spec.Intervals)
	leader.StepTo(barrier)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatalf("EncodeStack at %v: %v", barrier, err)
	}
	return payload
}

// TestRestoreEquivalence is the tentpole's pinned contract: a stack
// restored from a checkpoint taken mid-run and drained produces results
// byte-identical to an uninterrupted from-scratch run, for every scheme ×
// paper workload — including a restore of a restore's own re-encoding,
// and a fork taken off a restored stack.
func TestRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, wl := range experiments.Workloads {
		for _, sc := range experiments.Schemes {
			wl, sc := wl, sc
			t.Run(wl+"/"+sc, func(t *testing.T) {
				t.Parallel()
				spec := ckptSpec(wl, sc)
				want := runScratch(spec)

				barrier := time.Duration(spec.Intervals/3) * spec.Interval
				payload := warmPayload(t, spec, barrier)

				// Restore → drain.
				restored := buildStack(spec)
				if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
					t.Fatalf("DecodeStack: %v", err)
				}

				// Re-encoding the restored stack before it runs must be
				// byte-identical to the original checkpoint — the encoder
				// observes no difference between a warmed stack and its
				// restoration.
				re, err := checkpoint.EncodeStack(restored)
				if err != nil {
					t.Fatalf("re-encode restored stack: %v", err)
				}
				if !reflect.DeepEqual(re, payload) {
					t.Errorf("re-encoded checkpoint differs from original (%d vs %d bytes)", len(re), len(payload))
				}

				// Fork off the restored stack before draining it: the warm
				// plan forks members off a cache-hit leader.
				fork, err := restored.Fork(ctx, nil)
				if err != nil {
					t.Fatalf("Fork after restore: %v", err)
				}

				restored.Drain()
				mustEqual(t, restored.Collect(), want, "restored stack")
				fork.Drain()
				mustEqual(t, fork.Collect(), want, "fork off restored stack")
			})
		}
	}
}

// TestRestoreWithInFlightEvictions pins the codec on the eviction request
// graph: the background flusher's SSD evict-read (evictOp) and the HDD
// writeback its completion issues (wbCompleter, the only leg that carries
// one — victim writebacks complete anonymously). The equivalence tests
// above never catch either window: their default-size cache stays under
// the dirty watermark so the flusher never starts. This one forces it —
// a small cold cache, watermarks low enough that tpcc's write fraction
// crosses them immediately — and scans sub-interval checkpoints until
// one holds both kinds in flight.
func TestRestoreWithInFlightEvictions(t *testing.T) {
	ctx := context.Background()
	spec := experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeWB,
		Seed: 7, Intervals: 4, RateFactor: 4}.Normalize()
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	cfg.Cache.Sets = 32
	cfg.Cache.DirtyHighWatermark = 0.02
	cfg.Cache.DirtyLowWatermark = 0.01
	cfg.PrewarmBlocks = 0
	// Bare-drive writebacks (no controller write cache): the HDD leg
	// takes spindle latency, stretching the wbCompleter window from the
	// default 150µs ack to a catchable millisecond scale.
	cfg.HDD.WriteCacheDepth = 0
	build := func() *engine.Stack {
		return engine.New(cfg, experiments.NewGenerator(spec),
			experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
	}
	want := build().RunContext(ctx, spec.Intervals)

	// StepTo accepts any event boundary, not just barriers: sub-interval
	// steps scan for the (microsecond-scale) window where both eviction
	// legs are in the queues at once.
	var payload []byte
	leader := build()
	leader.Start(ctx, spec.Intervals)
	step := spec.Interval / 500
	for at := step; at < time.Duration(spec.Intervals)*spec.Interval && payload == nil; at += step {
		leader.StepTo(at)
		p, err := checkpoint.EncodeStack(leader)
		if err != nil {
			t.Fatalf("EncodeStack at %v: %v", at, err)
		}
		// Completer kind tags land on the wire verbatim at each first
		// encounter, so the payload itself says what was in flight.
		if bytes.Contains(p, []byte("engine.evictOp")) && bytes.Contains(p, []byte("engine.wbCompleter")) {
			payload = p
		}
	}
	if payload == nil {
		t.Fatal("no step caught an eviction and a writeback in flight; shrink the cache further")
	}

	restored := build()
	if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	restored.Drain()
	mustEqual(t, restored.Collect(), want, "restore with in-flight evictions")
}

// TestRestoreDropBalancerFork pins the warm plan's WB trick on a restored
// leader: while the balancer has not acted, a DropBalancer fork off a
// restored LBICA leader is byte-identical to a from-scratch WB run.
func TestRestoreDropBalancerFork(t *testing.T) {
	ctx := context.Background()
	lbSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeLBICA)
	wbSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeWB)

	barrier := 2 * lbSpec.Interval
	payload := warmPayload(t, lbSpec, barrier)
	restored := buildStack(lbSpec)
	if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	if restored.BalancerActed() {
		t.Skipf("balancer already acted by %v; no shared-warmup window", barrier)
	}
	f, err := restored.Fork(ctx, engine.DropBalancer)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	f.Drain()
	mustEqual(t, f.Collect(), runScratch(wbSpec), "WB fork off restored leader")
	restored.Drain()
	mustEqual(t, restored.Collect(), runScratch(lbSpec), "restored LBICA leader")
}

// The public decoder stays strict even though the balancer section is
// skippable: an LBICA checkpoint restored onto a WB-built or a SIB-built
// stack must fail, not silently drop or reinterpret the balancer state.
func TestDecodeStackRejectsSchemeMismatch(t *testing.T) {
	ctx := context.Background()
	lbSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeLBICA)
	payload := warmPayload(t, lbSpec, 2*lbSpec.Interval)
	for _, scheme := range []string{experiments.SchemeWB, experiments.SchemeSIB} {
		st := buildStack(ckptSpec(experiments.WorkloadTPCC, scheme))
		err := checkpoint.DecodeStack(ctx, st, payload)
		if err == nil || !strings.Contains(err.Error(), "scheme") {
			t.Errorf("LBICA checkpoint onto a %s stack: err %v, want a scheme mismatch", scheme, err)
		}
	}
}

// Dropping the balancer on restore is only possible while it owns no
// pending event: SIB's scan periodic is always armed, so a SIB
// checkpoint cannot become a WB stack.
func TestDecodeStackDropBalancerRefusesPendingPeriodic(t *testing.T) {
	sibSpec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeSIB)
	payload := warmPayload(t, sibSpec, 2*sibSpec.Interval)
	st := buildStack(ckptSpec(experiments.WorkloadTPCC, experiments.SchemeWB))
	err := checkpoint.DecodeStackDropBalancer(context.Background(), st, payload)
	if err == nil || !strings.Contains(err.Error(), "periodic") {
		t.Errorf("SIB checkpoint dropped onto a WB stack: err %v, want a pending-periodic failure", err)
	}
}

// hotCounter wraps a paper workload and counts HotBlocks calls — the
// prewarm's only entry into the generator.
type hotCounter struct {
	*workload.PhaseGen
	calls *int
}

func (h hotCounter) HotBlocks(n int) []int64 {
	*h.calls++
	return h.PhaseGen.HotBlocks(n)
}

func (h hotCounter) Rebuild() workload.Generator {
	return hotCounter{h.PhaseGen.Rebuild().(*workload.PhaseGen), h.calls}
}

// A restore target is built without the prewarm: neither Fork nor a
// DecodeStack onto a Config.ForRestore stack asks the generator for its
// hot set, and both still finish byte-identical to a scratch run.
func TestRestoreSkipsPrewarm(t *testing.T) {
	ctx := context.Background()
	spec := ckptSpec(experiments.WorkloadTPCC, experiments.SchemeLBICA)
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	calls := 0
	build := func(cfg engine.Config) *engine.Stack {
		gen := hotCounter{experiments.NewGenerator(spec).(*workload.PhaseGen), &calls}
		return engine.New(cfg, gen, experiments.NewBalancerWithThresholds(spec.Scheme, spec.Thresholds))
	}
	leader := build(cfg)
	if calls != 1 {
		t.Fatalf("fresh stack asked for the hot set %d times, want 1", calls)
	}
	leader.Start(ctx, spec.Intervals)
	leader.StepTo(3 * spec.Interval)
	payload, err := checkpoint.EncodeStack(leader)
	if err != nil {
		t.Fatal(err)
	}

	calls = 0
	fork, err := leader.Fork(ctx, nil)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	restored := build(cfg.ForRestore())
	if err := checkpoint.DecodeStack(ctx, restored, payload); err != nil {
		t.Fatalf("DecodeStack: %v", err)
	}
	if calls != 0 {
		t.Fatalf("Fork and DecodeStack asked for the hot set %d times, want 0", calls)
	}
	want := runScratch(spec)
	for name, st := range map[string]*engine.Stack{"fork": fork, "restore": restored, "leader": leader} {
		st.Drain()
		mustEqual(t, st.Collect(), want, name)
	}
}
