package array

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/core"
	"lbica/internal/engine"
	"lbica/internal/sim"
	"lbica/internal/workload"
)

// testBuild returns a BuildFunc assembling small tpcc/LBICA volumes for an
// n-volume array under the given routing config.
func testBuild(cfg Config, seed int64, intervals int) BuildFunc {
	return func(vol int) (*engine.Stack, error) {
		ec := engine.DefaultConfig()
		ec.Seed = sim.Stream(seed, vol)
		ec.Volume = vol
		ec.Cache.Sets = 256 // small cache keeps the test fast
		ec.PrewarmBlocks = ec.Cache.Sets * ec.Cache.Ways
		gen := workload.TPCC(
			workload.Scale{Intervals: intervals},
			sim.NewRNG(seed, "workload:tpcc"))
		vg := VolumeGen(gen, cfg.NewRouter(seed), vol)
		return engine.New(ec, vg, core.New(core.DefaultConfig())), nil
	}
}

func runArray(t *testing.T, cfg Config, seed int64, intervals int) *Results {
	t.Helper()
	res, err := Run(context.Background(), cfg, intervals, testBuild(cfg, seed, intervals))
	if err != nil {
		t.Fatalf("array.Run: %v", err)
	}
	return res
}

// The headline determinism guarantee: a sharded parallel array run is
// byte-identical to the Workers=1 serial baseline, volume by volume and
// in the merged reduction.
func TestRunParallelMatchesSerial(t *testing.T) {
	const intervals = 8
	serial := runArray(t, Config{Volumes: 3, Workers: 1}, 7, intervals)
	parallel := runArray(t, Config{Volumes: 3, Workers: 3}, 7, intervals)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel array run differs from the serial baseline")
	}
	if len(serial.Merged.Samples) != intervals {
		t.Fatalf("merged run has %d samples, want %d", len(serial.Merged.Samples), intervals)
	}
}

// Every request of the base stream lands on exactly one volume: summed
// per-volume submissions equal a straight single-stack run's submissions.
func TestVolumesPartitionTheStream(t *testing.T) {
	for _, cfg := range []Config{
		{Volumes: 3, Policy: Uniform},
		{Volumes: 3, Policy: Hash},
		{Volumes: 3, Policy: Zipf, Skew: 1.2},
	} {
		res := runArray(t, Config{Volumes: cfg.Volumes, Policy: cfg.Policy, Skew: cfg.Skew, Workers: 1}, 5, 6)
		base := workload.TPCC(workload.Scale{Intervals: 6}, sim.NewRNG(5, "workload:tpcc"))
		total := uint64(0)
		for {
			if _, ok := base.Next(); !ok {
				break
			}
			total++
		}
		var got uint64
		for v, r := range res.PerVolume {
			if r == nil {
				t.Fatalf("%v: volume %d missing", cfg.Policy, v)
			}
			got += r.AppSubmitted
		}
		// The simulation may leave requests emitted beyond the last interval
		// unsubmitted only if the generator schedule outlives the run; tpcc's
		// schedule matches Intervals, so every request is submitted.
		if got != total {
			t.Errorf("%v: volumes submitted %d requests, base stream has %d", cfg.Policy, got, total)
		}
	}
}

// Hash routing is affine: re-running must route every block to the same
// volume, and distinct volumes see disjoint block sets (checked via the
// pure RouteBlock function).
func TestHashRoutingAffine(t *testing.T) {
	r := NewRouter(1, 4, Hash, 0)
	counts := make([]int, 4)
	for b := int64(0); b < 4096; b++ {
		v := r.RouteBlock(b)
		if v2 := r.RouteBlock(b); v2 != v {
			t.Fatalf("block %d routed to %d then %d", b, v, v2)
		}
		counts[v]++
	}
	for v, n := range counts {
		if n < 4096/4/2 || n > 4096/4*2 {
			t.Errorf("hash volume %d got %d of 4096 blocks — badly skewed", v, n)
		}
	}
}

// Zipf routing must skew volume popularity monotonically: volume 0
// hottest, and a higher skew concentrates more load there. Uniform must
// spread evenly.
func TestRoutingDistributions(t *testing.T) {
	draw := func(policy Policy, skew float64) []int {
		rt := NewRouter(3, 4, policy, skew)
		counts := make([]int, 4)
		for i := 0; i < 20000; i++ {
			counts[rt.Route(workload.Request{})]++
		}
		return counts
	}
	uni := draw(Uniform, 0)
	for v, n := range uni {
		if n < 4000 || n > 6000 {
			t.Errorf("uniform volume %d got %d of 20000", v, n)
		}
	}
	z := draw(Zipf, 1.2)
	if !(z[0] > z[1] && z[1] > z[2] && z[2] > z[3]) {
		t.Errorf("zipf(1.2) counts not monotone: %v", z)
	}
	hot := draw(Zipf, 4)
	if hot[0] <= z[0] {
		t.Errorf("zipf(4) volume 0 share %d not above zipf(1.2) share %d", hot[0], z[0])
	}
	// Zipf with skew 0 spreads uniformly.
	z0 := draw(Zipf, 0)
	for v, n := range z0 {
		if n < 4000 || n > 6000 {
			t.Errorf("zipf(0) volume %d got %d of 20000", v, n)
		}
	}
}

// Sibling routers over stream copies stay in lockstep: the same request
// sequence yields the same routing sequence on every instance.
func TestRoutersLockstep(t *testing.T) {
	for _, p := range []Policy{Uniform, Zipf} {
		skew := 0.0
		if p == Zipf {
			skew = 1.1
		}
		a := NewRouter(11, 5, p, skew)
		b := NewRouter(11, 5, p, skew)
		for i := 0; i < 1000; i++ {
			req := workload.Request{Extent: block.Extent{LBA: int64(i) * workload.BlockSectors, Sectors: 8}}
			if va, vb := a.Route(req), b.Route(req); va != vb {
				t.Fatalf("%v: request %d routed to %d vs %d", p, i, va, vb)
			}
		}
	}
}

// A 1-volume router still consumes one draw per Route under the
// stochastic policies, so its stream use does not depend on the width.
func TestSingleVolumeRouterDrawsOnce(t *testing.T) {
	for _, p := range []Policy{Uniform, Zipf} {
		rt := NewRouter(5, 1, p, 0)
		ref := sim.NewRNG(5, "array:router")
		for i := 0; i < 100; i++ {
			if v := rt.Route(workload.Request{}); v != 0 {
				t.Fatalf("%v: 1-volume router returned volume %d", p, v)
			}
			ref.Float64()
		}
		if got, want := rt.rng.Int63n(1<<40), ref.Int63n(1<<40); got != want {
			t.Errorf("%v: router stream is off the one-draw-per-Route position", p)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": Uniform, "uniform": Uniform, " Hash ": Hash, "zipf": Zipf, "ZIPF": Zipf,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("round-robin"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Volumes: 0},
		{Volumes: -1},
		{Volumes: MaxVolumes + 1},
		{Volumes: 2, Skew: -1},
		{Volumes: 2, Skew: MaxSkew + 1},
		{Volumes: 2, Policy: Zipf, Skew: math.NaN()},
		{Volumes: 2, Policy: Uniform, Skew: 1},
		{Volumes: 2, Policy: Hash, Skew: 0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", bad)
		}
	}
	for _, good := range []Config{
		{Volumes: 1},
		{Volumes: MaxVolumes},
		{Volumes: 2, Policy: Zipf, Skew: 1.5},
		{Volumes: 2, Policy: Hash},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", good, err)
		}
	}
}

// The merge reducer is permutation-invariant: any ordering of the same
// per-volume results merges to identical bytes.
func TestMergePermutationInvariant(t *testing.T) {
	res := runArray(t, Config{Volumes: 4, Workers: 1}, 3, 6)
	want := Merge(res.PerVolume)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		perm := append([]*engine.Results(nil), res.PerVolume...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := Merge(perm)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted merge differs", trial)
		}
	}
	// Nil slots (dropped volumes) are skipped, not fatal.
	partial := append([]*engine.Results(nil), res.PerVolume...)
	partial[2] = nil
	m := Merge(partial)
	if m.AppCompleted >= want.AppCompleted {
		t.Error("dropping a volume did not reduce merged completions")
	}
	// Empty input merges to a usable empty result.
	empty := Merge(nil)
	if empty == nil || empty.AppLatency == nil || len(empty.Samples) != 0 {
		t.Fatalf("Merge(nil) = %+v", empty)
	}
}

// Merged aggregates must reconcile with their per-volume inputs: counters
// sum, loads are per-interval maxima, latencies are completion-weighted.
func TestMergeSemantics(t *testing.T) {
	res := runArray(t, Config{Volumes: 3, Workers: 1}, 9, 6)
	m := res.Merged

	var wantReqs uint64
	for _, r := range res.PerVolume {
		wantReqs += r.AppCompleted
	}
	if m.AppCompleted != wantReqs {
		t.Errorf("merged AppCompleted %d, want %d", m.AppCompleted, wantReqs)
	}
	if got := m.AppLatency.Count(); got != wantReqs {
		t.Errorf("merged histogram count %d, want %d", got, wantReqs)
	}
	for i, s := range m.Samples {
		var maxLoad time.Duration
		var completed uint64
		for _, r := range res.PerVolume {
			if s2 := r.Samples[i]; true {
				if s2.CacheLoad > maxLoad {
					maxLoad = s2.CacheLoad
				}
				completed += s2.AppCompleted
			}
		}
		if s.CacheLoad != maxLoad {
			t.Fatalf("interval %d: merged CacheLoad %v, want per-volume max %v", i, s.CacheLoad, maxLoad)
		}
		if s.AppCompleted != completed {
			t.Fatalf("interval %d: merged AppCompleted %d, want %d", i, s.AppCompleted, completed)
		}
	}
	// Timeline groups carry their volume address.
	for _, pc := range m.Timeline {
		if len(pc.Group) < 2 || pc.Group[0] != 'v' {
			t.Fatalf("merged timeline group %q lacks a volume prefix", pc.Group)
		}
	}
	for i := 1; i < len(m.Timeline); i++ {
		if m.Timeline[i].At < m.Timeline[i-1].At {
			t.Fatal("merged timeline not time-ordered")
		}
	}
}

// A cancelled array run reports an error and only whole volumes.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Volumes: 3, Workers: 1}
	res, err := Run(ctx, cfg, 4, testBuild(cfg, 1, 4))
	if err == nil {
		t.Fatal("cancelled Run returned nil error")
	}
	for v, r := range res.PerVolume {
		if r != nil {
			t.Errorf("volume %d present despite pre-cancelled context", v)
		}
	}
	if res.Merged == nil || len(res.Merged.Samples) != 0 {
		t.Error("merged result of an empty array should be empty, not nil")
	}
}

// A failing build surfaces as an error naming the volume.
func TestRunBuildError(t *testing.T) {
	cfg := Config{Volumes: 2, Workers: 1}
	_, err := Run(context.Background(), cfg, 2, func(vol int) (*engine.Stack, error) {
		if vol == 1 {
			return nil, fmt.Errorf("boom")
		}
		return testBuild(cfg, 1, 2)(vol)
	})
	if err == nil {
		t.Fatal("build error did not surface")
	}
}

func TestInvalidConfigRejectedByRun(t *testing.T) {
	if _, err := Run(context.Background(), Config{Volumes: 0}, 1, nil); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}
