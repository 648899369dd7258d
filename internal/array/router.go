// Package array is the multi-volume layer: one simulation hosting N
// volumes, each a full cache+SSD-queue+disk-subsystem stack with its own
// load-balancer instance, fed by a deterministic router that splits the
// application stream across the volumes. Volumes share no mutable state,
// so the array shards volume-per-core through the bounded runner pool and
// inherits its determinism guarantee: the merged results are byte-
// identical for any worker count, including the serial baseline.
//
// The paper evaluates one SSD-cache/disk stack; an array is the
// production shape — a fleet of such stacks behind a request router, the
// regime where load balancing across a *population* of caches (DistCache,
// NSDI '19) differs qualitatively from balancing one. The router policies
// cover that design space: Uniform spreads requests independently of
// content, Hash pins each block to a volume (the affine layout a
// consistent-hashing frontend produces), and Zipf skews volume popularity
// (the hot-shard regime proximity-aware allocation studies).
//
// # The array-lb controller
//
// RunControlled replaces the static router with a closed-loop
// controller (controller.go): at each monitor-interval boundary it reads
// every volume's measured load, reweights the router from smoothed
// inverse loads (or routes power-of-two-choices under VariantP2C), and
// migrates the hottest clean cache lines off the bottleneck volume,
// pinning their routing at the destination.
//
// Determinism contract: the controller owns the single base workload
// generator and the single adaptiveRouter; both are touched only on the
// controller goroutine. Each round it routes the next interval's
// requests serially into per-volume queues, lets the volumes step to the
// barrier in parallel through the runner pool, then — with every volume
// quiescent — observes loads, reweights, and migrates serially. Because
// everything stochastic or order-sensitive happens on one goroutine at a
// barrier, merged results are byte-identical for every worker count,
// including the serial baseline.
//
// Migrated-line merge semantics: a migration moves a clean line between
// two volumes' caches mid-run. Per-volume stats count MigratedOut at the
// source and MigratedIn at the destination; an arrival that finds the
// block already resident still counts MigratedIn, so across the array
// the two sums always reconcile. Merge is order-independent — the
// merged report carries the summed migration counts, and any
// permutation of per-volume results merges to the identical report.
package array

import (
	"fmt"
	"strings"

	"lbica/internal/sim"
	"lbica/internal/workload"
)

// Policy selects how the router assigns requests to volumes.
type Policy uint8

// Routing policies.
const (
	// Uniform routes each request to a uniformly random volume,
	// independent of its address — the load-spreading frontend.
	Uniform Policy = iota
	// Hash routes by block address: every request for a block always
	// lands on the same volume (consistent-hashing affinity), so a
	// volume's cache only ever sees its own address shard.
	Hash
	// Zipf routes each request to a volume drawn from a Zipf-skewed
	// popularity distribution over volumes (volume 0 hottest): the
	// imbalanced-fleet regime where some volumes run hot while others
	// idle. Skew 0 degenerates to Uniform weights.
	Zipf
)

var policyNames = [...]string{"uniform", "hash", "zipf"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves a routing-policy name ("" = uniform).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "uniform":
		return Uniform, nil
	case "hash":
		return Hash, nil
	case "zipf":
		return Zipf, nil
	default:
		return Uniform, fmt.Errorf("array: unknown routing policy %q (want uniform|hash|zipf)", s)
	}
}

// Router deterministically assigns a request stream to volumes. Every
// volume of an array constructs its own Router from the same (seed, n,
// policy, skew) — the stochastic policies draw one value per request from
// a dedicated "array:router" RNG stream, so sibling routers over copies
// of the same stream make identical decisions in lockstep, while leaving
// every other stream of the run untouched.
type Router struct {
	n      int
	policy Policy
	rng    *sim.RNG
	zipf   *sim.Zipfian // Zipf volume-popularity sampler over rng
}

// NewRouter builds a router over n volumes. skew is the Zipf exponent of
// the volume-popularity distribution (Zipf policy only; 0 = uniform
// weights).
func NewRouter(seed int64, n int, policy Policy, skew float64) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{n: n, policy: policy}
	switch policy {
	case Uniform, Zipf:
		r.rng = sim.NewRNG(seed, "array:router")
	}
	if policy == Zipf {
		r.zipf = sim.NewZipf(r.rng, n, skew)
	}
	return r
}

// Volumes returns the array width.
func (r *Router) Volumes() int { return r.n }

// Route assigns one request to a volume. For the stochastic policies this
// consumes exactly one RNG draw per call, whatever the outcome — the
// lockstep contract sibling routers rely on.
func (r *Router) Route(req workload.Request) int {
	switch r.policy {
	case Hash:
		// Requests are assigned by their starting 4 KiB block — the same
		// granularity the generators build LBAs from, so RouteBlock on a
		// HotBlocks block number and on a request agree.
		return r.RouteBlock(req.Extent.LBA / workload.BlockSectors)
	case Zipf:
		return r.zipf.Next()
	default:
		return r.rng.Intn(r.n)
	}
}

// Clone deep-copies the router mid-stream: the copy's RNG resumes at the
// original's exact draw position, so the clone keeps making the same
// decisions the original would have — the property an array fork needs to
// stay byte-identical to a from-scratch run. The Zipf sampler is
// re-bound to the cloned stream; its rank table is immutable and shared.
func (r *Router) Clone() *Router {
	r2 := *r
	if r.rng != nil {
		r2.rng = r.rng.Clone()
	}
	if r.zipf != nil {
		r2.zipf = r.zipf.WithRNG(r2.rng)
	}
	return &r2
}

// RouteBlock is the Hash policy's pure routing function on a 4 KiB block
// number — exposed so affine prewarm filtering can ask "could this block
// ever be routed here?" without synthesizing a request.
func (r *Router) RouteBlock(block int64) int {
	// SplitMix64-style finalizer: adjacent blocks land on unrelated
	// volumes, so striding workloads still spread.
	x := uint64(block) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(r.n))
}

// VolumeGen wraps a bit-identical copy of the array's base workload
// stream so volume vol sees exactly its routed sub-stream, in arrival
// order. rt must be vol's own Router instance (routers are stateful).
// Under the Hash policy the prewarm set is filtered to blocks that can
// route here, overfetched by the array width so the volume still fills
// its quota.
//
// The returned generator implements workload.CloneableGenerator whenever
// the base stream does: cloning copies the base stream and the router at
// their exact mid-stream positions, so engine.Stack.Fork can deep-copy a
// statically routed volume and the fork replays the identical sub-stream.
func VolumeGen(gen workload.Generator, rt *Router, vol int) workload.Generator {
	return newVolumeGen(gen, rt, vol)
}

// volumeGen is VolumeGen's concrete type: a Filter over the base stream
// whose predicate closes over a private router copy, plus the handles
// (base generator, router, volume index) CloneGenerator needs to rebuild
// the same wiring around cloned state.
type volumeGen struct {
	inner workload.Generator
	rt    *Router
	vol   int
	f     *workload.Filter
}

func newVolumeGen(gen workload.Generator, rt *Router, vol int) *volumeGen {
	f := workload.NewFilter(gen, func(req workload.Request) bool {
		return rt.Route(req) == vol
	})
	if rt.policy == Hash {
		f.WithHotFilter(func(block int64) bool { return rt.RouteBlock(block) == vol }, rt.n)
	}
	return &volumeGen{inner: gen, rt: rt, vol: vol, f: f}
}

// Name implements workload.Generator.
func (g *volumeGen) Name() string { return g.f.Name() }

// Next implements workload.Generator.
func (g *volumeGen) Next() (workload.Request, bool) { return g.f.Next() }

// HotBlocks forwards the filtered prewarm set.
func (g *volumeGen) HotBlocks(n int) []int64 { return g.f.HotBlocks(n) }

// CloneGenerator implements workload.CloneableGenerator when the base
// stream does (nil otherwise, the interface's "cannot fork" signal).
func (g *volumeGen) CloneGenerator() workload.Generator {
	cg, ok := g.inner.(workload.CloneableGenerator)
	if !ok {
		return nil
	}
	inner2 := cg.CloneGenerator()
	if inner2 == nil {
		return nil
	}
	return newVolumeGen(inner2, g.rt.Clone(), g.vol)
}
