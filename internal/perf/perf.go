// Package perf defines the hot-path benchmark suite behind `lbicabench
// -perf`: the same microbenchmarks the per-package Benchmark* functions
// run, packaged as a programmatic suite with machine-readable results, so
// before/after artifacts (BENCH_hotpath.json) can be regenerated with one
// command instead of scraping `go test -bench` output.
package perf

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/experiments"
	"lbica/internal/ioqueue"
	"lbica/internal/sim"
	"lbica/internal/sweep"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full machine-readable artifact.
type Report struct {
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	GoVersion string   `json:"go_version"`
	Intervals int      `json:"matrix_intervals"` // 0 = paper scale
	Results   []Result `json:"results"`
}

// Bench is one named suite entry.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the hot-path benchmarks. intervals overrides the
// end-to-end matrix scale (0 = paper scale). The Bench* functions are
// exported so the per-package Benchmark* wrappers (`go test -bench`) run
// the exact same bodies as `lbicabench -perf` — one implementation, two
// entry points.
func Suite(intervals int) []Bench {
	return []Bench{
		{"kernel/schedule-fire", BenchKernelScheduleFire},
		{"kernel/schedule-cancel", BenchKernelScheduleCancel},
		{"cache/read-hit", BenchCacheReadHit},
		{"cache/miss-evict", BenchCacheMissEvict},
		{"queue/push-pop", BenchQueuePushPop},
		{"queue/merge", BenchQueueMerge},
		{"workload/zipf-next", BenchZipfNext},
		{"matrix/serial", func(b *testing.B) { BenchMatrixSerial(b, intervals) }},
		{"shard/volumes4-serial", func(b *testing.B) { BenchShard(b, intervals, 4, 1) }},
		{"shard/volumes4-parallel", func(b *testing.B) { BenchShard(b, intervals, 4, 0) }},
		{"array/volumes3-static", func(b *testing.B) { BenchArray(b, intervals, experiments.SchemeLBICA) }},
		{"array/volumes3-controller", func(b *testing.B) { BenchArray(b, intervals, experiments.SchemeArrayLB) }},
		{"sweep/scratch", func(b *testing.B) { BenchSweep(b, intervals, false) }},
		{"sweep/warm-fork", func(b *testing.B) { BenchSweep(b, intervals, true) }},
		{"sweep/array-scratch", func(b *testing.B) { BenchSweepArray(b, intervals, false) }},
		{"sweep/array-warm-fork", func(b *testing.B) { BenchSweepArray(b, intervals, true) }},
		{"sweep/early-term", func(b *testing.B) { BenchSweepEarlyTerm(b, intervals) }},
		{"sweep/warm-cache-cold", func(b *testing.B) { BenchSweepWarmCache(b, intervals, false) }},
		{"sweep/warm-cache-hit", func(b *testing.B) { BenchSweepWarmCache(b, intervals, true) }},
	}
}

// Run executes every suite benchmark whose name contains filter (empty =
// all) and returns the report.
func Run(filter string, intervals int) Report {
	return run(intervals, func(name string) bool {
		return filter == "" || strings.Contains(name, filter)
	})
}

// RunExact executes exactly the named suite entries; names that match no
// entry are simply absent from the report, which Check then flags. This
// is the `-perf-check` driver: a committed baseline names its
// benchmarks, and only those rerun.
func RunExact(names []string, intervals int) Report {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	return run(intervals, func(name string) bool { return want[name] })
}

func run(intervals int, want func(string) bool) Report {
	rep := Report{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Intervals: intervals,
	}
	for _, bm := range Suite(intervals) {
		if !want(bm.Name) {
			continue
		}
		r := testing.Benchmark(bm.Fn)
		rep.Results = append(rep.Results, Result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rep
}

// Tolerance band for Check. Alloc counts are deterministic for a fixed
// Go version, so the gate is tight — 1.5× plus a small absolute slack
// for toolchain drift. Wall time varies with the host (CI machines are
// noisy, throttled and shared), so the ns gate is a loose 4× backstop
// that only catches order-of-magnitude regressions.
const (
	NsTolerance     = 4.0
	AllocsTolerance = 1.5
	allocsSlack     = 8
)

// Check compares a fresh report against a committed baseline and returns
// one message per breach (nil = the gate passes). Every baseline entry
// must be present in the current report and inside the tolerance band;
// extra current entries are ignored.
func Check(baseline, current Report) []string {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	var breaches []string
	for _, b := range baseline.Results {
		c, ok := cur[b.Name]
		if !ok {
			breaches = append(breaches, fmt.Sprintf("%s: in the baseline but not the current suite", b.Name))
			continue
		}
		if limit := float64(b.AllocsPerOp)*AllocsTolerance + allocsSlack; float64(c.AllocsPerOp) > limit {
			breaches = append(breaches, fmt.Sprintf("%s: %d allocs/op, baseline %d (limit %.0f)",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, limit))
		}
		if limit := b.NsPerOp * NsTolerance; c.NsPerOp > limit {
			breaches = append(breaches, fmt.Sprintf("%s: %.0f ns/op, baseline %.0f (limit %.0f)",
				b.Name, c.NsPerOp, b.NsPerOp, limit))
		}
	}
	return breaches
}

// BenchKernelScheduleFire measures steady-state schedule+fire.
func BenchKernelScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%100), func() {})
		if e.Pending() > 1024 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// BenchKernelScheduleCancel measures the cancel-heavy path.
func BenchKernelScheduleCancel(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(time.Duration(i%100), func() {})
		ev.Cancel()
		if i%1024 == 1023 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// BenchCacheReadHit measures the hot all-hit probe.
func BenchCacheReadHit(b *testing.B) {
	c := cache.New(cache.Config{BlockSectors: 8, Sets: 1024, Ways: 8})
	for i := int64(0); i < 1024; i++ {
		c.Prewarm([]int64{i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(i) % 1024
		c.Access(block.Read, block.Extent{LBA: n * 8, Sectors: 8}, time.Duration(i))
	}
}

// BenchCacheMissEvict measures the miss+allocate+evict worst path.
func BenchCacheMissEvict(b *testing.B) {
	c := cache.New(cache.Config{BlockSectors: 8, Sets: 1024, Ways: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(block.Read, block.Extent{LBA: int64(i) * 8, Sectors: 8}, time.Duration(i))
	}
}

// BenchQueuePushPop measures unmergeable push/pop churn.
func BenchQueuePushPop(b *testing.B) {
	q := ioqueue.New("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &block.Request{ID: uint64(i), Origin: block.AppRead,
			Extent: block.Extent{LBA: int64(i) * 4096, Sectors: 8}}
		q.Push(r, 0)
		if q.Depth() >= 64 {
			for q.Pop() != nil {
			}
		}
	}
}

// BenchQueueMerge measures sequential-stream back-merging.
func BenchQueueMerge(b *testing.B) {
	q := ioqueue.New("bench", ioqueue.WithMaxMergeSectors(64*8))
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			for q.Pop() != nil {
			}
			next = int64(i) * 1024
		}
		r := &block.Request{ID: uint64(i), Origin: block.AppWrite,
			Extent: block.Extent{LBA: next, Sectors: 8}}
		next += 8
		q.Push(r, 0)
	}
}

// BenchZipfNext measures one address-rank draw at the tpcc working-set
// geometry (144 Ki blocks, exponent 0.85): the per-request sample of the
// workload-generation layer.
func BenchZipfNext(b *testing.B) {
	z := sim.NewZipf(sim.NewRNG(1, "bench"), 144*1024, 0.85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink += z.Next()
	}
}

var zipfSink int

// BenchShard runs one tpcc/LBICA array of the given width end to end
// (0 = paper scale): the shard-scaling measurement behind
// BENCH_shard.json — the serial/parallel pair isolates the speedup of
// sharding one simulation's volumes across cores (workers 0 =
// GOMAXPROCS).
func BenchShard(b *testing.B, intervals, volumes, workers int) {
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.Spec{
			Workload:     experiments.WorkloadTPCC,
			Scheme:       experiments.SchemeLBICA,
			Intervals:    intervals,
			Volumes:      volumes,
			ShardWorkers: workers,
		})
		if res.AppCompleted == 0 {
			b.Fatal("shard run completed no requests")
		}
	}
}

// BenchArray runs the pinned hot-shard regime (tpcc, 3 volumes, route
// skew 1.2) end to end under the given scheme (0 intervals = paper
// scale). The static/controller pair behind BENCH_array.json isolates
// the array-lb controller's overhead: both run per-volume LBICA over the
// identical stream, so any gap is the barrier, reweighting and
// migration machinery.
func BenchArray(b *testing.B, intervals int, scheme string) {
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.Spec{
			Workload:  experiments.WorkloadTPCC,
			Scheme:    scheme,
			Intervals: intervals,
			Volumes:   3,
			RouteSkew: 1.2,
		})
		if res.AppCompleted == 0 {
			b.Fatal("array run completed no requests")
		}
	}
}

// BenchSweep runs a one-coordinate, three-scheme comparison grid (tpcc ×
// {wb, lbica, array-lb}) through the sweep executor with one worker
// (0 = paper scale). The scratch/warm-fork pair behind BENCH_sweep.json
// isolates the shared-warmup win: with warmFork the group's common
// prefix — three quarters of the run — is simulated once and each
// sibling scheme is forked from the warm state, while the emitted
// results stay byte-identical to scratch (the sweep package's warm-fork
// identity test), so the whole delta is simulation work saved.
func BenchSweep(b *testing.B, intervals int, warmFork bool) {
	iv := intervals
	if iv == 0 {
		iv = experiments.PaperIntervals(experiments.WorkloadTPCC)
	}
	g := sweep.Grid{
		Workloads: []string{experiments.WorkloadTPCC},
		Schemes:   []string{experiments.SchemeWB, experiments.SchemeLBICA, experiments.SchemeArrayLB},
		Seed:      1,
		Intervals: iv,
	}
	if warmFork {
		g.WarmupIntervals = iv * 3 / 4
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Execute(context.Background(), g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Total || res.Completed == 0 {
			b.Fatalf("sweep completed %d of %d runs", res.Completed, res.Total)
		}
	}
}

// BenchSweepArray is BenchSweep's multi-volume counterpart: the same
// three-scheme comparison grid on the pinned hot-shard regime (tpcc, 3
// volumes, route skew 1.2). With warmFork the statically routed LBICA
// array leads the shared warmup — all three volume stacks step to the
// barrier and are forked together — while the adaptive ARRAY-LB member
// runs scratch by design (its controller diverges from the static
// prefix), so the scratch/warm-fork delta behind BENCH_sweep.json is the
// array-fork win alone. At paper scale the WB member must actually fork;
// a silent fallback to scratch would turn this benchmark into a no-op
// comparison, so it fails instead.
func BenchSweepArray(b *testing.B, intervals int, warmFork bool) {
	iv := intervals
	if iv == 0 {
		iv = experiments.PaperIntervals(experiments.WorkloadTPCC)
	}
	g := sweep.Grid{
		Workloads:  []string{experiments.WorkloadTPCC},
		Schemes:    []string{experiments.SchemeWB, experiments.SchemeLBICA, experiments.SchemeArrayLB},
		Volumes:    []int{3},
		RouteSkews: []float64{1.2},
		Seed:       1,
		Intervals:  iv,
	}
	if warmFork {
		g.WarmupIntervals = iv * 3 / 4
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Execute(context.Background(), g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Total || res.Completed == 0 {
			b.Fatalf("sweep completed %d of %d runs", res.Completed, res.Total)
		}
		if warmFork && intervals == 0 && (res.Warm == nil || res.Warm.Forked == 0) {
			b.Fatalf("array warm plan forked nothing: %+v", res.Warm)
		}
	}
}

// BenchSweepWarmCache runs BenchSweep's warm-fork grid against a
// persistent warm-state store (Grid.WarmCacheDir). The cold/hit pair
// behind BENCH_sweep.json isolates the cross-invocation win: cold runs
// against an empty store every iteration — the leader's warm prefix is
// simulated, encoded and published — while hit runs against a store
// primed once before the timer, so every iteration restores the prefix
// from disk instead of simulating it. Emitted results are byte-identical
// either way (the sweep package's cache identity test), so the whole
// delta is warmup simulation traded for a checkpoint decode. Both
// variants fail rather than silently measure the wrong path: cold must
// store and never hit, hit must hit and never store.
func BenchSweepWarmCache(b *testing.B, intervals int, primed bool) {
	iv := intervals
	if iv == 0 {
		iv = experiments.PaperIntervals(experiments.WorkloadTPCC)
	}
	run := func(dir string) *sweep.Result {
		g := sweep.Grid{
			Workloads:       []string{experiments.WorkloadTPCC},
			Schemes:         []string{experiments.SchemeWB, experiments.SchemeLBICA, experiments.SchemeArrayLB},
			Seed:            1,
			Intervals:       iv,
			WarmupIntervals: iv * 3 / 4,
			WarmCacheDir:    dir,
		}
		res, err := sweep.Execute(context.Background(), g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.Total || res.Completed == 0 {
			b.Fatalf("sweep completed %d of %d runs", res.Completed, res.Total)
		}
		return res
	}
	if primed {
		dir := b.TempDir()
		run(dir) // prime the store (untimed): simulates and publishes the prefix
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := run(dir)
			if res.Warm == nil || res.Warm.CacheHits == 0 || res.Warm.CacheStores != 0 {
				b.Fatalf("primed store did not serve the warm prefix: %+v", res.Warm)
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		res := run(dir)
		if res.Warm == nil || res.Warm.CacheStores == 0 || res.Warm.CacheHits != 0 {
			b.Fatalf("empty store did not trigger a cold store: %+v", res.Warm)
		}
	}
}

// BenchSweepEarlyTerm measures the adaptive scheduler: a four-replicate
// tpcc × {wb, lbica} grid under a CI tolerance chosen so the coordinate
// terminates after three replicates at paper scale — the measured time
// includes the replicates early termination never launched, which is the
// win. At paper scale the benchmark fails if termination does not
// trigger (the measurement would silently degrade into a full sweep).
func BenchSweepEarlyTerm(b *testing.B, intervals int) {
	g := sweep.Grid{
		Workloads:   []string{experiments.WorkloadTPCC},
		Schemes:     []string{experiments.SchemeWB, experiments.SchemeLBICA},
		Replicates:  4,
		Seed:        1,
		Intervals:   intervals,
		CITolerance: 0.3,
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Execute(context.Background(), g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("sweep completed no runs")
		}
		if intervals == 0 && res.Completed >= res.Total {
			b.Fatalf("early termination never triggered: %d of %d runs executed", res.Completed, res.Total)
		}
	}
}

// BenchMatrixSerial runs the full paper matrix serially (0 = paper scale).
func BenchMatrixSerial(b *testing.B, intervals int) {
	for i := 0; i < b.N; i++ {
		specs := experiments.MatrixSpecs(1, 1)
		for j := range specs {
			specs[j].Intervals = intervals
		}
		if _, err := experiments.RunSpecs(context.Background(), specs, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
