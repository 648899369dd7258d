package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lbica"
	"lbica/internal/checkpoint"
	"lbica/internal/engine"
	"lbica/internal/experiments"
)

// sweepWorkers is sweep-warm's runner pool: the host's two CPUs.
const sweepWorkers = 2

// sweepWorkload is sweep-warm: repeated lbica.Sweep invocations against a
// warm cache that each set-up pass fills from cold.
type sweepWorkload struct {
	grids []lbica.GridSpec
	dir   string // work directory; each set-up pass fills a fresh cache in it
	fills int
	seed  int64
	sc    scale
}

func newSweepWorkload(seed int64, sc scale, dir string) *sweepWorkload {
	base := lbica.GridSpec{Seed: seed, Intervals: sc.intervals, WarmupIntervals: sc.warmup}
	if sc.rate != 0 {
		base.RateFactors = []float64{sc.rate}
	}
	// Burst-mult 0.5 keeps WB members forkable: at 1× the balancer has
	// acted before the barrier and every WB member falls back to scratch.
	paper := base
	paper.BurstMults = []float64{0.5, 1}
	// The hot-shard array regime: static routing for WB/LBICA (forked
	// across the whole array) plus one adaptive array-lb member.
	arr := base
	arr.Workloads = []string{lbica.WorkloadTPCC}
	arr.Schemes = []string{lbica.SchemeWB, lbica.SchemeLBICA, lbica.SchemeArrayLB}
	arr.Volumes = []int{3}
	arr.RouteSkews = []float64{1.2}
	return &sweepWorkload{grids: []lbica.GridSpec{paper, arr}, dir: dir, seed: seed, sc: sc}
}

// setup fills a fresh warm cache from cold; later repetitions hit it.
func (w *sweepWorkload) setup() (*output, error) {
	w.fills++
	cacheDir := filepath.Join(w.dir, fmt.Sprintf("warm-%d", w.fills))
	for i := range w.grids {
		w.grids[i].WarmCacheDir = cacheDir
	}
	out := w.invoke(nil)
	if w.fills > 1 {
		if err := os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("warm-%d", w.fills-1))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *sweepWorkload) prepare(tr *tracer) func() *output {
	return func() *output { return w.invoke(tr) }
}

// invoke runs every grid once, as one user invocation would.
func (w *sweepWorkload) invoke(tr *tracer) *output {
	out := &output{warm: &warmTally{}}
	var report bytes.Buffer
	// LBICA's gain is pooled over the grid (every coordinate runs both
	// schemes): one coordinate's gain is noisy from seed to seed, the
	// grid's total latency much less so.
	var wbSum, lbSum float64
	for gi, g := range w.grids {
		opt := lbica.SweepOptions{Workers: sweepWorkers}
		if tr != nil {
			opt.OnProgress = tr.cellDone
		}
		res, err := lbica.Sweep(context.Background(), g, opt)
		if err == nil {
			err = res.WriteJSON(&report)
		}
		if err != nil {
			out.cells = append(out.cells, cellOut{name: fmt.Sprintf("grid%d", gi), err: err})
			continue
		}
		for _, r := range res.Runs {
			b, err := json.Marshal(r)
			cell := cellOut{name: fmt.Sprintf("%s/%s/b%g/v%d", r.Workload, r.Scheme, r.BurstMult, r.Volumes), err: err, digest: digest(b)}
			out.cells = append(out.cells, cell)
			out.requests += r.Requests
			switch strings.ToLower(r.Scheme) {
			case lbica.SchemeWB:
				wbSum += r.AvgLatencyUS
			case lbica.SchemeLBICA:
				lbSum += r.AvgLatencyUS
			}
			if r.Volumes > 1 {
				out.warm.MultiVolume++
			}
			if tr != nil {
				tr.sweepRun(r)
			}
		}
		if ws := res.Warm; ws != nil {
			out.warm.Leaders += ws.Leaders
			out.warm.Forked += ws.Forked
			out.warm.Scratch += ws.Scratch
			out.warm.CacheHits += ws.CacheHits
			out.warm.CacheStored += ws.CacheStores
		}
	}
	out.report = report.Bytes()
	if wbSum > 0 {
		out.gainPct = (wbSum - lbSum) / wbSum * 100
	}
	return out
}

// layers times the state-copy path on the grid's warmed leader stacks
// (checkpoint encode and decode, Stack.Fork) and measures the array
// regime's routing balance, migrations and shard parallelism.
func (w *sweepWorkload) layers(tr *tracer) error {
	var enc, dec, fork, size []float64
	for _, wl := range experiments.Workloads {
		for _, burst := range w.grids[0].BurstMults {
			spec := experiments.Spec{Workload: wl, Scheme: experiments.SchemeLBICA, Seed: w.seed,
				Intervals: w.sc.intervals, RateFactor: w.sc.rate, BurstMult: burst}.Normalize()
			e, d, f, n, err := w.stateCopy(tr, spec)
			if err != nil {
				return fmt.Errorf("%s burst %g: %w", wl, burst, err)
			}
			enc, dec, fork, size = append(enc, e), append(dec, d), append(fork, f), append(size, n)
		}
	}
	tr.set("ckpt.encode_ms", median(enc)*1e3)
	tr.set("ckpt.decode_ms", median(dec)*1e3)
	tr.set("fork.ms", median(fork)*1e3)
	tr.set("ckpt.bytes", median(size))
	return w.arrayProbe(tr)
}

// stateCopy warms one leader stack to the sweep's barrier, as the warm
// planner does, then times EncodeStack, DecodeStack onto a fresh stack,
// and Fork.
func (w *sweepWorkload) stateCopy(tr *tracer, spec experiments.Spec) (enc, dec, fork, size float64, err error) {
	ctx := context.Background()
	build := func() *engine.Stack {
		return engine.New(stackConfig(spec), experiments.NewGenerator(spec), experiments.NewBalancer(spec.Scheme))
	}
	st := build()
	st.Start(ctx, spec.Intervals)
	st.StepTo(time.Duration(w.sc.warmup) * spec.Interval)

	t0 := time.Now()
	payload, err := checkpoint.EncodeStack(st)
	enc = time.Since(t0).Seconds()
	tr.span("encode "+spec.Workload, t0, time.Now())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	fresh := build()
	t0 = time.Now()
	err = checkpoint.DecodeStack(ctx, fresh, payload)
	dec = time.Since(t0).Seconds()
	tr.span("restore "+spec.Workload, t0, time.Now())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t0 = time.Now()
	_, err = st.Fork(ctx, nil)
	fork = time.Since(t0).Seconds()
	tr.span("fork "+spec.Workload, t0, time.Now())
	return enc, dec, fork, float64(len(payload)), err
}

// arrayProbe runs the grid's array-lb coordinate on its own: lbica.Run's
// per-volume reports give the routing balance, the merged engine results
// the migration count, and the process's CPU over wall time the shard
// parallelism.
func (w *sweepWorkload) arrayProbe(tr *tracer) error {
	arr := w.grids[1]
	o := lbica.Options{Workload: lbica.WorkloadTPCC, Scheme: lbica.SchemeArrayLB, Seed: w.seed,
		Intervals: w.sc.intervals, RateFactor: w.sc.rate, Volumes: arr.Volumes[0], RouteSkew: arr.RouteSkews[0], ShardWorkers: sweepWorkers}
	c0, t0 := cpuSeconds(), time.Now()
	rep, err := lbica.Run(o)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	tr.span("array-lb cell", t0, time.Now())
	tr.set("array.parallelism", (cpuSeconds()-c0)/wall)
	var total, top uint64
	for _, v := range rep.PerVolume {
		total += v.Summary.Requests
		top = max(top, v.Summary.Requests)
	}
	if total > 0 {
		tr.set("array.route_max_frac", float64(top)/float64(total))
	}
	res := experiments.Run(experiments.Spec{Workload: experiments.WorkloadTPCC, Scheme: experiments.SchemeArrayLB, Seed: w.seed,
		Intervals: w.sc.intervals, RateFactor: w.sc.rate, Volumes: o.Volumes, RouteSkew: o.RouteSkew, ShardWorkers: sweepWorkers})
	tr.set("array.migrations", float64(res.CacheStats.MigratedIn))
	return nil
}
