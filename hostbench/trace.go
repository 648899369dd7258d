package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"lbica"
	"lbica/internal/block"
	"lbica/internal/cache"
	"lbica/internal/device"
	"lbica/internal/engine"
	"lbica/internal/ioqueue"
	"lbica/internal/sim"
	"lbica/internal/trace"
	"lbica/internal/workload"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A traced run prints all of them; a layer the
// workload bypasses (or that its entry point hides) reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"workload.next_calls", "count"},
	{"workload.next_ns", "ns"},
	{"balancer.admit_calls", "count"},
	{"balancer.admit_ns", "ns"},
	{"balancer.bypassed", "count"},
	{"balancer.policy_switches", "count"},
	{"engine.self_share", "frac"},
	{"cache.access_ns", "ns"},
	{"cache.read_hits", "count"},
	{"cache.read_misses", "count"},
	{"cache.dirty_evicts", "count"},
	{"cache.flushed", "count"},
	{"cache.hit_ratio", "frac"},
	{"ioqueue.push_pop_ns", "ns"},
	{"ioqueue.ssd_pushed", "count"},
	{"ioqueue.ssd_merges", "count"},
	{"ioqueue.hdd_pushed", "count"},
	{"ioqueue.extracted", "count"},
	{"device.service_ns", "ns"},
	{"device.ssd_util", "frac"},
	{"device.hdd_util", "frac"},
	{"iostat.cache_load_us", "us"},
	{"iostat.disk_load_us", "us"},
	{"warm.leaders", "count"},
	{"warm.forked", "count"},
	{"warm.scratch", "count"},
	{"warm.cache_hits", "count"},
	{"warm.cache_stored", "count"},
	{"ckpt.decode_ms", "ms"},
	{"ckpt.encode_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"fork.ms", "ms"},
	{"sweep.cells", "count"},
	{"sweep.cell_p50_s", "s"},
	{"sweep.cell_tail_s", "s"},
	{"sweep.cell_tail_pct", "%"},
	{"sweep.cell_samples", "count"},
	{"array.route_max_frac", "frac"},
	{"array.migrations", "count"},
	{"array.parallelism", "ratio"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mib", "MiB"},
	{"host.steal_frac", "frac"},
	{"host.trace_overhead_pct", "%"},
}

// span is one timed call from the benchmark into a layer. Times are
// seconds since process start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer is the traced run's instrumentation, all of it outside the
// program: generator and balancer wrappers, a counting trace recorder,
// spans around the calls into each layer, and the layer replays.
type tracer struct {
	vals  map[string]float64 // per-layer metric values by name
	spans []span

	// Per-repetition sums; reps keeps one map per finished repetition.
	cur  map[string]float64
	reps []map[string]float64

	repSpan   int
	cellStart time.Time
	cellSpan  int
	lastDone  time.Time
	lastCount int
	cellDurs  []float64
	warm      *warmTally
	problems  []string
	runtime0  []metrics.Sample
	heapPeak  uint64
	stopHeap  chan struct{}
	heapDone  sync.WaitGroup

	// capture mode records the streams the layer replays consume.
	capture    bool
	reqs       []workload.Request
	events     []trace.Event
	replaySums map[string]float64
}

func newTracer() *tracer {
	return &tracer{vals: map[string]float64{}, replaySums: map[string]float64{}}
}

func (tr *tracer) set(name string, v float64) { tr.vals[name] = v }
func (tr *tracer) get(name string) float64    { return tr.vals[name] }

func since(t time.Time) float64 { return t.Sub(processStart).Seconds() }

func (tr *tracer) span(name string, start, end time.Time) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: tr.repSpan, Name: name, Start: since(start), End: since(end)})
	return len(tr.spans)
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// beginRep opens a repetition's span; the first one also starts the
// runtime accounting and the heap sampler.
func (tr *tracer) beginRep(t0 time.Time) {
	if tr.runtime0 == nil {
		tr.runtime0 = readRuntime()
		tr.stopHeap = make(chan struct{})
		tr.heapDone.Add(1)
		go tr.sampleHeap()
	}
	tr.cur = map[string]float64{}
	tr.repSpan = 0
	tr.repSpan = tr.span(fmt.Sprintf("repetition %d", len(tr.reps)+1), t0, t0)
	tr.lastDone, tr.lastCount = t0, 0
}

func (tr *tracer) endRep(t1 time.Time) {
	tr.spans[tr.repSpan-1].End = since(t1)
	tr.reps = append(tr.reps, tr.cur)
}

// sampleHeap tracks the live heap's peak until stopHeap closes.
func (tr *tracer) sampleHeap() {
	defer tr.heapDone.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		tr.heapPeak = max(tr.heapPeak, s[0].Value.Uint64())
		select {
		case <-tr.stopHeap:
			return
		case <-tick.C:
		}
	}
}

// finishReps stops the runtime accounting and turns the repetitions'
// sums into metrics: counts from the last repetition (they must repeat
// exactly), times as medians over the repetitions.
func (tr *tracer) finishReps(n int) {
	tr.repSpan = 0
	close(tr.stopHeap)
	tr.heapDone.Wait()
	rt := readRuntime()
	d := func(i int) float64 { return sampleValue(rt[i]) - sampleValue(tr.runtime0[i]) }
	tr.set("runtime.alloc_mib", d(0)/float64(n)/(1<<20))
	tr.set("runtime.gc_cycles", d(1)/float64(n))
	if total := d(3); total > 0 {
		tr.set("runtime.gc_cpu_frac", d(2)/total)
	}
	tr.set("runtime.heap_peak_mib", float64(tr.heapPeak)/(1<<20))

	last := tr.reps[len(tr.reps)-1]
	for _, r := range tr.reps {
		for _, k := range countKeys {
			if r[k] != last[k] {
				tr.problems = append(tr.problems, fmt.Sprintf("%s differs between traced repetitions: %v vs %v", k, r[k], last[k]))
			}
		}
	}
	perRep := func(f func(r map[string]float64) float64) float64 {
		xs := make([]float64, len(tr.reps))
		for i, r := range tr.reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ratio := func(num, den string) func(r map[string]float64) float64 {
		return func(r map[string]float64) float64 {
			if r[den] == 0 {
				return 0
			}
			return r[num] / r[den]
		}
	}
	for _, k := range countKeys {
		tr.set(k, last[k])
	}
	tr.set("workload.next_ns", perRep(ratio("next_ns", "workload.next_calls")))
	tr.set("balancer.admit_ns", perRep(ratio("admit_ns", "balancer.admit_calls")))
	if last["run_ns"] > 0 {
		tr.set("engine.self_share", perRep(func(r map[string]float64) float64 {
			return (r["run_ns"] - r["next_ns"] - r["admit_ns"]) / r["run_ns"]
		}))
	}
	if last["cache.accesses"] > 0 {
		tr.set("cache.hit_ratio", last["cache.hits"]/last["cache.accesses"])
	}
	if c := last["cells"]; c > 0 {
		tr.set("device.ssd_util", last["ssd_util"]/c)
		tr.set("device.hdd_util", last["hdd_util"]/c)
	}
	if c := last["cells"] + last["runs"]; c > 0 {
		tr.set("iostat.cache_load_us", last["cache_load_us"]/c)
		tr.set("iostat.disk_load_us", last["disk_load_us"]/c)
	}
	if runs := last["runs"]; runs > 0 {
		tr.set("sweep.cells", runs)
		tr.set("cache.hit_ratio", last["hit_ratio_sum"]/runs)
		tr.set("sweep.cell_p50_s", median(tr.cellDurs))
		t := tail(tr.cellDurs)
		tr.set("sweep.cell_tail_s", t["value"])
		tr.set("sweep.cell_tail_pct", t["pct"])
		tr.set("sweep.cell_samples", t["n"])
	}
	if w := tr.warm; w != nil {
		tr.set("warm.leaders", float64(w.Leaders))
		tr.set("warm.forked", float64(w.Forked))
		tr.set("warm.scratch", float64(w.Scratch))
		tr.set("warm.cache_hits", float64(w.CacheHits))
		tr.set("warm.cache_stored", float64(w.CacheStored))
	}
}

// countKeys are the per-repetition sums that count simulated or
// generated work; they must repeat exactly.
var countKeys = []string{
	"cells", "runs", "sim.events", "workload.next_calls", "balancer.admit_calls",
	"balancer.bypassed", "balancer.policy_switches",
	"cache.read_hits", "cache.read_misses", "cache.dirty_evicts", "cache.flushed",
	"cache.hits", "cache.accesses",
	"ioqueue.ssd_pushed", "ioqueue.ssd_merges", "ioqueue.hdd_pushed", "ioqueue.extracted",
}

// metrics returns every per-layer metric, 0 where nothing measured it.
func (tr *tracer) metrics() map[string]metric {
	rs := tr.replaySums
	for name, sums := range map[string][2]string{
		"cache.access_ns":     {"access_ns", "accesses"},
		"ioqueue.push_pop_ns": {"queue_ns", "queue_ops"},
		"device.service_ns":   {"service_ns", "services"},
	} {
		if rs[sums[1]] > 0 {
			tr.set(name, rs[sums[0]]/rs[sums[1]])
		}
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{tr.vals[m.name], m.unit}
	}
	return out
}

// beginCell and endCell bracket one single-stack simulation.
func (tr *tracer) beginCell(name string) {
	tr.cellStart = time.Now()
	tr.cellSpan = tr.span(name, tr.cellStart, tr.cellStart)
}

func (tr *tracer) endCell(st *engine.Stack, res *engine.Results) {
	end := time.Now()
	tr.spans[tr.cellSpan-1].End = since(end)
	c := tr.cur
	c["run_ns"] += float64(end.Sub(tr.cellStart).Nanoseconds())
	if res == nil {
		return
	}
	cs := res.CacheStats
	c["cells"]++
	c["sim.events"] += float64(st.Engine().Fired())
	c["balancer.bypassed"] += float64(res.BypassedToDisk)
	c["balancer.policy_switches"] += float64(cs.PolicySwitches)
	c["cache.read_hits"] += float64(cs.ReadHits)
	c["cache.read_misses"] += float64(cs.ReadMisses)
	c["cache.dirty_evicts"] += float64(cs.DirtyEvicts)
	c["cache.flushed"] += float64(cs.Flushed)
	c["cache.hits"] += float64(cs.ReadHits + cs.WriteHits)
	c["cache.accesses"] += float64(cs.Reads + cs.Writes)
	c["ioqueue.extracted"] += float64(st.SSDQueue().Extracted() + st.HDDQueue().Extracted())
	c["ssd_util"] += res.SSDUtilization
	c["hdd_util"] += res.HDDUtilization
	c["cache_load_us"] += res.CacheLoadMean()
	c["disk_load_us"] += res.DiskLoadMean()
}

// cellDone is sweep-warm's SweepOptions.OnProgress hook. Progress comes
// in steps of one or more cells; the gap since the previous step, split
// evenly over the step's cells, estimates each cell's wall time.
func (tr *tracer) cellDone(done, total int) {
	now := time.Now()
	if done < tr.lastCount {
		tr.lastCount = 0 // the next grid's sweep started
	}
	if n := done - tr.lastCount; n > 0 {
		per := now.Sub(tr.lastDone).Seconds() / float64(n)
		for i := 0; i < n; i++ {
			tr.cellDurs = append(tr.cellDurs, per)
		}
	}
	tr.span(fmt.Sprintf("cells %d-%d/%d", tr.lastCount+1, done, total), tr.lastDone, now)
	tr.lastDone, tr.lastCount = now, done
}

func (tr *tracer) sweepRun(r lbica.SweepRun) {
	c := tr.cur
	c["runs"]++
	c["hit_ratio_sum"] += r.HitRatio
	c["cache_load_us"] += r.QMeanUS
	c["disk_load_us"] += r.DiskQMeanUS
}

// recorder is the counting trace.Recorder installed in engine.Config.Trace;
// in capture mode it also keeps the queue events the replays consume.
func (tr *tracer) recorder() trace.Recorder {
	return trace.RecorderFunc(func(e trace.Event) {
		switch e.Kind {
		case trace.Queued, trace.Merged:
			if e.Dev == trace.SSD {
				tr.cur["ioqueue.ssd_pushed"]++
				if e.Kind == trace.Merged {
					tr.cur["ioqueue.ssd_merges"]++
				}
			} else {
				tr.cur["ioqueue.hdd_pushed"]++
			}
		case trace.Dispatched:
		default:
			return
		}
		if tr.capture {
			tr.events = append(tr.events, e)
		}
	})
}

// timedGen wraps a generator, timing and counting Next. It keeps the
// prewarm hook engine.New looks for.
type timedGen struct {
	workload.Generator
	tr *tracer
}

func (g timedGen) Next() (workload.Request, bool) {
	t0 := time.Now()
	r, ok := g.Generator.Next()
	c := g.tr.cur
	c["next_ns"] += float64(time.Since(t0).Nanoseconds())
	c["workload.next_calls"]++
	if ok && g.tr.capture {
		g.tr.reqs = append(g.tr.reqs, r)
	}
	return r, ok
}

func (g timedGen) HotBlocks(n int) []int64 {
	if h, ok := g.Generator.(interface{ HotBlocks(int) []int64 }); ok {
		return h.HotBlocks(n)
	}
	return nil
}

func (tr *tracer) wrapGen(g workload.Generator) workload.Generator { return timedGen{g, tr} }

// timedBal wraps a balancer, timing and counting Admit.
type timedBal struct {
	engine.Balancer
	tr *tracer
}

func (b timedBal) Admit(op block.Op, e block.Extent) bool {
	t0 := time.Now()
	ok := b.Balancer.Admit(op, e)
	c := b.tr.cur
	c["admit_ns"] += float64(time.Since(t0).Nanoseconds())
	c["balancer.admit_calls"]++
	if !ok && b.tr.capture && len(b.tr.reqs) > 0 {
		// A bypassed request never reaches the cache.
		b.tr.reqs = b.tr.reqs[:len(b.tr.reqs)-1]
	}
	return ok
}

func (tr *tracer) wrapBal(b engine.Balancer) engine.Balancer {
	if b == nil {
		return nil // WB: no balancer
	}
	return timedBal{b, tr}
}

func (tr *tracer) resetCapture() {
	tr.cur = map[string]float64{}
	tr.reqs, tr.events = tr.reqs[:0], tr.events[:0]
}

// replay drives fresh cache, queue and device models of cfg's geometry
// with the captured streams, timing each layer alone (median of three
// passes), and adds the totals to the replay sums.
func (tr *tracer) replay(cfg engine.Config, gen workload.Generator) {
	const passes = 3
	var accessNs, queueNs, serviceNs []float64
	var hot []int64
	if h, ok := gen.(interface{ HotBlocks(int) []int64 }); ok && cfg.PrewarmBlocks > 0 {
		hot = h.HotBlocks(cfg.PrewarmBlocks)
	}
	var dispatched int
	for pass := 0; pass < passes; pass++ {
		c := cache.New(cfg.Cache)
		c.Prewarm(hot)
		t0 := time.Now()
		for _, r := range tr.reqs {
			c.Access(r.Op, r.Extent, r.At)
		}
		accessNs = append(accessNs, float64(time.Since(t0).Nanoseconds()))

		queues := [2]*ioqueue.Queue{ioqueue.New("ssd"), ioqueue.New("hdd", ioqueue.WithDiscipline(cfg.HDDDiscipline))}
		reqs := make([]block.Request, len(tr.events))
		for i, e := range tr.events {
			reqs[i] = block.Request{ID: uint64(i + 1), Origin: e.Origin, Extent: block.Extent{LBA: e.LBA, Sectors: e.Sector}}
		}
		t0 = time.Now()
		for i, e := range tr.events {
			if e.Kind == trace.Dispatched {
				queues[e.Dev].Pop()
			} else {
				queues[e.Dev].Push(&reqs[i], e.At)
			}
		}
		queueNs = append(queueNs, float64(time.Since(t0).Nanoseconds()))

		var now time.Duration
		hdd := device.NewHDD(cfg.HDD, sim.NewRNG(cfg.Seed, "hdd"))
		hdd.SetClock(func() time.Duration { return now })
		models := [2]device.Model{device.NewSSD(cfg.SSD, sim.NewRNG(cfg.Seed, "ssd")), hdd}
		dispatched = 0
		t0 = time.Now()
		for i, e := range tr.events {
			if e.Kind == trace.Dispatched {
				now = e.At
				models[e.Dev].Service(&reqs[i])
				dispatched++
			}
		}
		serviceNs = append(serviceNs, float64(time.Since(t0).Nanoseconds()))
	}
	s := tr.replaySums
	s["access_ns"] += median(accessNs)
	s["accesses"] += float64(len(tr.reqs))
	s["queue_ns"] += median(queueNs)
	s["queue_ops"] += float64(len(tr.events))
	s["service_ns"] += median(serviceNs)
	s["services"] += float64(dispatched)
}

// writeSpans writes the traced run's spans as JSON into dir.
func writeSpans(dir string, o options, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}
