// Command hostbench is the repository's host-time benchmark. One
// invocation runs one named workload in a single process, checks the
// simulated outputs, and prints its metrics as one JSON object on the
// last line of standard output: the end-to-end metrics, or with -trace 1
// the per-layer metrics of a separate traced run.
//
// Build and run it from the repository root:
//
//	bash hostbench/run.sh --workload read-burst --seed 1 --seconds 20 --trace 0
//
// LAYERS.md beside this file says why each workload was chosen, which
// layers it loads and bypasses, and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart anchors the first set-up pass, so set-up time counts the
// runtime's own start-up as a user of the binary sees it.
var processStart = time.Now()

// A scale fixes how much simulation one repetition does.
type scale struct {
	name        string  // key into the reference digests
	intervals   int     // 0 = the paper's length per workload
	seeds       int     // traffic seeds per single-stack repetition
	rate        float64 // workload IOPS factor; 0 = the paper's rates
	warmup      int     // sweep-warm's shared warmup prefix, in intervals
	minReps     int     // timed repetitions run even past the time budget
	setupPasses int     // set-up passes; setup_s is their median
}

var (
	// Paper-scale work per seed varies by about 6% (IQR) from seed to
	// seed; three traffic seeds per repetition halve that spread.
	fullScale  = scale{name: "full", seeds: 3, warmup: 170, minReps: 4, setupPasses: 3}
	smokeScale = scale{name: "smoke", intervals: 5, seeds: 1, rate: 0.1, warmup: 4, minReps: 2, setupPasses: 1}
)

// referenceSeed is the seed whose digests reference.json records.
const referenceSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where the traced run writes its spans; "" = nowhere
	scale    scale
}

// A bench is one benchmark workload: a fixed amount of simulation work
// that can be repeated in process.
type bench interface {
	// setup does one pass of the work that precedes timing and returns its
	// outputs for checking (nil when it simulates nothing by itself).
	setup() (*output, error)
	// prepare builds one repetition's inputs outside the timed region and
	// returns the timed part. tr is nil on untraced repetitions.
	prepare(tr *tracer) func() *output
	// layers measures the workload's per-layer metrics that the traced
	// repetitions cannot see, after they have run.
	layers(tr *tracer) error
}

// cellOut is one simulation cell's outputs.
type cellOut struct {
	name      string
	digest    string // hash of the cell's simulated results
	err       error  // the cell errored or panicked
	submitted uint64 // application requests generated (0 = not visible)
	completed uint64
	events    uint64 // simulation events fired (0 = not visible)
}

// output is one repetition's (or set-up pass's) outputs.
type output struct {
	cells    []cellOut
	requests uint64  // simulated application requests the results cover
	gainPct  float64 // LBICA's mean-latency gain over WB, percent
	report   []byte  // the sweep's JSON report bytes (sweep-warm only)
	warm     *warmTally
}

// warmTally is sweep-warm's warm-plan outcome count over one invocation.
type warmTally struct {
	Leaders, Forked, Scratch, CacheHits, CacheStored, MultiVolume int
}

var workloadNames = []string{"read-burst", "write-burst", "sweep-warm"}

func newWorkload(name string, seed int64, sc scale, dir string) (bench, error) {
	switch name {
	case "read-burst":
		return newStackWorkload("tpcc", seed, sc), nil
	case "write-burst":
		return newStackWorkload("mail", seed, sc), nil
	case "sweep-warm":
		return newSweepWorkload(seed, sc, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", referenceSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "time budget of the measured repetitions")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's spans file")
	flag.Parse()
	o.trace = *trace == 1
	o.scale = fullScale
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hostbench: -seconds must be positive")
		os.Exit(2)
	}
	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload and prints a context line (host-noise context
// and every per-repetition sample) followed by the result line.
func run(ctx context.Context, o options, stdout io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(".", ".hostbench-work-")
	if err != nil {
		return fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(workDir)
	w, err := newWorkload(o.workload, o.seed, o.scale, workDir)
	if err != nil {
		return err
	}

	m, err := measure(w, o)
	if err != nil {
		return err
	}
	m.context["workload"] = o.workload
	m.context["seed"] = o.seed
	m.context["nproc"] = runtime.NumCPU()
	m.context["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m.context["workers"] = workersFor(o.workload)
	if o.trace {
		if err := writeSpans(o.spansDir, o, m.spans); err != nil {
			return err
		}
	}

	ctxLine, err := json.Marshal(map[string]any{"context": m.context})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(m.result)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", ctxLine, resLine)
	return err
}

func workersFor(name string) int {
	if name == "sweep-warm" {
		return sweepWorkers
	}
	return 1
}

// measurement is what one invocation found.
type measurement struct {
	result  result
	context map[string]any
	spans   []span
}

// checker accumulates the per-cell output checks behind match_frac.
type checker struct {
	ref       map[string]string // reference digests for this seed and scale; nil = none
	first     map[string]cellOut
	attempted int
	failed    int
	problems  []string
}

// problem records why a check failed; the first ten are reported.
func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed whole-run check as one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.problem(format, args...)
	c.attempted++
	c.failed++
}

// check folds one repetition's cells into the tally. A cell passes when
// it ran without error, conserved requests, and reproduced both the
// reference digest (where one is recorded) and the first repetition's
// digest and event count.
func (c *checker) check(out *output) {
	if c.first == nil {
		c.first = map[string]cellOut{}
	}
	for _, cell := range out.cells {
		c.attempted++
		ok := true
		switch {
		case cell.err != nil:
			c.problem("%s: %v", cell.name, cell.err)
			ok = false
		case cell.submitted != cell.completed:
			c.problem("%s: %d requests generated, %d completed", cell.name, cell.submitted, cell.completed)
			ok = false
		}
		if want, has := c.ref[cell.name]; ok && c.ref != nil && (!has || want != cell.digest) {
			c.problem("%s: digest %s, reference %s", cell.name, cell.digest, want)
			ok = false
		}
		if prev, seen := c.first[cell.name]; !seen {
			c.first[cell.name] = cell
		} else if ok && (prev.digest != cell.digest || prev.events != cell.events) {
			c.problem("%s: repetition differs (digest %s/%s, events %d/%d)", cell.name, prev.digest, cell.digest, prev.events, cell.events)
			ok = false
		}
		if !ok {
			c.failed++
		}
	}
}

// measure runs the set-up passes, then timed repetitions until the time
// budget is spent, and for a traced run the traced repetitions and the
// per-layer probes.
func measure(w bench, o options) (*measurement, error) {
	chk := &checker{ref: referenceFor(o.workload, o.seed, o.scale.name)}
	steal0, stealErr := readCPUStat()
	var setupS []float64
	var coldReport []byte
	var firstOut *output
	var warm *warmTally
	for i := 0; i < o.scale.setupPasses; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		cold, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if cold != nil {
			chk.check(cold)
			if coldReport == nil {
				coldReport = cold.report
			} else if string(cold.report) != string(coldReport) {
				chk.fail("set-up pass %d: sweep report differs from the first pass", i)
			}
		}
		out := w.prepare(nil)() // the untimed warm-up repetition
		chk.check(out)
		setupS = append(setupS, time.Since(t0).Seconds())
		firstOut = out
	}

	budget := o.seconds
	if o.trace {
		budget /= 2 // half untraced (the overhead baseline), half traced
	}
	wall, cpu, rss, outs := timedReps(w, nil, budget, o.scale.minReps)
	for _, out := range outs {
		chk.check(out)
		if coldReport != nil && string(out.report) != string(coldReport) {
			chk.fail("cache-hit sweep report differs from the cold fill's")
		}
		if out.warm != nil {
			warm = out.warm
		}
	}
	if warm != nil && (warm.Leaders == 0 || warm.Forked == 0 || warm.CacheHits == 0 || warm.MultiVolume == 0) {
		chk.fail("warm plan lacks leader, forked, cache-hit or multi-volume members: %+v", *warm)
	}

	m := &measurement{context: map[string]any{
		"reps":          len(wall),
		"wall_samples":  wall,
		"cpu_samples":   cpu,
		"rss_samples":   rss,
		"setup_samples": setupS,
		"wall_tail":     tail(wall),
		"warm":          warm,
	}}
	wallS := median(wall)
	steal := -1.0 // unknown
	if steal1, err := readCPUStat(); err == nil && stealErr == nil {
		steal = steal1.stealFrac(steal0)
	}
	m.context["host.steal_frac"] = steal
	if o.trace {
		tr := newTracer()
		twall, _, _, touts := timedReps(w, tr, budget, o.scale.minReps)
		for _, out := range touts {
			chk.check(out)
		}
		tr.warm = touts[len(touts)-1].warm
		tr.finishReps(len(touts))
		for _, p := range tr.problems {
			chk.fail("%s", p)
		}
		if err := w.layers(tr); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		tr.set("host.trace_overhead_pct", (median(twall)-wallS)/wallS*100)
		tr.set("host.steal_frac", steal)
		if ev := tr.get("sim.events"); ev > 0 {
			tr.set("sim.ns_per_event", wallS*1e9/ev)
		}
		m.context["traced_wall_samples"] = twall
		m.result.Metrics = tr.metrics()
		m.spans = tr.spans
	} else {
		m.result.Metrics = map[string]metric{
			"wall_s":             {wallS, "s"},
			"cpu_s":              {median(cpu), "s"},
			"sim_req_per_s":      {float64(firstOut.requests) / wallS, "1/s"},
			"peak_rss_mib":       {median(rss), "MiB"},
			"setup_s":            {median(setupS), "s"},
			"match_frac":         {float64(chk.attempted-chk.failed) / float64(chk.attempted), "frac"},
			"lbica_lat_gain_pct": {firstOut.gainPct, "%"},
		}
	}
	if len(chk.problems) > 0 {
		m.context["problems"] = chk.problems
	}
	m.result.Attempted = chk.attempted
	m.result.Failed = chk.failed
	m.result.Correct = chk.failed == 0 && chk.attempted > 0
	return m, nil
}

// timedReps runs repetitions until budget seconds of them have run and
// at least minReps are done. Each starts after a full collection that
// returns free memory to the OS, with the peak-RSS mark reset. It returns
// each repetition's wall and CPU seconds and peak resident set.
func timedReps(w bench, tr *tracer, budget float64, minReps int) (wall, cpu, rss []float64, outs []*output) {
	spent := 0.0
	for len(wall) < minReps || spent < budget {
		fn := w.prepare(tr)
		debug.FreeOSMemory()
		resetPeakRSS()
		c0 := cpuSeconds()
		t0 := time.Now()
		if tr != nil {
			tr.beginRep(t0)
		}
		out := fn()
		d := time.Since(t0).Seconds()
		if tr != nil {
			tr.endRep(time.Now())
		}
		cpu = append(cpu, cpuSeconds()-c0)
		wall = append(wall, d)
		rss = append(rss, peakRSSMiB())
		outs = append(outs, out)
		spent += d
	}
	return wall, cpu, rss, outs
}

// cellErr turns a recovered panic into a cell error.
func cellErr(r any) error {
	if r == nil {
		return nil
	}
	return fmt.Errorf("panic: %v", r)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest percentile of a fixed ladder that has at
// least ten samples beyond it (the median when none has), with the
// sample count n.
func tail(xs []float64) map[string]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := map[string]float64{"n": float64(len(s))}
	if len(s) == 0 {
		return out
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		idx := int(float64(len(s)) * p / 100)
		if len(s)-idx-1 >= 10 || p == 50 {
			out["pct"], out["value"] = p, s[min(idx, len(s)-1)]
			break
		}
	}
	return out
}
