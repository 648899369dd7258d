package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"lbica/internal/engine"
	"lbica/internal/experiments"
)

// stackWorkload is read-burst or write-burst: one paper workload under
// WB, SIB and LBICA, each on a single stack, for the scale's number of
// traffic seeds, run one after another.
type stackWorkload struct {
	specs []experiments.Spec // normalized; seed-major, then scheme
}

func newStackWorkload(wl string, seed int64, sc scale) *stackWorkload {
	w := &stackWorkload{}
	for j := 0; j < sc.seeds; j++ {
		for _, scheme := range experiments.Schemes {
			spec := experiments.Spec{Workload: wl, Scheme: scheme, Seed: int64(sc.seeds)*seed + int64(j), Intervals: sc.intervals, RateFactor: sc.rate}
			w.specs = append(w.specs, spec.Normalize())
		}
	}
	return w
}

// build assembles the stack experiments.Run would build for spec (the
// paper's cache geometry, so engine.DefaultConfig with the spec's seed
// and interval), with the tracer's wrappers and recorder when tr is set.
func (w *stackWorkload) build(spec experiments.Spec, tr *tracer) *engine.Stack {
	cfg := stackConfig(spec)
	gen := experiments.NewGenerator(spec)
	bal := experiments.NewBalancer(spec.Scheme)
	if tr != nil {
		cfg.Trace = tr.recorder()
		gen = tr.wrapGen(gen)
		bal = tr.wrapBal(bal)
	}
	return engine.New(cfg, gen, bal)
}

func stackConfig(spec experiments.Spec) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.MonitorEvery = spec.Interval
	return cfg
}

// setup has nothing beyond the warm-up repetition: each repetition
// builds (and prewarms) its own stacks, outside the timed region.
func (w *stackWorkload) setup() (*output, error) { return nil, nil }

func (w *stackWorkload) prepare(tr *tracer) func() *output {
	stacks := make([]*engine.Stack, len(w.specs))
	for i, spec := range w.specs {
		stacks[i] = w.build(spec, tr)
	}
	return func() *output {
		out := &output{}
		lat := map[string]float64{} // summed over seeds
		for i, spec := range w.specs {
			if tr != nil {
				tr.beginCell(cellName(spec))
			}
			res, cell := runStack(stacks[i], spec)
			if tr != nil {
				tr.endCell(stacks[i], res)
			}
			out.cells = append(out.cells, cell)
			if res != nil {
				out.requests += res.AppCompleted
				lat[spec.Scheme] += float64(res.AppLatency.Mean())
			}
		}
		if wb := lat[experiments.SchemeWB]; wb > 0 {
			out.gainPct = (wb - lat[experiments.SchemeLBICA]) / wb * 100
		}
		return out
	}
}

func cellName(spec experiments.Spec) string { return fmt.Sprintf("%s/seed%d", spec.Scheme, spec.Seed) }

// runStack runs one cell to completion; a panic fails the cell only.
func runStack(st *engine.Stack, spec experiments.Spec) (res *engine.Results, cell cellOut) {
	cell.name = cellName(spec)
	defer func() {
		if err := cellErr(recover()); err != nil {
			res, cell.err = nil, err
		}
	}()
	res = st.RunContext(context.Background(), spec.Intervals)
	res.Workload = spec.Workload
	cell.digest, cell.err = resultsDigest(res)
	cell.submitted, cell.completed = res.AppSubmitted, res.AppCompleted
	cell.events = st.Engine().Fired()
	return res, cell
}

// resultsDigest hashes every simulated output of a run: all exported
// Results fields plus the latency histogram's summary (its buckets are
// unexported).
func resultsDigest(res *engine.Results) (string, error) {
	h := res.AppLatency
	b, err := json.Marshal(struct {
		*engine.Results
		LatCount               uint64
		LatMean, LatMin        time.Duration
		LatP50, LatP99, LatMax time.Duration
	}{res, h.Count(), h.Mean(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max()})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digest(b), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// layers runs the layer replays over streams captured from extra traced
// runs of the first seed's cells.
func (w *stackWorkload) layers(tr *tracer) error {
	tr.capture = true
	defer func() { tr.capture = false }()
	for _, spec := range w.specs[:len(experiments.Schemes)] {
		tr.resetCapture()
		st := w.build(spec, tr)
		if _, cell := runStack(st, spec); cell.err != nil {
			return cell.err
		}
		tr.replay(stackConfig(spec), experiments.NewGenerator(spec))
	}
	return nil
}
