package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lbica/internal/experiments"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func runSmoke(t *testing.T, workload string, seed int64, trace bool) (result, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 1e-3, trace: trace, spansDir: t.TempDir(), scale: smokeScale}
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	var ctx struct{ Context map[string]any }
	if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &res) != nil || json.Unmarshal([]byte(lines[0]), &ctx) != nil {
		t.Fatalf("%s: unexpected output:\n%s", workload, out.String())
	}
	return res, ctx.Context
}

// TestSmoke runs every workload at reduced size, untraced and traced, on
// the reference seed and on a held-out seed, and checks that every named
// metric prints with its unit and every output check passes.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{referenceSeed, false}, {referenceSeed, true}, {7, false}} {
			seed, trace := run.seed, run.trace
			{
				res, ctx := runSmoke(t, w.Name, seed, trace)
				want := bj.EndToEnd
				if trace {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s seed %d trace %v: %d metrics, want %d", w.Name, seed, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s seed %d trace %v: metric %s = %+v, want unit %q", w.Name, seed, trace, m.Name, got, m.Unit)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d problems=%v",
						w.Name, seed, trace, res.Correct, res.Attempted, res.Failed, ctx["problems"])
				}
				if !trace {
					if f := res.Metrics["match_frac"].Value; f != 1 {
						t.Errorf("%s seed %d: match_frac %v", w.Name, seed, f)
					}
					for _, k := range []string{"nproc", "gomaxprocs", "workers", "host.steal_frac", "wall_samples", "cpu_samples", "setup_samples"} {
						if _, ok := ctx[k]; !ok {
							t.Errorf("%s: context lacks %s", w.Name, k)
						}
					}
				}
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program has %s (%s)", i, bj.PerLayer[i], m.name, m.unit)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	ref := loadReference()
	for _, wl := range workloadNames {
		for _, sc := range []scale{fullScale, smokeScale} {
			if len(ref[wl][sc.name]) == 0 {
				t.Errorf("reference.json has no digests for %s at scale %s", wl, sc.name)
			}
		}
	}
}

// TestStackMatchesExperimentsRun pins the single-stack workloads to the
// public run path: the stacks the benchmark assembles produce the same
// results as experiments.Run on the same spec.
func TestStackMatchesExperimentsRun(t *testing.T) {
	w := newStackWorkload("mail", 3, smokeScale)
	for _, spec := range w.specs {
		_, cell := runStack(w.build(spec, nil), spec)
		want, err := resultsDigest(experiments.Run(spec))
		if err != nil || cell.err != nil || cell.digest != want {
			t.Errorf("%s: benchmark digest %s (%v), experiments.Run %s (%v)", spec.Scheme, cell.digest, cell.err, want, err)
		}
	}
}

// TestWriteReference regenerates reference.json when
// HOSTBENCH_WRITE_REFERENCE=1.
func TestWriteReference(t *testing.T) {
	if os.Getenv("HOSTBENCH_WRITE_REFERENCE") != "1" {
		t.Skip("set HOSTBENCH_WRITE_REFERENCE=1 to regenerate reference.json")
	}
	ref := referenceDigests{}
	for _, wl := range workloadNames {
		ref[wl] = map[string]map[string]string{}
		for _, sc := range []scale{fullScale, smokeScale} {
			w, err := newWorkload(wl, referenceSeed, sc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.setup(); err != nil {
				t.Fatal(err)
			}
			out := w.prepare(nil)()
			cells := map[string]string{}
			for _, c := range out.cells {
				if c.err != nil {
					t.Fatalf("%s/%s: %v", wl, c.name, c.err)
				}
				cells[c.name] = c.digest
			}
			ref[wl][sc.name] = cells
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
