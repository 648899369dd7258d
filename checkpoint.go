package lbica

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"lbica/internal/checkpoint"
	"lbica/internal/engine"
)

// checkpointKey is the canonical identity of a single-stack run: every
// normalized option that shapes the simulation, plus the checkpoint
// format version. A restore whose options produce a different key is
// resuming a different experiment and is rejected outright — unlike the
// sweep's warm cache (where a bad entry silently degrades to scratch), a
// checkpoint file named explicitly by the user is a hard contract.
func checkpointKey(o Options) string {
	t := o.Thresholds.coreThresholds().Normalize()
	id := struct {
		Format                       int
		Workload, Name, Scheme       string
		Seed                         int64
		Intervals                    int
		IntervalNS                   int64
		RateFactor                   float64
		Phases                       []Phase
		CacheMiB, CacheWays          int
		Replacement                  string
		DominantPair, MemberMin      float64
		PromoteAlone, ReadAlone      float64
		MinQueued                    int
		DiskElevator, DisablePrewarm bool
	}{
		Format:         checkpoint.FormatVersion,
		Workload:       strings.ToLower(o.Workload),
		Name:           o.Name,
		Scheme:         strings.ToLower(o.Scheme),
		Seed:           o.Seed,
		Intervals:      o.Intervals,
		IntervalNS:     int64(o.IntervalLength),
		RateFactor:     o.RateFactor,
		Phases:         o.Phases,
		CacheMiB:       o.CacheMiB,
		CacheWays:      o.CacheWays,
		Replacement:    o.Replacement,
		DominantPair:   t.DominantPair,
		MemberMin:      t.MemberMin,
		PromoteAlone:   t.PromoteAlone,
		ReadAlone:      t.ReadAlone,
		MinQueued:      t.MinQueued,
		DiskElevator:   o.DiskElevator,
		DisablePrewarm: o.DisablePrewarm,
	}
	// The struct holds only JSON-marshalable field types, so Marshal
	// cannot fail; json gives a canonical, human-inspectable encoding.
	b, _ := json.Marshal(id)
	return "run|" + string(b)
}

// checkpointable rejects option combinations the single-run checkpoint
// path does not cover.
func checkpointable(o Options) error {
	if o.Volumes > 1 {
		return fmt.Errorf("lbica: checkpoint/restore needs a single volume (got Volumes %d); multi-volume warmups persist through the sweep warm cache instead (lbicasweep -warm-cache)", o.Volumes)
	}
	if o.TraceWriter != nil || o.RecordTo != nil || o.ReplayFrom != nil {
		return fmt.Errorf("lbica: checkpoint/restore does not compose with TraceWriter, RecordTo or ReplayFrom")
	}
	return nil
}

// buildSingleStack assembles the single-volume stack for normalized
// options, exactly as RunContext's single-stack path wires it (minus
// trace/record plumbing, which checkpointable rejects). A restore target
// skips the prewarm: the checkpoint overwrites the cache.
func buildSingleStack(o Options, restore bool) (*engine.Stack, error) {
	gen, err := buildWorkload(o, nil)
	if err != nil {
		return nil, err
	}
	bal, initial, err := buildScheme(o)
	if err != nil {
		return nil, err
	}
	cfg, err := buildEngineConfig(o, initial)
	if err != nil {
		return nil, err
	}
	if restore {
		cfg = cfg.ForRestore()
	}
	return engine.New(cfg, gen, bal), nil
}

// RunCheckpoint is RunContext with a mid-run save: the simulation pauses
// at the saveAt-th interval barrier, writes its complete warmed state to
// path (atomically: temp file + rename), then runs to completion and
// returns the full report — byte-identical to the same RunContext call.
// A later RunRestore with the same options resumes from the barrier and
// finishes the identical run. saveAt zero means half the run; it must be
// positive and strictly before Options.Intervals otherwise. Single-volume
// runs only — multi-volume warmups persist through the sweep warm cache.
//
// A cancellation that arrives before the barrier skips the save (no file
// is written — a halted mid-interval state is not a resumable prefix) and
// returns the partial report with ctx.Err(), like RunContext.
func RunCheckpoint(ctx context.Context, o Options, path string, saveAt int) (*Report, error) {
	o, err := normalizeOptions(o)
	if err != nil {
		return nil, err
	}
	if err := checkpointable(o); err != nil {
		return nil, err
	}
	if saveAt < 0 {
		return nil, fmt.Errorf("lbica: negative checkpoint interval %d; zero means half the run", saveAt)
	}
	if saveAt == 0 {
		saveAt = o.Intervals / 2
		if saveAt == 0 {
			saveAt = 1
		}
	}
	if saveAt >= o.Intervals {
		return nil, fmt.Errorf("lbica: checkpoint interval %d is not strictly before the run's %d intervals", saveAt, o.Intervals)
	}
	st, err := buildSingleStack(o, false)
	if err != nil {
		return nil, err
	}
	st.Start(ctx, o.Intervals)
	st.StepTo(time.Duration(saveAt) * o.IntervalLength)
	if ctx.Err() == nil {
		payload, err := checkpoint.EncodeStack(st)
		if err != nil {
			return nil, fmt.Errorf("lbica: encoding checkpoint: %w", err)
		}
		if err := checkpoint.WriteFile(path, checkpointKey(o), [][]byte{payload}); err != nil {
			return nil, fmt.Errorf("lbica: writing checkpoint: %w", err)
		}
	}
	st.Drain()
	res := st.Collect()
	return buildReport(o, res), runCtxErr(ctx, o, res)
}

// RunRestore resumes a run saved with RunCheckpoint: o must describe the
// same run (same workload, scheme, seed, intervals, cache geometry, …) —
// the file records the run's canonical identity and a mismatch is an
// error, as is any corruption, truncation or format-version skew. The
// simulation picks up at the saved barrier and runs to completion; the
// report is byte-identical to the uninterrupted run's.
func RunRestore(ctx context.Context, o Options, path string) (*Report, error) {
	o, err := normalizeOptions(o)
	if err != nil {
		return nil, err
	}
	if err := checkpointable(o); err != nil {
		return nil, err
	}
	key, payloads, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lbica: %w", err)
	}
	if key != checkpointKey(o) {
		return nil, fmt.Errorf("lbica: checkpoint %s was saved for a different run configuration", path)
	}
	if len(payloads) != 1 {
		return nil, fmt.Errorf("lbica: checkpoint %s holds %d stacks; single-run restore needs exactly 1", path, len(payloads))
	}
	st, err := buildSingleStack(o, true)
	if err != nil {
		return nil, err
	}
	if err := checkpoint.DecodeStack(ctx, st, payloads[0]); err != nil {
		return nil, fmt.Errorf("lbica: restoring checkpoint %s: %w", path, err)
	}
	st.Drain()
	res := st.Collect()
	return buildReport(o, res), runCtxErr(ctx, o, res)
}

// runCtxErr applies RunContext's partial-run rule: a cancellation that
// lands only after every requested interval has sampled changed nothing —
// the run is complete, not partial.
func runCtxErr(ctx context.Context, o Options, res *engine.Results) error {
	if err := ctx.Err(); err != nil && len(res.Samples) < o.Intervals {
		return err
	}
	return nil
}
