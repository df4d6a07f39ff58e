package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
)

// Resolve merges overrides onto the scenario's defaults and validates
// the result — the spec every Run ultimately executes. Overriding a
// knob the scenario declares it ignores is an error: the run would
// otherwise proceed and silently measure the default configuration.
func Resolve(sc Scenario, overrides Spec) (Spec, error) {
	if ig, ok := sc.(Ignorer); ok {
		defaults := sc.DefaultSpec()
		for _, knob := range ig.IgnoredKnobs() {
			if overrides.changesKnob(defaults, knob) {
				return Spec{}, fmt.Errorf("scenario: %s does not use the %s knob (it ignores: %s)",
					sc.Name(), knob, strings.Join(ig.IgnoredKnobs(), ", "))
			}
		}
	}
	spec := sc.DefaultSpec().Merge(overrides)
	// An explicit scalar beats an inherited default sweep over the same
	// field: `clients=8` against dense-venue's default clients sweep
	// runs 8, rather than the sweep silently overwriting the override.
	// A sweep the override itself supplies always stands.
	if overrides.Sweep == nil {
		for key := range spec.Sweep {
			if overrides.scalarOverrides(key) {
				delete(spec.Sweep, key)
			}
		}
	}
	spec.Scenario = sc.Name()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// RunOptions tune one engine invocation without being part of the spec
// (they never affect the computed numbers, only how the run reports
// itself while in flight). How wide the run goes is the spec's own
// Parallelism, bounded process-wide by the runner's helper budget.
type RunOptions struct {
	// OnProgress, when non-nil, observes every completed expanded run
	// (sweep point × replicate) with the count finished so far and the
	// total the spec expands to. Invocations are serialized and strictly
	// monotonic in completed; a spec that expands to a single run
	// reports (1, 1) once, on completion.
	OnProgress func(completed, total int)
	// OnRunDone, when non-nil, observes every completed expanded run
	// with the runner's per-task timing (index, wall time, progress) —
	// the telemetry feed. Like OnProgress, invocations are serialized;
	// a single-run spec reports one synthesized Progress on completion.
	OnRunDone func(runner.Progress)
}

// Run resolves the spec, expands its sweep into points, fans every
// point into Replicates runs over split seeds, and dispatches the whole
// flattened task list through the internal/runner worker pool at the
// spec's parallelism. A single-point, single-replicate spec returns the
// scenario's result untouched. Replicated points are merged into
// {mean, stddev, ci95, n} summaries (see aggregateReplicates); multiple
// sweep points merge with a "[label]" prefix on every series, metric,
// summary and text line, in expansion order. Task errors cancel
// outstanding runs and surface the lowest-index failure, exactly like
// any other runner sweep.
func Run(ctx context.Context, sc Scenario, overrides Spec) (Result, error) {
	spec, err := Resolve(sc, overrides)
	if err != nil {
		return Result{}, err
	}
	return RunResolved(ctx, sc, spec, RunOptions{})
}

// RunResolved is Run for callers that already hold a resolved spec
// (Resolve output) — the serving layer resolves once up front to
// compute the spec's cache address, then executes the same value here.
// The spec must come from Resolve for this scenario; a raw override
// spec would run without its scenario defaults.
func RunResolved(ctx context.Context, sc Scenario, spec Spec, opts RunOptions) (Result, error) {
	points := spec.expand()
	reps := spec.Replicates
	if reps < 1 {
		reps = 1
	}
	// Only a truly unswept spec skips labelling: a sweep that expands to
	// one point keeps its "[clients=8]" prefix, so output schema does
	// not depend on sweep cardinality.
	if len(points) == 1 && points[0].Label == "" && reps == 1 {
		start := time.Now()
		res, err := sc.Run(points[0].Spec, rng.New(points[0].Spec.Seed))
		if err == nil {
			if opts.OnProgress != nil {
				opts.OnProgress(1, 1)
			}
			if opts.OnRunDone != nil {
				opts.OnRunDone(runner.Progress{Index: 0, Completed: 1, Total: 1, Elapsed: time.Since(start)})
			}
		}
		return res, err
	}

	// The pool runs up to spec.Parallelism tasks at once, and each
	// task's inner topology sweep nests inside it at the same width;
	// the runner's process-wide helper budget keeps the two within
	// GOMAXPROCS together. Shards() is the same decomposition
	// internal/dispatch leases to remote workers — sharing it (and
	// Assemble below) is what makes a distributed run byte-identical
	// to this one.
	tasks := spec.Shards()
	ropts := runner.Options{Parallelism: spec.Parallelism}
	if opts.OnProgress != nil || opts.OnRunDone != nil {
		ropts.OnDone = func(p runner.Progress) {
			if opts.OnProgress != nil {
				opts.OnProgress(p.Completed, p.Total)
			}
			if opts.OnRunDone != nil {
				opts.OnRunDone(p)
			}
		}
	}
	results, err := runner.Map(ctx, len(tasks), ropts, func(_ context.Context, i int) (Result, error) {
		return sc.Run(tasks[i], rng.New(tasks[i].Seed))
	})
	if err != nil {
		return Result{}, err
	}
	return Assemble(sc.Name(), spec, results)
}

// RunByName resolves name through the registry (exact, then unique
// prefix) and runs it.
func RunByName(ctx context.Context, name string, overrides Spec) (Result, error) {
	sc, err := Find(name)
	if err != nil {
		return Result{}, err
	}
	return Run(ctx, sc, overrides)
}
