// Package runner is the parallel experiment-execution engine for the
// MIDAS reproduction. Every evaluation experiment (§5) is a sweep over
// independent random topologies; runner.Map and runner.Sweep execute
// those task bodies on a bounded worker pool while preserving the exact
// numbers of a sequential run:
//
//   - Each task derives its randomness from the experiment's root seed
//     and its own index (root.SplitN(label, i)), never from a shared
//     stream, so results are independent of scheduling order.
//   - Results are collected into a slice indexed by task, so downstream
//     aggregation (stats.Sample accumulation, CDFs) sees them in task
//     order regardless of completion order.
//   - On error the pool cancels outstanding work and reports the
//     lowest-index failure among the tasks that ran; at Parallelism 1
//     that is exactly the error a sequential loop would have stopped on.
//
// Pools nest (a replicated spec's run pool over each run's topology
// sweep) under one process-wide budget: the calling goroutine always
// runs tasks itself, and each extra helper must take one of
// GOMAXPROCS-1 helper slots shared by every pool. A caller never waits
// for a slot; it tries again between its own tasks. So nesting cannot
// deadlock, and one top-level caller never has more than GOMAXPROCS
// task bodies running at once, at any depth.
//
// The engine also reports per-task timing through Options.OnDone and
// feeds the structured result sinks in sink.go, which serialize whole
// experiment snapshots as text, JSON or CSV.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Options configure one Map or Sweep invocation.
type Options struct {
	// Parallelism bounds how many of this pool's tasks run at once:
	// the caller plus up to Parallelism-1 helpers. Values <= 0 select
	// runtime.GOMAXPROCS(0); 1 is a plain sequential loop.
	Parallelism int
	// OnDone, when non-nil, is invoked after every completed task with
	// that task's timing and the pool's overall progress. Invocations
	// are serialized; the callback must not block for long.
	OnDone func(Progress)
}

// Progress describes one completed task.
type Progress struct {
	Index     int           // which task finished
	Completed int           // tasks finished so far, including this one
	Total     int           // tasks in the run
	Elapsed   time.Duration // wall time of this task
}

// helpers counts the helper goroutines of every pool in the process.
var helpers atomic.Int64

// takeHelperSlot claims one of the GOMAXPROCS-1 helper slots if one is
// free, without waiting. The holder returns it with helpers.Add(-1).
func takeHelperSlot() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := helpers.Load()
		if cur >= limit {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// TaskError wraps a task failure with the index it occurred at.
type TaskError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *TaskError) Error() string {
	return fmt.Sprintf("runner: task %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying task error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// Map runs fn(ctx, 0) … fn(ctx, n-1) on the calling goroutine and its
// helpers and returns the results ordered by index. The work function
// must be safe to call from multiple goroutines for distinct indices
// and must not share mutable state between indices — derive per-task
// randomness from an immutable root (see Sweep).
//
// If any task fails, or ctx is cancelled, Map cancels the context passed
// to the remaining tasks, stops dispatching new ones, waits for in-flight
// tasks, and returns a nil slice with a *TaskError for the lowest-index
// failure that ran (at Parallelism 1, exactly the failure a sequential
// loop would have stopped on) or the context error.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	var (
		next      atomic.Int64 // next index to dispatch
		failed    atomic.Bool
		doneMu    sync.Mutex // serializes OnDone and guards completed
		completed int
		wg        sync.WaitGroup
	)

	// run reports whether its goroutine should go on claiming tasks.
	run := func(i int) bool {
		start := time.Now()
		v, err := fn(ctx, i)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			cancel() // stop dispatching; in-flight tasks drain
			return false
		}
		results[i] = v
		if opts.OnDone != nil {
			// Completed is incremented under the same lock that
			// serializes OnDone, so callbacks observe a strictly
			// monotonic count.
			doneMu.Lock()
			completed++
			opts.OnDone(Progress{Index: i, Completed: completed, Total: n, Elapsed: time.Since(start)})
			doneMu.Unlock()
		}
		return true
	}
	claim := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n && ctx.Err() == nil
	}
	helper := func() {
		defer wg.Done()
		defer helpers.Add(-1)
		for {
			if i, ok := claim(); !ok || !run(i) {
				return
			}
		}
	}

	// The caller claims each task before it starts helpers, so it
	// always runs task 0.
	width := opts.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	for workers := 1; ; {
		i, ok := claim()
		if !ok {
			break
		}
		for workers < width && int(next.Load()) < n && takeHelperSlot() {
			workers++
			wg.Add(1)
			go helper()
		}
		if !run(i) {
			break
		}
	}
	wg.Wait()

	if failed.Load() {
		for i, err := range errs {
			if err != nil {
				return nil, &TaskError{Index: i, Err: err}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Sweep is the topology-sweep entry point: it runs n tasks, handing task
// i the deterministic rng child root.SplitN(label, i) of the experiment
// seed. Because rng.Source.Split derives children from the parent's
// immutable seed (it never advances or reads the parent's stream), the
// derivation is identical whether tasks run on one goroutine or many,
// and every task owns its child exclusively — the discipline that makes
// parallel results bit-identical to a sequential run.
func Sweep[T any](ctx context.Context, n int, seed int64, label string, opts Options, fn func(ctx context.Context, i int, src *rng.Source) (T, error)) ([]T, error) {
	root := rng.New(seed)
	return Map(ctx, n, opts, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i, root.SplitN(label, i))
	})
}

// SweepRoot is Sweep for experiments whose per-task derivation does not
// follow the root.SplitN(label, i) convention (nested sweeps, per-arm
// labels): task i receives the shared root source and derives its own
// children. The root must only be used for Split/SplitN inside tasks —
// drawing from it would race and break determinism.
func SweepRoot[T any](ctx context.Context, n int, seed int64, opts Options, fn func(ctx context.Context, i int, root *rng.Source) (T, error)) ([]T, error) {
	root := rng.New(seed)
	return Map(ctx, n, opts, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i, root)
	})
}
