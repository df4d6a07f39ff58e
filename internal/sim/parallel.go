package sim

import (
	"context"

	"repro/internal/rng"
	"repro/internal/runner"
)

// This file routes every experiment driver's topology loop through the
// internal/runner worker pool. Each topology task derives its randomness
// from the experiment seed and its own index (never from a shared
// stream) and returns a plain value; the helpers collect results in task
// order, so aggregated samples are bit-identical to a sequential run at
// any pool size. Every driver takes its pool width explicitly (a
// parallel argument or an Opts.Parallelism field); a width <= 0
// selects GOMAXPROCS.

// sweepErr runs fn over n topology indices on a pool of par workers
// (<= 0 selects GOMAXPROCS), handing task t the child stream
// rng.New(seed).SplitN(label, t), and returns ordered results or the
// lowest-index task error.
func sweepErr[T any](n int, seed int64, label string, par int, fn func(t int, src *rng.Source) (T, error)) ([]T, error) {
	return runner.Sweep(context.Background(), n, seed, label, runner.Options{Parallelism: par},
		func(_ context.Context, t int, src *rng.Source) (T, error) {
			return fn(t, src)
		})
}

// sweep is sweepErr for infallible task bodies.
func sweep[T any](n int, seed int64, label string, par int, fn func(t int, src *rng.Source) T) []T {
	res, err := sweepErr(n, seed, label, par, func(t int, src *rng.Source) (T, error) {
		return fn(t, src), nil
	})
	if err != nil {
		// Unreachable: tasks cannot fail and the context is never
		// cancelled.
		panic(err)
	}
	return res
}

// sweepRootErr is sweepErr for experiments whose per-task derivation
// does not follow the SplitN(label, t) convention: task t receives the
// shared root source and must only Split/SplitN from it.
func sweepRootErr[T any](n int, seed int64, par int, fn func(t int, root *rng.Source) (T, error)) ([]T, error) {
	return runner.SweepRoot(context.Background(), n, seed, runner.Options{Parallelism: par},
		func(_ context.Context, t int, root *rng.Source) (T, error) {
			return fn(t, root)
		})
}

// sweepRoot is sweepRootErr for infallible task bodies.
func sweepRoot[T any](n int, seed int64, par int, fn func(t int, root *rng.Source) T) []T {
	res, err := sweepRootErr(n, seed, par, func(t int, root *rng.Source) (T, error) {
		return fn(t, root), nil
	})
	if err != nil {
		panic(err) // unreachable, as in sweep
	}
	return res
}
