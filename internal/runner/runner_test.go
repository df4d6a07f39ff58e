package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestMapOrdersResults verifies results land at their task index no
// matter which worker finishes first.
func TestMapOrdersResults(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		res, err := Map(context.Background(), 50, Options{Parallelism: par}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if len(res) != 50 {
			t.Fatalf("parallel=%d: got %d results", par, len(res))
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("parallel=%d: res[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestMapBoundsParallelism checks the pool never runs more than
// Parallelism tasks at once.
func TestMapBoundsParallelism(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), 40, Options{Parallelism: par}, func(_ context.Context, i int) (struct{}, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > par {
		t.Fatalf("observed %d concurrent tasks, want <= %d", got, par)
	}
}

// trackPeak counts one more body in flight and raises peak to match.
// The caller must inFlight.Add(-1) when the body ends.
func trackPeak(inFlight, peak *atomic.Int64) int64 {
	n := inFlight.Add(1)
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return n
		}
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return cond()
}

// TestMapNestedBoundedByGOMAXPROCS runs three levels of nested pools,
// each wide enough to want 8 goroutines on its own: whatever the
// nesting, the pools together never run more than GOMAXPROCS leaf
// bodies at once, and the results equal a sequential loop's.
func TestMapNestedBoundedByGOMAXPROCS(t *testing.T) {
	const outer, inner, leaf = 8, 8, 4
	value := func(i, j, k int) int { return 1000*i + 10*j + k }
	want := make([]int, outer)
	for i := range want {
		for j := 0; j < inner; j++ {
			for k := 0; k < leaf; k++ {
				want[i] += value(i, j, k)
			}
		}
	}
	sum := func(xs []int) (s int) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	opts := Options{Parallelism: 8}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var inFlight, peak atomic.Int64
			got, err := Map(context.Background(), outer, opts, func(ctx context.Context, i int) (int, error) {
				row, err := Map(ctx, inner, opts, func(ctx context.Context, j int) (int, error) {
					cell, err := Map(ctx, leaf, opts, func(_ context.Context, k int) (int, error) {
						trackPeak(&inFlight, &peak)
						defer inFlight.Add(-1)
						time.Sleep(50 * time.Microsecond)
						return value(i, j, k), nil
					})
					return sum(cell), err
				})
				return sum(row), err
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("outer task %d = %d, sequential loop gives %d", i, got[i], want[i])
				}
			}
			if p := peak.Load(); p > int64(procs) {
				t.Fatalf("observed %d concurrent bodies, want <= GOMAXPROCS = %d", p, procs)
			}
			if h := helpers.Load(); h != 0 {
				t.Fatalf("%d helper slots still held after every pool returned", h)
			}
		})
	}
}

// TestMapNestedPicksUpReleasedSlot pins the retry between tasks: at
// GOMAXPROCS 2 the outer pool's helper holds the only slot, so the
// caller's inner sweep starts inline; once that helper finishes, the
// inner sweep takes the freed slot and reaches 2 concurrent bodies.
func TestMapNestedPicksUpReleasedSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	release := make(chan struct{})
	var inFlight, peak atomic.Int64
	_, err := Map(context.Background(), 2, Options{Parallelism: 2}, func(ctx context.Context, i int) (struct{}, error) {
		if i == 1 { // the outer helper's task: the caller always runs task 0
			<-release
			return struct{}{}, nil
		}
		_, err := Map(ctx, 3, Options{Parallelism: 2}, func(_ context.Context, j int) (struct{}, error) {
			n := trackPeak(&inFlight, &peak)
			defer inFlight.Add(-1)
			if j == 0 {
				if h := helpers.Load(); n != 1 || h != 1 {
					return struct{}{}, fmt.Errorf("inner sweep started with %d bodies in flight and %d slots held, want 1 and 1", n, h)
				}
				close(release)
				if !waitFor(func() bool { return helpers.Load() == 0 }) {
					return struct{}{}, errors.New("the outer helper never released its slot")
				}
				return struct{}{}, nil
			}
			if !waitFor(func() bool { return peak.Load() >= 2 }) {
				return struct{}{}, errors.New("the inner sweep never ran 2 bodies at once after the slot was freed")
			}
			return struct{}{}, nil
		})
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("inner sweep peaked at %d concurrent bodies, want 2", p)
	}
}

// TestMapReportsLowestIndexError verifies the pool reports the failure a
// sequential loop would have stopped on, regardless of completion order.
func TestMapReportsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), 64, Options{Parallelism: 8}, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 { // tasks 1, 3, 5, … fail
			return 0, fmt.Errorf("task %d: %w", i, sentinel)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("want *TaskError, got %T: %v", err, err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap sentinel", err)
	}
	// Which odd tasks ran before cancellation is scheduling-dependent,
	// but the reported failure is always a task that genuinely failed,
	// and the lowest-index one among those that ran.
	if te.Index%2 != 1 {
		t.Fatalf("reported index %d, which did not fail", te.Index)
	}
}

// TestMapErrorCancelsOutstandingTasks verifies a failure stops the
// sweep early instead of draining all n tasks.
func TestMapErrorCancelsOutstandingTasks(t *testing.T) {
	var started atomic.Int64
	_, err := Map(context.Background(), 10000, Options{Parallelism: 2}, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started after early failure, want far fewer than 10000", n)
	}
}

// TestMapContextCancellation verifies an external cancel stops dispatch
// and surfaces context.Canceled.
func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	res, err := Map(ctx, 10000, Options{Parallelism: 4}, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run must not return partial results")
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started after cancel, want far fewer than 10000", n)
	}
}

// TestSweepDeterministicAcrossParallelism is the core guarantee: the
// same seed yields bit-identical per-task randomness at any pool size.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) []float64 {
		res, err := Sweep(context.Background(), 40, 2014, "det", Options{Parallelism: par},
			func(_ context.Context, i int, src *rng.Source) (float64, error) {
				// Consume a realistic mix of draws from the task's stream.
				v := src.Float64()
				v += src.Gauss(0, 1)
				v += float64(src.Intn(1000))
				return v, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("parallel=%d: task %d = %v, sequential = %v", par, i, got[i], seq[i])
			}
		}
	}
}

// TestSweepMatchesManualDerivation pins the derivation convention other
// packages rely on: task i sees exactly root.SplitN(label, i).
func TestSweepMatchesManualDerivation(t *testing.T) {
	res, err := Sweep(context.Background(), 5, 7, "fig", Options{Parallelism: 3},
		func(_ context.Context, i int, src *rng.Source) (float64, error) {
			return src.Float64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(7)
	for i, v := range res {
		if want := root.SplitN("fig", i).Float64(); v != want {
			t.Fatalf("task %d drew %v, manual derivation gives %v", i, v, want)
		}
	}
}

// TestOnDoneProgress verifies every task reports exactly once with a
// consistent completion counter.
func TestOnDoneProgress(t *testing.T) {
	const n = 30
	var mu sync.Mutex
	seen := make(map[int]bool)
	_, err := Map(context.Background(), n, Options{
		Parallelism: 5,
		OnDone: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if seen[p.Index] {
				t.Errorf("task %d reported twice", p.Index)
			}
			seen[p.Index] = true
			if p.Total != n {
				t.Errorf("Total = %d, want %d", p.Total, n)
			}
			// Callbacks are serialized and the counter is incremented
			// under the same lock, so Completed counts callbacks exactly.
			if p.Completed != len(seen) {
				t.Errorf("Completed = %d at callback %d", p.Completed, len(seen))
			}
		},
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d progress callbacks, want %d", len(seen), n)
	}
}

// TestMapZeroTasks ensures the degenerate sweep is a no-op.
func TestMapZeroTasks(t *testing.T) {
	res, err := Map(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("task ran")
		return 0, nil
	})
	if err != nil || res != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", res, err)
	}
}

// TestSweepErrorCancelsRemainingShards is the direct Sweep-level
// cancellation contract the scenario engine relies on: when one shard
// of a sweep fails, the context handed to in-flight shards is
// cancelled, no further shards are dispatched, and the lowest-index
// failure is the one reported. Shards before the failing index return
// instantly, so the failing shard is deterministically the lowest
// error.
func TestSweepErrorCancelsRemainingShards(t *testing.T) {
	const n, failAt = 64, 3
	var started atomic.Int32
	res, err := Sweep(context.Background(), n, 99, "exp", Options{Parallelism: 2},
		func(ctx context.Context, i int, src *rng.Source) (int, error) {
			started.Add(1)
			if i < failAt {
				return i, nil
			}
			if i == failAt {
				return 0, fmt.Errorf("shard %d exploded", i)
			}
			// Later shards are slow but cancellation-aware: if the pool
			// failed to cancel them, this test would crawl through all
			// 64 at 100 ms each instead of finishing immediately.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(100 * time.Millisecond):
				return i, nil
			}
		})
	if res != nil {
		t.Fatalf("failed sweep must not return partial results (got %d)", len(res))
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T) is not a *TaskError", err, err)
	}
	if te.Index != failAt {
		t.Errorf("reported error index %d, want the lowest failure %d", te.Index, failAt)
	}
	if !strings.Contains(err.Error(), "exploded") {
		t.Errorf("error %q must carry the task's own message", err)
	}
	if got := started.Load(); got >= n {
		t.Errorf("%d of %d shards started despite the early failure — remaining shards were not cancelled", got, n)
	}
}
