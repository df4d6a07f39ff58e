package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// atWidth is a WorkerConfig.Run that runs every leased shard at inner
// width p instead of the width the shard spec carries. Results must
// not depend on it.
func atWidth(p int) func(context.Context, scenario.Spec) (scenario.Result, error) {
	return func(ctx context.Context, spec scenario.Spec) (scenario.Result, error) {
		spec.Parallelism = p
		return runShard(ctx, spec)
	}
}

// testSpec resolves a small swept+replicated spec: 2 sweep points × 2
// replicates = 4 shards of real engine work, each fast.
func testSpec(t *testing.T) (scenario.Scenario, scenario.Spec) {
	t.Helper()
	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Resolve(sc, scenario.Spec{
		Topologies: 2, Seed: 17, Replicates: 2,
		Sweep: map[string][]float64{"seed": {101, 102}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc, spec
}

// startCoordinator builds a Coordinator on a test HTTP server, with a
// fast sweeper so lease-expiry tests run in milliseconds.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 5 * time.Millisecond
	}
	c := New(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// runJob dispatches spec on c in the background, returning a channel
// with the outcome.
type jobOutcome struct {
	res scenario.Result
	err error
}

func dispatchAsync(ctx context.Context, c *Coordinator, sc scenario.Scenario, spec scenario.Spec) <-chan jobOutcome {
	out := make(chan jobOutcome, 1)
	go func() {
		res, err := c.Run(ctx, sc, spec, scenario.RunOptions{})
		out <- jobOutcome{res, err}
	}()
	return out
}

// TestDistributedMatchesSingleProcess is the headline contract: a spec
// executed by real workers over the real HTTP protocol produces the
// byte-identical Result of the single-process engine run.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	sc, spec := testSpec(t)
	want, err := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c, srv := startCoordinator(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_ = RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				ID:          fmt.Sprintf("w%d", w),
				Run:         atWidth(1 + w), // different widths must not matter
			})
		}(w)
	}
	defer wg.Wait()
	defer cancel()

	var progress []int
	var mu sync.Mutex
	got, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{
		OnProgress: func(completed, total int) {
			mu.Lock()
			progress = append(progress, completed)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := want.MarshalIndent()
	gotJSON, err := got.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("distributed result differs from single-process:\nwant: %s\ngot:  %s", wantJSON, gotJSON)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(progress) != spec.ExpandedRuns() {
		t.Fatalf("OnProgress fired %d times, want %d", len(progress), spec.ExpandedRuns())
	}
	for i, p := range progress {
		if p != i+1 {
			t.Fatalf("OnProgress not monotonic: %v", progress)
		}
	}
}

// TestLeaseExpiryRequeues: a worker that takes a shard and goes silent
// has it requeued after the lease TTL, and another worker finishes the
// job.
func TestLeaseExpiryRequeues(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{
		LeaseTTL:    30 * time.Millisecond,
		BackoffBase: time.Millisecond,
		WorkerTTL:   20 * time.Millisecond, // the empty lease below parks 10ms
		Telemetry:   reg,
	})

	// The vanishing worker: leases one shard and never reports.
	var lr LeaseResponse
	leaseOne(t, srv.URL, "vanisher", 1, &lr)
	if len(lr.Leases) != 0 {
		t.Fatal("lease granted before any job was dispatched")
	}
	done := dispatchAsync(context.Background(), c, sc, spec)
	for deadline := time.Now().Add(time.Second); ; {
		leaseOne(t, srv.URL, "vanisher", 1, &lr)
		if len(lr.Leases) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(time.Millisecond)
	}

	// An honest worker drains the queue — including the abandoned
	// shard once its lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "honest", Run: atWidth(1),
		})
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("dispatch failed: %v", out.err)
	}
	cancel()
	<-workerDone

	if n := counterValue(t, reg, "midas_shard_requeues_total", `reason="expired"`); n < 1 {
		t.Errorf("expired-lease requeues = %v, want >= 1", n)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)
}

// TestWorkerCrashMidShard: a worker whose process dies mid-shard (its
// Run never returns, its connection just stops) does not lose the
// shard — the lease expires, the shard requeues, a healthy worker
// completes the job with correct bytes.
func TestWorkerCrashMidShard(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{
		LeaseTTL:    30 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Telemetry:   reg,
	})
	done := dispatchAsync(context.Background(), c, sc, spec)

	// The crasher: takes one lease and "dies" inside the engine run —
	// Run never returns, nothing is ever published, exactly like a
	// kill -9'd process's work vanishing. (The blocked goroutine leaks
	// until the test binary exits; that is the point.)
	crashed := make(chan struct{})
	go func() {
		_ = RunWorker(context.Background(), WorkerConfig{
			Coordinator: srv.URL, ID: "crasher", MaxBatch: 1,
			Run: func(context.Context, scenario.Spec) (scenario.Result, error) {
				close(crashed)
				select {} // the crash: worker gone, shard still leased
			},
		})
	}()
	<-crashed

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "survivor", Run: atWidth(1),
		})
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("dispatch failed after worker crash: %v", out.err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)
	if n := counterValue(t, reg, "midas_shard_requeues_total", `reason="expired"`); n < 1 {
		t.Errorf("crash produced no expired requeue (got %v)", n)
	}
}

// TestDuplicateCompletionAfterRequeue: a slow worker completing a
// lease that already expired and was re-executed elsewhere is answered
// "stale" (or "duplicate" if under the completed lease id) and its
// payload discarded — exactly one accepted completion per shard.
func TestDuplicateCompletionAfterRequeue(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{
		LeaseTTL:    20 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Telemetry:   reg,
	})
	done := dispatchAsync(context.Background(), c, sc, spec)

	// Take one lease and sit on it past expiry.
	var lr LeaseResponse
	waitLease(t, srv.URL, "slowpoke", &lr)
	slow := lr.Leases[0]

	// Let an honest fleet finish everything (including slowpoke's
	// shard, re-leased after expiry).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "honest", Run: atWidth(1),
		})
	}()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}

	// Now the slowpoke wakes up and reports its ancient lease.
	res, err := runShardForTest(t, slow.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	postForTest(t, srv.URL+"/v1/shards/"+slow.ID+"/complete",
		CompleteRequest{Proto: ProtoVersion, Worker: "slowpoke", Result: &res}, &cr)
	if cr.Status != "stale" && cr.Status != "duplicate" {
		t.Fatalf("late completion status = %q, want stale or duplicate", cr.Status)
	}
	// Re-report the same id again: still classified, still discarded.
	postForTest(t, srv.URL+"/v1/shards/"+slow.ID+"/complete",
		CompleteRequest{Proto: ProtoVersion, Worker: "slowpoke", Result: &res}, &cr)
	if cr.Status != "stale" && cr.Status != "duplicate" {
		t.Fatalf("repeat completion status = %q", cr.Status)
	}

	if n := counterValue(t, reg, "midas_shards_completed_total", `status="accepted"`); n != float64(spec.ExpandedRuns()) {
		t.Errorf("accepted completions = %v, want exactly %d", n, spec.ExpandedRuns())
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)
}

// TestCoordinatorRestartStalePublish: completions addressed to a
// previous coordinator incarnation (its lease ids die with it) are
// classified stale by the new one, never crash it, and the respawned
// job runs cleanly.
func TestCoordinatorRestartStalePublish(t *testing.T) {
	sc, spec := testSpec(t)

	// First incarnation: grant a lease, then die.
	c1, srv1 := startCoordinator(t, Config{})
	done1 := dispatchAsync(context.Background(), c1, sc, spec)
	var lr LeaseResponse
	waitLease(t, srv1.URL, "w1", &lr)
	old := lr.Leases[0]
	srv1.Close()
	c1.Close()
	if out := <-done1; out.err == nil {
		t.Fatal("job survived its coordinator's death")
	}

	// Second incarnation on a fresh listener (same logical service).
	c2, srv2 := startCoordinator(t, Config{})
	done2 := dispatchAsync(context.Background(), c2, sc, spec)

	// The worker that outlived the restart publishes its result under
	// the dead incarnation's lease id.
	res, err := runShardForTest(t, old.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	postForTest(t, srv2.URL+"/v1/shards/"+old.ID+"/complete",
		CompleteRequest{Proto: ProtoVersion, Worker: "w1", Result: &res}, &cr)
	if cr.Status != "stale" {
		t.Fatalf("cross-incarnation completion status = %q, want stale", cr.Status)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv2.URL, ID: "w2", Run: atWidth(1),
		})
	}()
	out := <-done2
	if out.err != nil {
		t.Fatal(out.err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)
}

// TestRetryBudgetExhaustionFailsJob: a shard that fails on every
// attempt fails its whole job with the budget in the error, instead of
// requeueing forever.
func TestRetryBudgetExhaustionFailsJob(t *testing.T) {
	sc, spec := testSpec(t)
	c, srv := startCoordinator(t, Config{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
	})
	var attempts atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "doomed",
			Run: func(_ context.Context, _ scenario.Spec) (scenario.Result, error) {
				attempts.Add(1)
				return scenario.Result{}, fmt.Errorf("synthetic shard failure")
			},
		})
	}()
	_, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{})
	if err == nil {
		t.Fatal("job succeeded despite every shard failing")
	}
	if !strings.Contains(err.Error(), "synthetic shard failure") || !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget-exhaustion error lacks cause/budget: %v", err)
	}
}

// TestRunContextCancel: cancelling the dispatching caller's context
// fails the job promptly and discards the pending shards.
func TestRunContextCancel(t *testing.T) {
	sc, spec := testSpec(t)
	c, _ := startCoordinator(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	cancel() // no workers exist; the job would otherwise wait forever
	out := <-done
	if out.err == nil {
		t.Fatal("cancelled dispatch returned a result")
	}
	c.mu.Lock()
	jobs := len(c.jobs)
	c.mu.Unlock()
	if jobs != 0 {
		t.Errorf("cancelled job still in table: %d jobs", jobs)
	}
}

// TestCloseFailsInflightJobs: Close is a clean shutdown — every
// in-flight Run returns ErrClosed, and later Runs are rejected.
func TestCloseFailsInflightJobs(t *testing.T) {
	sc, spec := testSpec(t)
	c := New(Config{SweepInterval: 5 * time.Millisecond})
	done := dispatchAsync(context.Background(), c, sc, spec)
	c.Close()
	if out := <-done; out.err == nil {
		t.Fatal("Run survived Close")
	}
	if _, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{}); err == nil {
		t.Fatal("Run accepted after Close")
	}
	c.Close() // idempotent
}

// TestWorkerLivenessTTL: workers appear in the live count while
// polling and age out after the worker TTL.
func TestWorkerLivenessTTL(t *testing.T) {
	c, srv := startCoordinator(t, Config{WorkerTTL: 40 * time.Millisecond})
	if n := c.LiveWorkers(); n != 0 {
		t.Fatalf("live workers before any poll = %d", n)
	}
	var lr LeaseResponse
	leaseOne(t, srv.URL, "transient", 1, &lr)
	if n := c.LiveWorkers(); n != 1 {
		t.Fatalf("live workers after poll = %d, want 1", n)
	}
	deadline := time.Now().Add(time.Second)
	for c.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never aged out of the live set")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleRunSpecDispatches: even a spec that expands to one shard
// round-trips the protocol correctly (midas-serve routes those
// in-process, but the coordinator must not depend on it).
func TestSingleRunSpecDispatches(t *testing.T) {
	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Resolve(sc, scenario.Spec{Topologies: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startCoordinator(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "solo", Run: atWidth(1),
		})
	}()
	got, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, got)
}

// ---------------------------------------------------------------------
// helpers

func leaseOne(t *testing.T, base, worker string, max int, out *LeaseResponse) {
	t.Helper()
	*out = LeaseResponse{}
	postForTest(t, base+"/v1/shards/lease", LeaseRequest{Proto: ProtoVersion, Worker: worker, Max: max}, out)
}

// waitLease polls until one lease is granted.
func waitLease(t *testing.T, base, worker string, out *LeaseResponse) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaseOne(t, base, worker, 1, out)
		if len(out.Leases) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

func postForTest(t *testing.T, url string, body, out any) {
	t.Helper()
	if err := postJSON(context.Background(), http.DefaultClient, url, body, out); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
}

func runShardForTest(t *testing.T, spec scenario.Spec) (scenario.Result, error) {
	t.Helper()
	spec.Parallelism = 1
	return runShard(context.Background(), spec)
}

func assertSameResult(t *testing.T, want, got scenario.Result) {
	t.Helper()
	wantJSON, err := want.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("results differ:\nwant: %s\ngot:  %s", wantJSON, gotJSON)
	}
}

// counterValue scrapes reg's exposition output for one sample line.
func counterValue(t *testing.T, reg *telemetry.Registry, name, label string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	prefix := name
	if label != "" {
		prefix = name + "{" + label + "}"
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix+" "), "%g", &v); err != nil {
				t.Fatalf("parsing sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", prefix, sb.String())
	return 0
}
