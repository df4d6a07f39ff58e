package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// specFor is a cheap distinct spec per seed: the scenario is real (so
// Find/Resolve exercise the registry) but tests that should not
// simulate substitute Config.Run.
func specFor(seed int64) scenario.Spec {
	return scenario.Spec{Scenario: "fig12-spatial-reuse", Topologies: 2, Seed: seed}
}

// fixedResult is what the stub engine "computes".
func fixedResult(spec scenario.Spec) scenario.Result {
	r := scenario.Result{Scenario: spec.Scenario}
	r.AddMetric("seed echo", float64(spec.Seed), "", "")
	r.Series = append(r.Series, runner.Series{Label: "cap", Unit: "bit/s/Hz", Values: []float64{1, 2, 3}})
	return r
}

// countingRun returns a RunFunc that tallies engine invocations and
// reports full progress, plus the counter.
func countingRun() (RunFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(_ context.Context, _ scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error) {
		calls.Add(1)
		if opts.OnProgress != nil {
			opts.OnProgress(spec.ExpandedRuns(), spec.ExpandedRuns())
		}
		return fixedResult(spec), nil
	}, &calls
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Service, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

func mustShutdown(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func renderJob(t *testing.T, s *Service, id string) []byte {
	t.Helper()
	res, spec, err := s.Result(id)
	if err != nil {
		t.Fatalf("Result(%s): %v", id, err)
	}
	body, err := runner.RenderJSON(spec.SinkMeta("midas-serve"), res.RunnerResult())
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return body
}

// sample returns one series' value on the service's /metrics
// exposition. series is the name plus its rendered label set, e.g.
// `midas_jobs{state="done"}`; an absent series fails the test.
func sample(t *testing.T, s *Service, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := s.Telemetry().Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not on the exposition:\n%s", series, sb.String())
	return 0
}

// The acceptance-criteria pin: submitting one spec twice runs the
// engine exactly once; the second job is born done from the cache and
// renders byte-identical JSON.
func TestResubmitIdenticalSpecRunsEngineOnce(t *testing.T) {
	run, calls := countingRun()
	s := New(Config{Workers: 2, Run: run})
	defer mustShutdown(t, s)

	first, err := s.Submit(specFor(7))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("cold submission marked cached")
	}
	st := waitDone(t, s, first.ID)
	if st.State != StateDone {
		t.Fatalf("cold job ended %s (%s)", st.State, st.Error)
	}
	if st.Progress.Completed != st.Progress.Total || st.Progress.Total < 1 {
		t.Fatalf("done job progress %+v", st.Progress)
	}
	cold := renderJob(t, s, first.ID)

	second, err := s.Submit(specFor(7))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.SpecHash != first.SpecHash {
		t.Fatalf("identical specs got different hashes: %s vs %s", first.SpecHash, second.SpecHash)
	}
	warm := renderJob(t, s, second.ID)
	if string(cold) != string(warm) {
		t.Fatalf("cache hit is not byte-identical to the cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine ran %d times for two identical submissions, want exactly 1", n)
	}

	for series, want := range map[string]float64{
		"midas_cache_hits_total":                                      1,
		"midas_cache_misses_total":                                    1,
		`midas_job_run_seconds_count{scenario="fig12-spatial-reuse"}`: 1,
		`midas_jobs{state="done"}`:                                    2,
	} {
		if got := sample(t, s, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// The cache is addressed by the *resolved* spec: restating a scenario
// default is the same computation; changing the seed is not.
func TestCacheKeyedOnResolvedSpec(t *testing.T) {
	run, calls := countingRun()
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	a, err := s.Submit(specFor(5))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, a.ID)

	sc, _ := scenario.Find("fig12-spatial-reuse")
	withDefault := specFor(5)
	withDefault.Clients = sc.DefaultSpec().Clients
	b, err := s.Submit(withDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Fatalf("restating the default clients count missed the cache")
	}

	c, err := s.Submit(specFor(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, c.ID)
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine ran %d times, want 2 (seed 5 once, seed 6 once)", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	run, calls := countingRun()
	s := New(Config{Workers: 1, CacheEntries: 2, Run: run})
	defer mustShutdown(t, s)

	submitAndWait := func(seed int64) {
		t.Helper()
		st, err := s.Submit(specFor(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
	}
	submitAndWait(1)
	submitAndWait(2)
	submitAndWait(3) // evicts seed 1 (LRU)
	if n := calls.Load(); n != 3 {
		t.Fatalf("setup ran engine %d times, want 3", n)
	}

	submitAndWait(1) // evicted: must re-run (and evict seed 2)
	if n := calls.Load(); n != 4 {
		t.Fatalf("evicted spec did not re-run (calls=%d)", n)
	}
	st, err := s.Submit(specFor(3)) // still resident
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatalf("recently used entry was evicted")
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("resident spec re-ran (calls=%d)", n)
	}
}

// resultCache unit behavior the integration tests do not pin: hit
// recency refresh, duplicate puts, and the disabled (max < 1) mode.
func TestResultCacheUnit(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", scenario.Spec{Scenario: "a"}, scenario.Result{Scenario: "a"})
	c.Put("b", scenario.Spec{Scenario: "b"}, scenario.Result{Scenario: "b"})
	if _, spec, ok := c.lookup("a"); !ok || spec.Scenario != "a" { // refreshes a's recency
		t.Fatal("a missing (or lost its spec)")
	}
	c.Put("c", scenario.Spec{Scenario: "c"}, scenario.Result{Scenario: "c"}) // must evict b, not a
	if _, _, ok := c.lookup("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, _, ok := c.lookup("a"); !ok {
		t.Fatal("a evicted despite recent hit")
	}
	c.Put("a", scenario.Spec{Scenario: "a"}, scenario.Result{Scenario: "a"}) // duplicate put: no growth
	if c.Len() != 2 {
		t.Fatalf("len %d after duplicate put, want 2", c.Len())
	}

	off := newResultCache(0)
	off.Put("x", scenario.Spec{}, scenario.Result{})
	if _, _, ok := off.lookup("x"); ok || off.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// Concurrent submissions are bounded by the worker pool: with 2
// workers, at most 2 jobs run at once no matter how many are queued.
func TestConcurrentSubmissionsBoundedByPool(t *testing.T) {
	const workers, jobs = 2, 6
	release := make(chan struct{})
	var current, peak atomic.Int64
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		cur := current.Add(1)
		defer current.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: workers, Run: run})
	defer mustShutdown(t, s)

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		st, err := s.Submit(specFor(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitState(t, s, ids[0], StateRunning)
	waitState(t, s, ids[1], StateRunning)
	running, queued := sample(t, s, `midas_jobs{state="running"}`), sample(t, s, `midas_jobs{state="queued"}`)
	if running != workers || queued != jobs-workers {
		t.Fatalf("midas_jobs: %v running / %v queued, want %d / %d", running, queued, workers, jobs-workers)
	}
	close(release)
	for _, id := range ids {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s ended %s", id, st.State)
		}
	}
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrency %d, want exactly %d", p, workers)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	first, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	second, err := s.Submit(specFor(2))
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, _, err := s.Result(second.ID); err == nil {
		t.Fatal("cancelled job served a result")
	}
	// Double-cancel is an explicit error.
	if _, err := s.Cancel(second.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("double cancel: %v", err)
	}

	close(release)
	if st := waitDone(t, s, first.ID); st.State != StateDone {
		t.Fatalf("first job ended %s", st.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, _ scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		close(started)
		<-ctx.Done() // the engine's context-cancellation path
		return scenario.Result{}, ctx.Err()
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	st, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("running job after cancel ended %s", final.State)
	}
}

func TestFailedJob(t *testing.T) {
	boom := errors.New("boom")
	run := func(context.Context, scenario.Scenario, scenario.Spec, scenario.RunOptions) (scenario.Result, error) {
		return scenario.Result{}, boom
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	st, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, st.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("failed job: %+v", final)
	}
	if _, _, err := s.Result(st.ID); err == nil || !errors.Is(err, boom) {
		t.Fatalf("Result of failed job: %v", err)
	}
}

func TestSubmitRejections(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, QueueDepth: 1, Run: run})
	defer mustShutdown(t, s)
	defer close(release) // LIFO: unblock the pool before the drain

	if _, err := s.Submit(scenario.Spec{}); err == nil {
		t.Fatal("submit with no scenario name accepted")
	}
	if _, err := s.Submit(scenario.Spec{Scenario: "no-such"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := s.Submit(scenario.Spec{Scenario: "fig12-spatial-reuse", Topologies: -1}); err == nil {
		t.Fatal("invalid spec accepted")
	}

	first, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning) // popped: the queue slot is free
	if _, err := s.Submit(specFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(specFor(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue: %v", err)
	}
	if _, err := s.Job("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job id: %v", err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown job: %v", err)
	}
	if _, _, err := s.Result(first.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("result of running job: %v", err)
	}
}

// Graceful drain: Shutdown lets queued and running jobs complete, then
// returns; submissions during and after the drain are rejected.
func TestGracefulShutdownDrainsInFlightJobs(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, Run: run})

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := s.Submit(specFor(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitState(t, s, ids[0], StateRunning)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// The drain must reject new work while waiting for old work.
	rejected := false
	deadline := time.Now().Add(5 * time.Second)
	for !rejected && time.Now().Before(deadline) {
		if _, err := s.Submit(specFor(99)); errors.Is(err, ErrDraining) {
			rejected = true
		}
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Fatal("submissions accepted during drain")
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s ended %s after graceful drain, want done", id, st.State)
		}
	}
}

// Forced drain: when the shutdown context expires, outstanding jobs
// are cancelled instead of completed, and Shutdown still returns only
// after the workers exit.
func TestShutdownDeadlineCancelsOutstandingJobs(t *testing.T) {
	run := func(ctx context.Context, _ scenario.Scenario, _ scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		<-ctx.Done()
		return scenario.Result{}, ctx.Err()
	}
	s := New(Config{Workers: 1, Run: run})

	running, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(specFor(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled {
			t.Fatalf("job %s ended %s after forced shutdown, want cancelled", id, st.State)
		}
	}
	// Shutdown is idempotent once drained.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// Progress streams through from the engine callback, sized by the
// sweep × replicate expansion.
func TestProgressSurfacesExpandedRuns(t *testing.T) {
	step := make(chan struct{})
	run := func(_ context.Context, _ scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error) {
		total := spec.ExpandedRuns()
		for i := 1; i <= total; i++ {
			<-step
			opts.OnProgress(i, total)
		}
		return fixedResult(spec), nil
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	spec := specFor(1)
	spec.Sweep = map[string][]float64{"seed": {3, 4, 5}}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.Total != 3 {
		t.Fatalf("submit-time progress total %d, want 3 (sweep points)", st.Progress.Total)
	}
	for i := 1; i <= 3; i++ {
		step <- struct{}{}
		deadline := time.Now().Add(5 * time.Second)
		for {
			cur, err := s.Job(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Progress.Completed >= i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("progress stuck at %+v waiting for %d", cur.Progress, i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if st := waitDone(t, s, st.ID); st.Progress.Completed != 3 || st.Progress.Total != 3 {
		t.Fatalf("final progress %+v", st.Progress)
	}
}

// With the real engine (Config.Run nil) a small spec runs end to end,
// and a replicated sweep reports summaries exactly like the CLI path.
func TestRealEngineSmallSpec(t *testing.T) {
	s := New(Config{Workers: 2})
	defer mustShutdown(t, s)

	spec := scenario.Spec{Scenario: "fig3", Topologies: 2, Seed: 11,
		Sweep: map[string][]float64{"seed": {3, 4}}}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("real run ended %s (%s)", final.State, final.Error)
	}
	if final.Progress.Total != 2 || final.Progress.Completed != 2 {
		t.Fatalf("progress %+v, want 2/2 sweep points", final.Progress)
	}
	res, _, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("real run produced no series")
	}
	// The served result must be exactly what the engine computes for
	// the same resolved spec — the serving layer adds no transformation.
	sc, err := scenario.Find("fig3")
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := scenario.Resolve(sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.RunResolved(context.Background(), sc, resolved, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.MarshalIndent()
	want, _ := direct.MarshalIndent()
	if string(got) != string(want) {
		t.Fatalf("served result diverges from direct engine run:\nserved: %s\ndirect: %s", got, want)
	}
}

// Jobs get distinct, stable ids.
func TestJobIDsAreUnique(t *testing.T) {
	run, _ := countingRun()
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		st, err := s.Submit(specFor(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		if seen[st.ID] {
			t.Fatalf("duplicate job id %s", st.ID)
		}
		seen[st.ID] = true
		waitDone(t, s, st.ID)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.workers() < 1 || c.queueDepth() != 64 || c.cacheEntries() != 128 {
		t.Fatalf("defaults: workers=%d queue=%d cache=%d", c.workers(), c.queueDepth(), c.cacheEntries())
	}
	c = Config{Workers: 3, QueueDepth: 7, CacheEntries: -1}
	if c.workers() != 3 || c.queueDepth() != 7 || c.cacheEntries() != 0 {
		t.Fatalf("explicit: workers=%d queue=%d cache=%d", c.workers(), c.queueDepth(), c.cacheEntries())
	}
}

func ExampleService() {
	run, _ := countingRun()
	s := New(Config{Workers: 1, Run: run})
	st, _ := s.Submit(scenario.Spec{Scenario: "fig12-spatial-reuse", Topologies: 2, Seed: 3})
	final, _ := s.Wait(context.Background(), st.ID)
	fmt.Println(final.State)
	s.Shutdown(context.Background())
	// Output: done
}

// The job table is bounded: terminal jobs beyond JobRetention are
// forgotten oldest-first, while in-flight jobs and newer terminal ones
// stay pollable. Forgotten specs are still answered by the result
// cache.
func TestJobRetentionBoundsTable(t *testing.T) {
	run, _ := countingRun()
	s := New(Config{Workers: 1, JobRetention: 3, Run: run})
	defer mustShutdown(t, s)

	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		st, err := s.Submit(specFor(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, st.ID)
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if _, err := s.Job(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("job %s should have been forgotten, got %v", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := s.Job(id); err != nil {
			t.Errorf("job %s should be retained: %v", id, err)
		}
	}
	if done := sample(t, s, `midas_jobs{state="done"}`); done != 3 {
		t.Fatalf("retained done jobs %v, want 3", done)
	}
	// Seed 1's job record is gone, but its result is still cached.
	st, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("forgotten job's spec missed the result cache")
	}
}

// Single-flight: identical specs submitted while the first is still in
// flight coalesce onto that run — one engine invocation serves them
// all, byte-identically.
func TestConcurrentIdenticalSpecsCoalesce(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 2, QueueDepth: 1, Run: run})
	defer mustShutdown(t, s)
	defer close(release)

	leader, err := s.Submit(specFor(7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader.ID, StateRunning)

	var followers []JobStatus
	for i := 0; i < 3; i++ {
		st, err := s.Submit(specFor(7))
		if err != nil {
			t.Fatalf("coalesced submit %d: %v", i, err)
		}
		if !st.Coalesced || st.Cached {
			t.Fatalf("submission %d not coalesced: %+v", i, st)
		}
		if st.State != StateRunning {
			t.Fatalf("follower %d does not mirror the leader's state: %s", i, st.State)
		}
		if st.Started == "" {
			t.Fatalf("follower %d reports running with no started time", i)
		}
		followers = append(followers, st)
	}
	// Followers bypass the queue entirely (QueueDepth is 1 and they
	// are 3), and the engine has run once.
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine ran %d times with followers attached, want 1", n)
	}

	release <- struct{}{} // let the leader finish (second worker idles)
	waitDone(t, s, leader.ID)
	want := renderJob(t, s, leader.ID)
	for _, f := range followers {
		st := waitDone(t, s, f.ID)
		if st.State != StateDone || !st.Coalesced {
			t.Fatalf("follower ended %+v", st)
		}
		if got := renderJob(t, s, f.ID); string(got) != string(want) {
			t.Fatalf("follower result differs from leader's")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine ran %d times total, want exactly 1", n)
	}
	if n := sample(t, s, "midas_coalesced_total"); n != 3 {
		t.Fatalf("midas_coalesced_total %v, want 3", n)
	}
}

// Cancelling a follower detaches only that job; the leader (and the
// other followers) still get their result. Cancelling the leader
// cancels the shared run, followers included.
func TestCancelCoalescedJobs(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)
	defer close(release)

	leader, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader.ID, StateRunning)
	f1, _ := s.Submit(specFor(1))
	f2, _ := s.Submit(specFor(1))

	if st, err := s.Cancel(f1.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel follower: %v %+v", err, st)
	}
	release <- struct{}{}
	if st := waitDone(t, s, leader.ID); st.State != StateDone {
		t.Fatalf("leader ended %s after follower cancel", st.State)
	}
	if st := waitDone(t, s, f2.ID); st.State != StateDone {
		t.Fatalf("remaining follower ended %s", st.State)
	}

	// Round two: cancelling the leader takes its followers down.
	leader2, err := s.Submit(specFor(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader2.ID, StateRunning)
	f3, _ := s.Submit(specFor(2))
	if _, err := s.Cancel(leader2.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, leader2.ID); st.State != StateCancelled {
		t.Fatalf("leader ended %s after cancel", st.State)
	}
	if st := waitDone(t, s, f3.ID); st.State != StateCancelled {
		t.Fatalf("follower of cancelled leader ended %s", st.State)
	}
}

// A forced shutdown must not hang forever on a worker stuck inside a
// non-preemptible run: after the grace it abandons the worker with an
// explicit error instead of blocking the caller's exit path.
func TestShutdownAbandonsStuckWorkers(t *testing.T) {
	oldGrace := stuckWorkerGrace
	stuckWorkerGrace = 50 * time.Millisecond
	defer func() { stuckWorkerGrace = oldGrace }()

	release := make(chan struct{})
	defer close(release)
	run := func(context.Context, scenario.Scenario, scenario.Spec, scenario.RunOptions) (scenario.Result, error) {
		<-release // ignores ctx: a single-point sc.Run mid-flight
		return scenario.Result{}, context.Canceled
	}
	s := New(Config{Workers: 1, Run: run})
	st, err := s.Submit(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck shutdown returned %v", err)
	}
	if !strings.Contains(err.Error(), "non-preemptible") {
		t.Fatalf("stuck shutdown error does not name the cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown blocked %v on a stuck worker", elapsed)
	}
}

// A fresh submission must not coalesce onto a leader whose cancel is
// pending: it would inherit a "cancelled" outcome for a perfectly
// runnable spec. Cancel releases the single-flight slot immediately.
func TestSubmitAfterCancelStartsFreshRun(t *testing.T) {
	var calls atomic.Int64
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // first run: waits for the cancel
			return scenario.Result{}, ctx.Err()
		}
		return fixedResult(spec), nil
	}
	s := New(Config{Workers: 2, Run: run})
	defer mustShutdown(t, s)

	doomed, err := s.Submit(specFor(7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, doomed.ID, StateRunning)
	if _, err := s.Cancel(doomed.ID); err != nil {
		t.Fatal(err)
	}

	fresh, err := s.Submit(specFor(7))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Coalesced {
		t.Fatal("fresh submission coalesced onto a cancel-pending leader")
	}
	if st := waitDone(t, s, fresh.ID); st.State != StateDone {
		t.Fatalf("fresh run ended %s (%s)", st.State, st.Error)
	}
	if st := waitDone(t, s, doomed.ID); st.State != StateCancelled {
		t.Fatalf("cancelled run ended %s", st.State)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("engine ran %d times, want 2 (cancelled + fresh)", n)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name            string
		mean            float64
		queued, workers int
		want            int
	}{
		{"no-observations", 0, 10, 4, 1},
		{"empty-queue", 2.0, 0, 4, 1},
		{"sub-second-drain", 0.05, 3, 8, 1},
		{"one-each", 5.0, 1, 1, 5},
		{"backlog-split-across-workers", 2.0, 8, 4, 4},
		{"rounds-up", 1.5, 1, 1, 2},
		{"capped-at-minute", 30.0, 100, 2, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterSeconds(tc.mean, tc.queued, tc.workers); got != tc.want {
				t.Errorf("retryAfterSeconds(%v, %d, %d) = %d, want %d",
					tc.mean, tc.queued, tc.workers, got, tc.want)
			}
		})
	}
}

func TestObserveRunTimeEWMA(t *testing.T) {
	s := New(Config{Workers: 1})
	defer mustShutdown(t, s)
	s.observeRunTime(10)
	if got := s.runMeanSeconds; got != 10 {
		t.Fatalf("first observation should anchor the mean, got %v", got)
	}
	s.observeRunTime(20)
	if got := s.runMeanSeconds; got != 0.3*20+0.7*10 {
		t.Fatalf("EWMA after 10,20 = %v, want 13", got)
	}
}

// TestResumeReadmitsResolvedSpec: Resume is Submit for a journal
// entry's already-resolved spec — it admits, runs and caches exactly
// like a client submission, so a sweep replayed at startup is
// indistinguishable from one a client asked for.
func TestResumeReadmitsResolvedSpec(t *testing.T) {
	run, calls := countingRun()
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)

	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	overrides := scenario.Spec{
		Scenario: "fig12-spatial-reuse", Topologies: 2, Seed: 41, Replicates: 2,
		Sweep: map[string][]float64{"seed": {1, 2}},
	}
	resolved, err := scenario.Resolve(sc, overrides)
	if err != nil {
		t.Fatal(err)
	}

	st, err := s.Resume(resolved)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st.Cached {
		t.Fatal("resumed job served from cache in a fresh service")
	}
	done := waitDone(t, s, st.ID)
	if done.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", done.State, done.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine ran %d times for one resume, want 1", n)
	}

	// A client resubmitting the same sweep lands on the resumed job's
	// cache entry: same hash, born done.
	again, err := s.Submit(overrides)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.SpecHash != st.SpecHash {
		t.Fatalf("resubmission after resume not cached: %+v (resumed hash %s)", again, st.SpecHash)
	}
}
