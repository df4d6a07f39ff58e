// Package service is the scenario-serving layer: a job-oriented,
// long-running front end over the scenario registry and engine. Specs
// (the same JSON schema midas-sim -spec consumes) are submitted as
// asynchronous jobs, validated and resolved up front, executed on a
// bounded in-process worker pool, and observable through their whole
// lifecycle (queued → running → done/failed/cancelled) with per-job
// progress in completed expanded runs.
//
// Results are content-addressed: every resolved spec has a canonical
// hash (scenario.Spec.CanonicalHash), and completed results are kept
// in a bounded LRU cache keyed by it. Because the engine is
// deterministic in the resolved spec, re-submitting an identical spec
// is answered from the cache without touching the engine, and the
// rendered JSON is byte-identical to the cold run's. Identical specs
// submitted while the first is still in flight coalesce onto that run
// (single-flight): they become follower jobs that mirror its progress
// and finish with its result, so a burst of equal requests costs one
// engine run, not N.
//
// With Config.Store set, the cache is two-tier: the in-memory LRU in
// front of a crash-safe on-disk store (internal/store) under the same
// content addresses. Every completed result is persisted *before* its
// job becomes observably done, so a completed job's result survives
// any crash; a memory miss consults the disk tier and promotes its
// answer, so a restarted server serves previously computed specs
// byte-identically without re-running the engine.
//
// cmd/midas-serve wraps this package in an HTTP API (see http.go).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// State is a job's lifecycle phase.
type State string

// The job lifecycle: Submit parks a job in StateQueued (or, on a cache
// hit, completes it as StateDone immediately); a worker moves it to
// StateRunning; the run ends in exactly one of StateDone, StateFailed
// or StateCancelled. Cancelling a queued job is immediate; cancelling
// a running job cancels the engine's context, which stops dispatching
// further expanded runs (a single-run spec that is already executing
// finishes and completes as done — the engine has no mid-run
// preemption points).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a job in this state can never change state
// again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress counts expanded runs (sweep points × replicates) of a job.
type Progress struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// Sentinel errors Submit and Cancel return; the HTTP layer maps them
// to status codes.
var (
	// ErrDraining rejects submissions after Shutdown has begun.
	ErrDraining = errors.New("service: shutting down, not accepting jobs")
	// ErrQueueFull rejects submissions when the job queue is at bound.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownJob reports a job id that was never issued.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished reports a result request for a job still in flight.
	ErrNotFinished = errors.New("service: job not finished")
	// ErrFinished reports a cancel request for an already-terminal job.
	ErrFinished = errors.New("service: job already finished")
	// ErrUnknownResult reports a hash-addressed result lookup that no
	// cache tier could answer.
	ErrUnknownResult = errors.New("service: no result stored under that hash")
)

// RunFunc executes one resolved spec — scenario.RunResolved in
// production; tests substitute it to count and steer engine
// invocations.
type RunFunc func(ctx context.Context, sc scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error)

// Config sizes a Service.
type Config struct {
	// Workers bounds how many jobs execute concurrently; <= 0 selects
	// GOMAXPROCS. Each job additionally fans its expanded runs over the
	// engine's own pool at the spec's parallelism.
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// <= 0 selects 64. A full queue rejects submissions (ErrQueueFull)
	// instead of blocking the submitter.
	QueueDepth int
	// CacheEntries bounds the spec-hash result cache; 0 selects 128,
	// negative disables caching.
	CacheEntries int
	// Store, when non-nil, is the durable result tier under the memory
	// cache: completed results are persisted to it before their job
	// becomes observably done, and memory misses consult it before
	// enqueueing an engine run. The caller owns its lifecycle (open it
	// before New, close it after Shutdown returns).
	Store *store.Store
	// JobRetention bounds how many *terminal* (done/failed/cancelled)
	// jobs stay pollable; <= 0 selects 512. The oldest-finished jobs
	// beyond the bound are forgotten (their id returns ErrUnknownJob;
	// identical specs are still answered by the result cache), so the
	// job table cannot grow with traffic. Queued and running jobs are
	// never evicted.
	JobRetention int
	// JobParallelism, when > 0, is the engine parallelism handed to a
	// job whose spec leaves parallelism unset — how a multi-worker
	// server divides the machine (midas-serve passes
	// ceil(GOMAXPROCS/workers)). A spec that sets its own parallelism
	// keeps it; the override travels in scenario.RunOptions, never in
	// the spec, so hashes, sink meta and cached bodies are unaffected.
	JobParallelism int
	// Telemetry is the registry the service registers its instruments
	// on (counters, queue-wait/run-duration histograms, job gauges);
	// nil creates a private one. Either way Service.Telemetry exposes
	// it for /metrics rendering.
	Telemetry *telemetry.Registry
	// Log receives structured per-job lifecycle lines (submitted /
	// running / finished), keyed by job id and spec hash; nil discards
	// them.
	Log *slog.Logger
	// Run substitutes the engine invocation; nil selects
	// scenario.RunResolved.
	Run RunFunc
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) jobRetention() int {
	if c.JobRetention > 0 {
		return c.JobRetention
	}
	return 512
}

func (c Config) cacheEntries() int {
	switch {
	case c.CacheEntries > 0:
		return c.CacheEntries
	case c.CacheEntries < 0:
		return 0
	default:
		return 128
	}
}

// job is the internal record; all fields past the immutable header are
// guarded by the Service mutex.
type job struct {
	id   string
	spec scenario.Spec // resolved
	sc   scenario.Scenario
	hash string

	// followers are jobs coalesced onto this one: identical specs
	// submitted while this job was still in flight. They never enqueue
	// or run; they mirror this job's state/progress and are finished
	// with its result. Only leaders (enqueued jobs) have followers.
	followers []*job
	// leader is the in-flight job this one coalesced onto (nil for
	// leaders and cache hits, cleared again when the follower detaches
	// or finishes).
	leader *job
	// wasCoalesced survives the leader pointer for status reporting.
	wasCoalesced bool

	state     State
	progress  Progress
	cached    bool   // answered from the result cache
	cacheTier string // which tier answered: "memory" or "store"
	result    scenario.Result
	err       error
	cancel    context.CancelFunc
	ctx       context.Context
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{} // closed on entering a terminal state
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	Scenario string   `json:"scenario"`
	SpecHash string   `json:"spec_hash"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Cached marks a job answered from the spec-hash cache without an
	// engine run; CacheTier says from which tier ("memory" — the LRU —
	// or "store" — the on-disk tier, e.g. after a restart).
	Cached    bool   `json:"cached,omitempty"`
	CacheTier string `json:"cache_tier,omitempty"`
	// Coalesced marks a job attached to an identical in-flight
	// submission: it shares that run's progress and result instead of
	// occupying the pool with a duplicate computation.
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
}

// Metrics is the /metrics snapshot. Jobs counts the retained job
// table (all in-flight jobs plus the last JobRetention terminal ones);
// ScenarioRuns and the cache counters are cumulative for the process.
type Metrics struct {
	Jobs         map[State]int `json:"jobs"`
	QueueDepth   int           `json:"queue_depth"`
	Workers      int           `json:"workers"`
	CacheEntries int           `json:"cache_entries"`
	CacheHits    uint64        `json:"cache_hits"`
	CacheMisses  uint64        `json:"cache_misses"`
	CacheHitRate float64       `json:"cache_hit_rate"`
	// Coalesced counts submissions attached to an identical in-flight
	// run instead of executing their own (cumulative).
	Coalesced    uint64         `json:"coalesced"`
	ScenarioRuns map[string]int `json:"scenario_runs"`
	// Store snapshots the durable result tier; absent when none is
	// configured.
	Store    *store.Stats `json:"store,omitempty"`
	Draining bool         `json:"draining,omitempty"`
}

// Service owns the worker pool, the job table and the result cache.
// Create with New, stop with Shutdown.
type Service struct {
	cfg   Config
	run   RunFunc
	queue chan *job
	wg    sync.WaitGroup
	tel   *instruments
	log   *slog.Logger
	// store is the durable result tier (Config.Store; nil = memory
	// only). It is self-locking and consulted with s.mu released, so
	// disk I/O never stalls the job table.
	store *store.Store

	mu           sync.Mutex
	jobs         map[string]*job
	finished     []string        // terminal job ids, oldest first (retention FIFO)
	inflight     map[string]*job // spec hash -> leader job not yet terminal
	cache        *resultCache
	nextID       int
	closed       bool
	coalesced    uint64
	scenarioRuns map[string]int // engine invocations by scenario name
	// runMeanSeconds is an EWMA of engine-run wall time, feeding the
	// queue-full Retry-After hint; 0 until the first run completes.
	runMeanSeconds float64
}

// New builds a Service and starts its worker pool.
func New(cfg Config) *Service {
	s := &Service{
		cfg:          cfg,
		run:          cfg.Run,
		log:          cfg.Log,
		store:        cfg.Store,
		queue:        make(chan *job, cfg.queueDepth()),
		jobs:         make(map[string]*job),
		inflight:     make(map[string]*job),
		cache:        newResultCache(cfg.cacheEntries()),
		scenarioRuns: make(map[string]int),
	}
	if s.run == nil {
		s.run = scenario.RunResolved
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.tel = newInstruments(reg, s)
	for w := 0; w < cfg.workers(); w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Telemetry returns the registry holding the service's instruments —
// what GET /metrics renders.
func (s *Service) Telemetry() *telemetry.Registry { return s.tel.reg }

// Submit validates and resolves overrides (whose Scenario field names
// the registered scenario, exactly like a midas-sim spec file), then
// either answers it from the spec-hash cache — the job is born done,
// marked Cached — or enqueues it for the worker pool. The returned
// snapshot carries the job id to poll.
func (s *Service) Submit(overrides scenario.Spec) (JobStatus, error) {
	return s.submitLogged(overrides, "job submitted")
}

// Resume re-admits a half-finished sweep recovered from the dispatch
// journal at startup. It is Submit with provenance: the spec arrives
// already resolved (Resolve is idempotent on a resolved spec, so the
// shared core applies unchanged) and the admission log line says
// "resumed" so an operator can tell a replay from client traffic.
func (s *Service) Resume(spec scenario.Spec) (JobStatus, error) {
	return s.submitLogged(spec, "job resumed")
}

func (s *Service) submitLogged(overrides scenario.Spec, event string) (JobStatus, error) {
	start := time.Now()
	st, err := s.submit(overrides)
	lat := time.Since(start).Seconds()
	// Instrument and log outside the job-table lock: the histograms are
	// atomics, but the slog handler does real I/O.
	switch {
	case err != nil:
		s.tel.submissions.With("rejected").Inc()
		s.log.Warn("job rejected", "scenario", overrides.Scenario, "error", err.Error())
	case st.Cached:
		s.tel.cacheHits.Inc()
		s.tel.submissions.With("cached").Inc()
		s.tel.cacheHitLat.Observe(lat)
	case st.Coalesced:
		s.tel.cacheMisses.Inc()
		s.tel.coalesced.Inc()
		s.tel.submissions.With("coalesced").Inc()
		s.tel.coalesceLat.Observe(lat)
	default:
		s.tel.cacheMisses.Inc()
		s.tel.submissions.With("queued").Inc()
		s.tel.cacheMissLat.Observe(lat)
	}
	if err == nil {
		s.log.Info(event,
			"job", st.ID, "scenario", st.Scenario, "spec_hash", st.SpecHash,
			"state", string(st.State), "cached", st.Cached, "coalesced", st.Coalesced)
	}
	return st, err
}

// submit is Submit's locked core, free of telemetry and logging.
func (s *Service) submit(overrides scenario.Spec) (JobStatus, error) {
	if overrides.Scenario == "" {
		return JobStatus{}, fmt.Errorf("service: spec names no scenario (set the \"scenario\" field; GET /v1/scenarios lists all)")
	}
	sc, err := scenario.Find(overrides.Scenario)
	if err != nil {
		return JobStatus{}, err
	}
	spec, err := scenario.Resolve(sc, overrides)
	if err != nil {
		return JobStatus{}, err
	}
	hash := spec.CanonicalHash()

	// First admission pass: the memory tiers (LRU cache, single-flight
	// table) answer most submissions without any disk I/O. When they
	// don't and a store is configured, the lock is dropped for the disk
	// lookup and a second, final pass re-checks everything — another
	// submission may have raced the same result into memory or started
	// an identical run while we were reading.
	s.mu.Lock()
	st, admitted, err := s.admitLocked(sc, spec, hash, nil, s.store == nil)
	s.mu.Unlock()
	if admitted {
		return st, err
	}
	var promoted *scenario.Result
	if env, _, lerr := scenario.LoadResult(s.store, s.log, hash); lerr == nil {
		promoted = &env.Result
	}
	s.mu.Lock()
	st, _, err = s.admitLocked(sc, spec, hash, promoted, true)
	s.mu.Unlock()
	return st, err
}

// admitLocked is one admission pass over the in-memory tiers; called
// with s.mu held. stored, when non-nil, is a result the disk tier
// served between passes: it is promoted into the memory cache and
// answers the submission. final reports whether this pass must resolve
// the submission — a non-final pass that finds no in-memory answer
// returns admitted=false so the caller can consult the store and come
// back. The hit/miss counters are tallied here, exactly once per
// submission, on whichever pass resolves it.
func (s *Service) admitLocked(sc scenario.Scenario, spec scenario.Spec, hash string, stored *scenario.Result, final bool) (JobStatus, bool, error) {
	if s.closed {
		return JobStatus{}, true, ErrDraining
	}
	if res, _, ok := s.cache.lookup(hash); ok {
		s.cache.hits++
		return s.bornDoneLocked(sc, spec, hash, res, "memory"), true, nil
	}
	if stored != nil {
		s.cache.hits++
		s.cache.Put(hash, spec, *stored)
		return s.bornDoneLocked(sc, spec, hash, *stored, "store"), true, nil
	}
	// Single-flight coalescing: an identical spec already queued or
	// running is the same deterministic computation, so attach this
	// job to it instead of occupying the pool with a duplicate run. A
	// leader with a pending cancel is skipped (Cancel also clears the
	// slot): its outcome will be "cancelled", which a fresh submission
	// must not inherit.
	if leader := s.inflight[hash]; leader != nil && leader.ctx.Err() == nil {
		s.cache.misses++
		j := s.newJobLocked(sc, spec, hash)
		j.leader = leader
		j.wasCoalesced = true
		j.state = leader.state
		j.started = leader.started
		j.progress = leader.progress
		leader.followers = append(leader.followers, j)
		s.coalesced++
		return j.statusLocked(), true, nil
	}
	if !final {
		return JobStatus{}, false, nil
	}
	s.cache.misses++
	j := s.newJobLocked(sc, spec, hash)
	j.state = StateQueued
	j.progress = Progress{Total: spec.ExpandedRuns()}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	select {
	case s.queue <- j:
	default:
		j.cancel()
		delete(s.jobs, j.id)
		return JobStatus{}, true, ErrQueueFull
	}
	s.inflight[hash] = j
	return j.statusLocked(), true, nil
}

// newJobLocked allocates the next job id and enrols the job in the
// table. Called with s.mu held.
func (s *Service) newJobLocked(sc scenario.Scenario, spec scenario.Spec, hash string) *job {
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.nextID),
		spec:      spec,
		sc:        sc,
		hash:      hash,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// bornDoneLocked completes a submission as a terminal, cached job: no
// queueing, no engine run, result served from the named cache tier.
// Called with s.mu held.
func (s *Service) bornDoneLocked(sc scenario.Scenario, spec scenario.Spec, hash string, res scenario.Result, tier string) JobStatus {
	j := s.newJobLocked(sc, spec, hash)
	total := spec.ExpandedRuns()
	j.state = StateDone
	j.cached = true
	j.cacheTier = tier
	j.result = res
	j.progress = Progress{Completed: total, Total: total}
	j.finished = j.submitted
	close(j.done)
	s.retireLocked(j)
	return j.statusLocked()
}

// worker executes queued jobs until the queue is closed and drained.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob moves one dequeued job through running to a terminal state.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue; already terminal.
		s.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		// Cancelled between the Cancel call and this dispatch, or by a
		// forced shutdown: finish without running.
		s.finishLocked(j, scenario.Result{}, j.ctx.Err())
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	for _, f := range j.followers {
		f.state = StateRunning
		f.started = j.started
	}
	s.scenarioRuns[j.spec.Scenario]++
	s.mu.Unlock()

	s.tel.queueWait.Observe(queueWait.Seconds())
	s.log.Info("job running",
		"job", j.id, "scenario", j.spec.Scenario, "spec_hash", j.hash,
		"queue_wait", queueWait)

	// The per-job core budget travels in RunOptions, not in the spec
	// (which would change its sink meta) and not in a process global
	// (which concurrent jobs would race on): specs that set their own
	// parallelism keep it, unset ones get the server's per-worker share.
	par := j.spec.Parallelism
	if par <= 0 {
		par = s.cfg.JobParallelism
	}
	res, err := s.run(j.ctx, j.sc, j.spec, scenario.RunOptions{
		Parallelism: par,
		OnProgress: func(completed, total int) {
			s.mu.Lock()
			j.progress = Progress{Completed: completed, Total: total}
			for _, f := range j.followers {
				f.progress = j.progress
			}
			s.mu.Unlock()
		},
		OnRunDone: func(p runner.Progress) {
			s.tel.taskSeconds.Observe(p.Elapsed.Seconds())
		},
	})
	elapsed := time.Since(j.started)
	s.tel.runDuration.With(j.spec.Scenario).Observe(elapsed.Seconds())
	s.observeRunTime(elapsed.Seconds())

	// Persist to the durable tier BEFORE the job becomes observably
	// done, so "the job completed" implies "the result survives a
	// crash": a client that saw this job finish can always get the
	// result back, even from the next process. A store failure is
	// logged and absorbed — the job still completes from memory.
	if err == nil && s.store != nil {
		s.persistResult(j.hash, j.spec, res)
	}

	s.mu.Lock()
	s.finishLocked(j, res, err)
	st := j.statusLocked()
	s.mu.Unlock()
	logAttrs := []any{
		"job", st.ID, "scenario", st.Scenario, "spec_hash", st.SpecHash,
		"state", string(st.State), "run_seconds", elapsed.Seconds(),
	}
	if st.Error != "" {
		logAttrs = append(logAttrs, "error", st.Error)
	}
	s.log.Info("job finished", logAttrs...)
}

// persistResult encodes a completed result and writes it to the disk
// tier. Runs on the worker goroutine with no locks held; never
// propagates failure (the memory tiers still serve the result).
func (s *Service) persistResult(hash string, spec scenario.Spec, res scenario.Result) {
	if _, err := scenario.PublishResult(s.store, hash, spec, res); err != nil {
		s.log.Warn("result not persisted to store",
			"spec_hash", hash, "error", err.Error())
	}
}

// finishLocked records a job's terminal state, finishes any coalesced
// followers with the same outcome, and releases the in-flight slot for
// the job's spec hash. Called with s.mu held.
func (s *Service) finishLocked(j *job, res scenario.Result, err error) {
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.progress.Completed = j.progress.Total
		s.cache.Put(j.hash, j.spec, res)
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	close(j.done)
	s.tel.finished.With(string(j.state)).Inc()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	s.retireLocked(j)
	followers := j.followers
	j.followers = nil
	for _, f := range followers {
		f.leader = nil
		f.progress = j.progress
		s.finishLocked(f, res, err)
	}
}

// retireLocked enrols a newly terminal job in the retention FIFO and
// forgets the oldest terminal jobs beyond the bound, so the job table
// is bounded by retention + in-flight count, not by total traffic.
// Called with s.mu held.
func (s *Service) retireLocked(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.jobRetention() {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Cancel stops a job: a queued job becomes cancelled immediately; a
// running job has its engine context cancelled, which stops
// dispatching further expanded runs and surfaces as cancelled when the
// in-flight ones drain. Cancelling a coalesced job only detaches that
// job — the leader keeps computing for its own client (and any other
// followers); cancelling a leader cancels the shared run, so its
// followers finish cancelled with it. Cancelling a terminal job is an
// error.
func (s *Service) Cancel(id string) (JobStatus, error) {
	st, err := s.cancel(id)
	if err == nil {
		s.log.Info("job cancel requested",
			"job", st.ID, "scenario", st.Scenario, "spec_hash", st.SpecHash, "state", string(st.State))
	}
	return st, err
}

// cancel is Cancel's locked core.
func (s *Service) cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	switch {
	case j.state.terminal():
		return j.statusLocked(), ErrFinished
	case j.leader != nil:
		for i, f := range j.leader.followers {
			if f == j {
				j.leader.followers = append(j.leader.followers[:i], j.leader.followers[i+1:]...)
				break
			}
		}
		j.leader = nil
		s.finishLocked(j, scenario.Result{}, context.Canceled)
	case j.state == StateQueued:
		j.cancel()
		s.finishLocked(j, scenario.Result{}, context.Canceled)
	default: // running
		j.cancel()
		// Release the single-flight slot immediately: the run may take
		// a long time to reach a cancellation point, and a fresh
		// submission of the same spec must start a fresh run, not
		// coalesce onto one that is already doomed.
		if s.inflight[j.hash] == j {
			delete(s.inflight, j.hash)
		}
	}
	return j.statusLocked(), nil
}

// Job returns a job's current snapshot.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.statusLocked(), nil
}

// Result returns a done job's result and the resolved spec that
// produced it. A job that is not done yet returns ErrNotFinished; a
// failed or cancelled job returns its terminal error.
func (s *Service) Result(id string) (scenario.Result, scenario.Spec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return scenario.Result{}, scenario.Spec{}, ErrUnknownJob
	}
	switch j.state {
	case StateDone:
		return j.result, j.spec, nil
	case StateFailed, StateCancelled:
		return scenario.Result{}, scenario.Spec{}, fmt.Errorf("service: job %s %s: %w", id, j.state, j.err)
	default:
		return scenario.Result{}, scenario.Spec{}, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
	}
}

// ResultByHash returns the completed result stored under a spec's
// content address, with the resolved spec that produced it — the
// job-less lookup behind GET /v1/results/{hash}. The memory cache
// answers first; a miss consults the durable store (which on a shared
// backend reads through to blobs published by sibling processes) and
// promotes the envelope into memory. ErrUnknownResult when neither
// tier holds the hash.
func (s *Service) ResultByHash(hash string) (scenario.Result, scenario.Spec, error) {
	s.mu.Lock()
	if res, spec, ok := s.cache.lookup(hash); ok {
		s.mu.Unlock()
		// Canonicalize: the envelope codec zeroes Parallelism (the hash
		// excludes it), so a memory hit must render exactly what a store
		// hit — here or on any sibling process — would render.
		spec.Parallelism = 0
		return res, spec, nil
	}
	s.mu.Unlock()
	env, _, err := scenario.LoadResult(s.store, s.log, hash)
	if err != nil {
		return scenario.Result{}, scenario.Spec{}, ErrUnknownResult
	}
	s.mu.Lock()
	s.cache.Put(hash, env.Spec, env.Result)
	s.mu.Unlock()
	return env.Result, env.Spec, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the final snapshot.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		// Snapshot through the held pointer, not a second id lookup:
		// retention may already have evicted the id from the table,
		// and this wait still deserves its final status.
		s.mu.Lock()
		defer s.mu.Unlock()
		return j.statusLocked(), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Draining reports whether Shutdown has begun (submissions are being
// rejected). Cheaper than Metrics for liveness probes.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Jobs:         map[State]int{},
		QueueDepth:   len(s.queue),
		Workers:      s.cfg.workers(),
		CacheEntries: s.cache.Len(),
		CacheHits:    s.cache.hits,
		CacheMisses:  s.cache.misses,
		Coalesced:    s.coalesced,
		ScenarioRuns: map[string]int{},
		Draining:     s.closed,
	}
	for _, j := range s.jobs {
		m.Jobs[j.state]++
	}
	if lookups := s.cache.hits + s.cache.misses; lookups > 0 {
		m.CacheHitRate = float64(s.cache.hits) / float64(lookups)
	}
	for name, n := range s.scenarioRuns {
		m.ScenarioRuns[name] = n
	}
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
	}
	return m
}

// QueueSaturated reports whether the job queue is at bound — the next
// uncoalesced, uncached submission would be rejected with ErrQueueFull.
// Channel length and capacity need no lock; the answer is advisory
// (for health probes), not a reservation.
func (s *Service) QueueSaturated() bool { return len(s.queue) >= cap(s.queue) }

// observeRunTime folds one engine run's wall time into the EWMA behind
// the queue-full Retry-After hint. Alpha 0.3: a few runs re-anchor the
// estimate after the workload shifts, while one outlier cannot swing
// the hint by itself.
func (s *Service) observeRunTime(seconds float64) {
	s.mu.Lock()
	if s.runMeanSeconds == 0 {
		s.runMeanSeconds = seconds
	} else {
		s.runMeanSeconds = 0.3*seconds + 0.7*s.runMeanSeconds
	}
	s.mu.Unlock()
}

// RetryAfterHint is the Retry-After value (whole seconds) a queue-full
// 503 should carry: roughly how long until a queue slot opens, from
// observed mean run time and the current backlog per worker.
func (s *Service) RetryAfterHint() int {
	s.mu.Lock()
	mean := s.runMeanSeconds
	queued := len(s.queue)
	s.mu.Unlock()
	return retryAfterSeconds(mean, queued, s.cfg.workers())
}

// retryAfterSeconds derives the hint: the queue's estimated drain time
// for one slot, ceil(mean × backlog-per-worker), clamped to [1, 60].
// No observed runs yet (mean 0) keeps the old constant of 1 — better
// an eager retry than a made-up wait. The 60s cap matters because
// clients cap their own patience (loadgen's -retry-max): an honest
// "come back in 20 minutes" would read as "never".
func retryAfterSeconds(meanRunSeconds float64, queued, workers int) int {
	if meanRunSeconds <= 0 || queued <= 0 || workers <= 0 {
		return 1
	}
	perWorker := float64(queued) / float64(workers)
	secs := int(math.Ceil(meanRunSeconds * perWorker))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// Shutdown drains the service: submissions are rejected immediately,
// queued and running jobs complete normally, and Shutdown returns once
// the workers have exited. If ctx expires first, every outstanding
// job's context is cancelled (queued ones finish as cancelled without
// running; running ones stop at their next dispatch boundary) and
// Shutdown still waits for the workers before returning ctx's error.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.state.terminal() && j.cancel != nil {
				j.cancel()
			}
		}
		s.mu.Unlock()
		// Cancellation only takes effect at expanded-run boundaries; a
		// worker deep inside a single non-preemptible sc.Run cannot be
		// interrupted. Wait a bounded grace for the cancels to land,
		// then give up on stuck workers instead of hanging the caller's
		// shutdown path indefinitely (the process exit will reap them).
		select {
		case <-drained:
		case <-time.After(stuckWorkerGrace):
			return fmt.Errorf("service: workers still inside non-preemptible runs after cancellation: %w", ctx.Err())
		}
		return ctx.Err()
	}
}

// stuckWorkerGrace is how long a forced Shutdown waits, after
// cancelling every outstanding job, for workers to reach a
// cancellation point. Variable so tests can shrink it.
var stuckWorkerGrace = 5 * time.Second

// statusLocked snapshots a job. Called with s.mu held.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Scenario:  j.spec.Scenario,
		SpecHash:  j.hash,
		State:     j.state,
		Progress:  j.progress,
		Cached:    j.cached,
		CacheTier: j.cacheTier,
		Coalesced: j.leader != nil || j.wasCoalesced,
		Submitted: timeString(j.submitted),
		Started:   timeString(j.started),
		Finished:  timeString(j.finished),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func timeString(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
