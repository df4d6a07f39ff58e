// Package dispatch distributes sweep execution across worker
// processes: a coordinator expands a resolved spec into shards — the
// exact task decomposition the in-process engine uses
// (scenario.Spec.Shards) — leases them to workers over HTTP with
// per-lease deadlines, requeues expired or failed leases with
// exponential backoff under a bounded per-shard attempt budget, and
// reassembles the ordered shard results into the result a
// single-process run would produce (scenario.Assemble — byte-identical,
// pinned by TestDistributedMatchesSingleProcess and
// scripts/cluster-e2e.sh).
//
// The protocol is a pull-based work queue in the reconcile-loop /
// requeue-with-backoff style of the Kubernetes controllers: workers
// ask
//
//	POST /v1/shards/lease             {"proto": 2, "worker": id, "max": n}
//
// for shard batches and report each one with
//
//	POST /v1/shards/{lease}/complete  {"proto": 2, "worker": id, "result": {...}}
//
// A lease request that finds nothing ready parks at the coordinator
// (a long poll) until a shard becomes leasable, the hold (half the
// worker TTL) runs out, or the coordinator closes — so a submitted
// sweep starts the moment it is enqueued, with no idle polling
// interval in between.
//
// A lease that misses its deadline is requeued — its worker may have
// died mid-shard — and any late completion under the dead lease id is
// answered "stale" and discarded. Because a shard's result is
// deterministic in its spec (content-addressed, like everything the
// serving layer caches), double *execution* after a requeue race is
// harmless: exactly one completion per shard is accepted into the
// assembly, every other one is a counted no-op. Workers register
// implicitly by asking for leases, and a parked request keeps its
// worker registered; a worker that stops asking ages out of the live
// set, which is how midas-serve decides between dispatching (at least
// one live worker) and running in-process.
package dispatch

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config sizes a Coordinator.
type Config struct {
	// LeaseTTL is how long a worker holds a shard before the
	// coordinator assumes it died and requeues; <= 0 selects 30s. Set
	// it comfortably above the slowest expected shard: a lease that
	// expires under a live worker only wastes the duplicate execution,
	// but wasted work is still wasted.
	LeaseTTL time.Duration
	// MaxAttempts bounds how often one shard may be leased before its
	// whole job fails (the retry budget); <= 0 selects 5.
	MaxAttempts int
	// BackoffBase is the requeue delay after a shard's first failure,
	// doubling per subsequent attempt up to BackoffMax; <= 0 selects
	// 250ms (base) and 15s (max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WorkerTTL is how long after its last lease request a worker
	// still counts as live; <= 0 selects 15s. A parked lease request is
	// held for at most half of it, and every wake refreshes the
	// worker's stamp, so a parked worker never ages out.
	WorkerTTL time.Duration
	// MaxBatch caps the shards granted to one lease request regardless
	// of what the worker asks for; <= 0 selects 4.
	MaxBatch int
	// SweepInterval is the lease-expiry scan cadence; <= 0 derives
	// LeaseTTL/4 clamped to [25ms, 1s].
	SweepInterval time.Duration
	// Telemetry is the registry the coordinator registers its
	// instruments on (midas-serve passes the one /metrics renders); nil
	// creates a private one.
	Telemetry *telemetry.Registry
	// Log receives lease/requeue lifecycle lines; nil discards them.
	Log *slog.Logger
	// Store, when non-nil, is the durable content-addressed store every
	// accepted shard result is published to, keyed by the shard spec's
	// CanonicalHash, and consulted before enqueueing: a shard whose
	// result already verifies on disk is recovered instead of leased
	// (midas_shards_recovered_total), so sweep points shared across
	// jobs, tenants and coordinator restarts execute exactly once.
	Store *store.Store
	// Journal, when non-nil, records every dispatched job's resolved
	// spec, for re-admission: one write when the job is dispatched, one
	// remove when it ends for good. New loads its surviving entries and
	// exposes them via Recovered so midas-serve can re-admit
	// half-finished sweeps after a restart (midas_jobs_resumed_total).
	// Pair it with Store — the re-admitted job finds its finished
	// shards there.
	Journal *journal.Journal
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 250 * time.Millisecond
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax > 0 {
		return c.BackoffMax
	}
	return 15 * time.Second
}

func (c Config) workerTTL() time.Duration {
	if c.WorkerTTL > 0 {
		return c.WorkerTTL
	}
	return 15 * time.Second
}

func (c Config) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return 4
}

func (c Config) sweepInterval() time.Duration {
	if c.SweepInterval > 0 {
		return c.SweepInterval
	}
	iv := c.leaseTTL() / 4
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	return iv
}

// ErrClosed rejects Run calls after Close.
var ErrClosed = errors.New("dispatch: coordinator closed")

// shard states.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shard is one expanded run of a dispatched job.
type shard struct {
	job   *dJob
	index int
	spec  scenario.Spec
	// hash is the shard spec's content address — the store key its
	// result is published under ("" when the coordinator has no store).
	hash    string
	state   shardState
	readyAt time.Time // earliest next lease (requeue backoff)
	// attempts counts lease grants; at cfg.maxAttempts() the next
	// failure fails the whole job instead of requeueing.
	attempts int
	lastErr  string // last worker-reported failure, for the give-up message
	heapIdx  int    // index in the pending heap (-1 = not pending)
}

// lease is one outstanding grant of a shard to a worker.
type lease struct {
	id       string
	sh       *shard
	worker   string
	granted  time.Time
	deadline time.Time
}

// dJob is one dispatched sweep: a resolved spec in flight across the
// worker fleet.
type dJob struct {
	id       string
	scName   string
	spec     scenario.Spec
	shards   []*shard
	results  []scenario.Result
	opts     scenario.RunOptions
	total    int
	finished int // accepted shard completions
	err      error
	done     chan struct{} // closed once err is set or all shards accepted
}

func (j *dJob) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// pendingHeap orders pending shards by readyAt (earliest first), so a
// lease grant always hands out the longest-waiting work.
type pendingHeap []*shard

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return h[i].readyAt.Before(h[j].readyAt) }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *pendingHeap) Push(x any)        { sh := x.(*shard); sh.heapIdx = len(*h); *h = append(*h, sh) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	sh := old[n-1]
	old[n-1] = nil
	sh.heapIdx = -1
	*h = old[:n-1]
	return sh
}

// Coordinator owns the shard queue, the outstanding leases and the
// worker liveness table. Create with New, serve its Handler to the
// workers, stop with Close.
type Coordinator struct {
	cfg   Config
	tel   *instruments
	log   *slog.Logger
	nonce string // distinguishes this coordinator's lease ids across restarts
	// recovered snapshots the journal entries that survived the previous
	// incarnation, loaded once at New and immutable after (Recovered).
	recovered []journal.Entry

	mu   sync.Mutex
	jobs map[string]*dJob
	// resumable tracks which recovered spec hashes have not yet been
	// re-dispatched; the first Run of each counts midas_jobs_resumed_total.
	resumable map[string]bool
	pending   pendingHeap
	leases    map[string]*lease
	retired   map[string]string // recently dead lease ids -> why (completion classification)
	retiredQ  []string          // FIFO bounding retired
	workers   map[string]time.Time
	nextJob   int
	nextLease int
	// ready is closed (and replaced) whenever a shard is pushed onto
	// pending, waking every parked lease request to try a grant.
	ready   chan struct{}
	closed  bool
	stop    chan struct{} // closed by Close: releases the sweeper and parked lease requests
	stopped sync.WaitGroup
}

// retiredKeep bounds the dead-lease tombstone table that classifies
// late completions (duplicate vs stale); beyond it the oldest are
// forgotten and a very late completion degrades to "stale".
const retiredKeep = 1024

// New builds a Coordinator and starts its lease-expiry sweeper.
func New(cfg Config) *Coordinator {
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Coordinator{
		cfg:       cfg,
		log:       log,
		nonce:     fmt.Sprintf("%x", time.Now().UnixNano()),
		jobs:      make(map[string]*dJob),
		resumable: make(map[string]bool),
		leases:    make(map[string]*lease),
		retired:   make(map[string]string),
		workers:   make(map[string]time.Time),
		ready:     make(chan struct{}),
		stop:      make(chan struct{}),
	}
	if cfg.Journal != nil {
		c.recovered = cfg.Journal.Entries()
		for _, e := range c.recovered {
			c.resumable[e.SpecHash] = true
			log.Info("dispatch journal entry recovered",
				"spec_hash", e.SpecHash, "scenario", e.Scenario)
		}
	}
	c.tel = newInstruments(reg, c)
	c.stopped.Add(1)
	go c.sweeper()
	return c
}

// Recovered returns the journal entries that survived the previous
// coordinator incarnation — half-finished sweeps awaiting
// re-dispatch. midas-serve re-admits each at startup; the snapshot is
// taken once at New and never changes.
func (c *Coordinator) Recovered() []journal.Entry {
	out := make([]journal.Entry, len(c.recovered))
	copy(out, c.recovered)
	return out
}

// Resuming reports whether specHash names a recovered journal entry
// that has not been re-dispatched yet. midas-serve routes such a job
// through the coordinator even while no worker is polling: the store
// prefill answers its finished shards and only the missing ones wait
// for the fleet.
func (c *Coordinator) Resuming(specHash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumable[specHash]
}

// Close stops the sweeper and fails every in-flight job. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, j := range c.jobs {
		c.failJobLocked(j, ErrClosed)
	}
	c.mu.Unlock()
	c.stopped.Wait()
}

// Run dispatches one resolved spec across the worker fleet and blocks
// until the reassembled result is ready, the retry budget of some
// shard is exhausted, ctx is cancelled, or the coordinator closes. It
// has the service.RunFunc signature, so midas-serve can swap it in for
// scenario.RunResolved; the output for a given spec is byte-identical
// between the two. sc is only consulted for its name — every shard
// spec is self-contained and workers resolve the scenario themselves.
func (c *Coordinator) Run(ctx context.Context, sc scenario.Scenario, spec scenario.Spec, opts scenario.RunOptions) (scenario.Result, error) {
	shardSpecs := spec.Shards()

	// The store/journal prefill does disk I/O, so it runs before the
	// coordinator lock; a cheap closed pre-check keeps a shutting-down
	// coordinator from journaling jobs it will never run.
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return scenario.Result{}, ErrClosed
	}

	// Content-address every shard and consult the store: a shard whose
	// result already verifies on disk — published by a previous job, a
	// previous coordinator incarnation, or another tenant of the same
	// store — is born done instead of leased.
	var hashes []string
	var prefilled []*scenario.Result
	nRecovered := 0
	if c.cfg.Store != nil {
		hashes = make([]string, len(shardSpecs))
		prefilled = make([]*scenario.Result, len(shardSpecs))
		for i, ts := range shardSpecs {
			hashes[i] = ts.CanonicalHash()
			if env, _, err := scenario.LoadResult(c.cfg.Store, c.log, hashes[i]); err == nil {
				prefilled[i] = &env.Result
				nRecovered++
			}
		}
	}
	var specHash string
	if c.cfg.Journal != nil {
		specHash = spec.CanonicalHash()
		if jerr := c.cfg.Journal.Record(journal.Entry{
			SpecHash: specHash,
			Scenario: sc.Name(),
			Spec:     spec,
		}); jerr != nil {
			// The journal is a resume hint, not a correctness dependency:
			// losing it costs recomputation after a crash, nothing else.
			c.log.Warn("dispatch journal write failed", "spec_hash", specHash, "error", jerr.Error())
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if c.cfg.Journal != nil {
			// The job was journaled but never enqueued; don't leave a
			// stray entry that a future restart would resurrect.
			_ = c.cfg.Journal.Remove(specHash)
		}
		return scenario.Result{}, ErrClosed
	}
	c.nextJob++
	j := &dJob{
		id:      fmt.Sprintf("d%06d", c.nextJob),
		scName:  sc.Name(),
		spec:    spec,
		results: make([]scenario.Result, len(shardSpecs)),
		opts:    opts,
		total:   len(shardSpecs),
		done:    make(chan struct{}),
	}
	resumed := c.resumable[specHash]
	if resumed {
		delete(c.resumable, specHash)
	}
	now := time.Now()
	j.shards = make([]*shard, len(shardSpecs))
	for i, ts := range shardSpecs {
		sh := &shard{job: j, index: i, spec: ts, readyAt: now, heapIdx: -1}
		if hashes != nil {
			sh.hash = hashes[i]
		}
		j.shards[i] = sh
		if prefilled != nil && prefilled[i] != nil {
			// When every shard is answered from the store, the job is
			// born done.
			c.finishShardLocked(sh, *prefilled[i], c.tel.recovered)
			continue
		}
		heap.Push(&c.pending, sh)
	}
	c.signalReadyLocked()
	if resumed {
		c.tel.resumed.Inc()
	}
	if j.total == 0 {
		close(j.done) // nothing to run; Assemble reports the empty spec
	}
	c.jobs[j.id] = j
	c.mu.Unlock()
	c.log.Info("dispatch job enqueued",
		"dispatch_job", j.id, "scenario", j.scName, "shards", j.total,
		"recovered_shards", nRecovered, "resumed", resumed)
	if nRecovered > 0 && opts.OnProgress != nil {
		opts.OnProgress(nRecovered, len(shardSpecs))
	}

	select {
	case <-j.done:
	case <-ctx.Done():
		c.mu.Lock()
		c.failJobLocked(j, ctx.Err())
		c.mu.Unlock()
	}

	c.mu.Lock()
	err := j.err
	delete(c.jobs, j.id)
	c.mu.Unlock()
	if c.cfg.Journal != nil && !errors.Is(err, ErrClosed) {
		// Terminal for good — done, failed, or cancelled — so nothing
		// remains to resume. A coordinator-close failure is the one
		// exception: that is the restart case the journal exists for, so
		// its entry stays for the next incarnation.
		if jerr := c.cfg.Journal.Remove(specHash); jerr != nil {
			c.log.Warn("dispatch journal remove failed", "spec_hash", specHash, "error", jerr.Error())
		}
	}
	if err != nil {
		return scenario.Result{}, err
	}
	// All shards accepted; results are no longer written, safe to read.
	return scenario.Assemble(j.scName, spec, j.results)
}

// LiveWorkers counts workers whose last lease request (or parked
// request's wake) is within the worker TTL — the signal midas-serve's
// in-process fallback reads.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now, ttl := time.Now(), c.cfg.workerTTL()
	n := 0
	for id, seen := range c.workers {
		if now.Sub(seen) <= ttl {
			n++
		} else {
			delete(c.workers, id)
		}
	}
	return n
}

// lease grants worker up to max ready shards, as the wire snapshots
// its response carries. An empty grant parks — without holding c.mu —
// and retries whenever a shard is pushed onto pending or the earliest
// backing-off shard's readyAt arrives, until a grant succeeds or the
// hold (half the worker TTL) runs out; every retry refreshes the
// worker's liveness stamp. It returns ErrClosed once the coordinator
// closes, parked or not, and ctx's error when the client goes away —
// handing any shards it had just granted straight back to pending.
func (c *Coordinator) lease(ctx context.Context, worker string, max int) ([]ShardLease, error) {
	holdEnd := time.Now().Add(c.cfg.workerTTL() / 2)
	for {
		now := time.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.workers[worker] = now
		granted := c.grantLocked(worker, max, now)
		if len(granted) > 0 && ctx.Err() != nil {
			// The client left while parked, or in the instant the grant
			// woke it: nobody will run these shards, so return them now
			// rather than at lease expiry.
			for _, l := range granted {
				c.abandonLocked(l)
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		if len(granted) > 0 || !now.Before(holdEnd) {
			// Snapshot every wire field while the lock is held: the moment
			// it drops, the sweeper may expire a lease, requeue its shard
			// and re-grant it, mutating sh.attempts (and the rest of the
			// lease bookkeeping) under a concurrent reader.
			out := make([]ShardLease, 0, len(granted))
			for _, l := range granted {
				out = append(out, ShardLease{
					ID:       l.id,
					Job:      l.sh.job.id,
					Shard:    l.sh.index,
					Attempt:  l.sh.attempts,
					Deadline: l.deadline,
					Spec:     l.sh.spec,
					Hash:     l.sh.hash,
				})
			}
			c.mu.Unlock()
			return out, nil
		}
		// An empty grant leaves pending either empty or headed by a live
		// shard still backing off: wake at its readyAt, or at the end of
		// the hold, whichever is first.
		wake := holdEnd
		if len(c.pending) > 0 && c.pending[0].readyAt.Before(wake) {
			wake = c.pending[0].readyAt
		}
		ready := c.ready
		c.mu.Unlock()

		timer := time.NewTimer(wake.Sub(now))
		select {
		case <-ready:
		case <-timer.C:
		case <-c.stop:
		case <-ctx.Done():
		}
		timer.Stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// signalReadyLocked wakes every parked lease request after shards
// were pushed onto pending. Called with c.mu held.
func (c *Coordinator) signalReadyLocked() {
	close(c.ready)
	c.ready = make(chan struct{})
}

// abandonLocked undoes a grant nobody received: the lease is retired
// (a stray completion under it is stale) and its shard goes back to
// pending as it was — the attempt never started, so it costs neither
// backoff nor attempt budget. Called with c.mu held.
func (c *Coordinator) abandonLocked(l *lease) {
	c.retireLeaseLocked(l, "abandoned")
	c.tel.requeues.With("abandoned").Inc()
	l.sh.state = shardPending
	l.sh.attempts--
	heap.Push(&c.pending, l.sh)
	c.signalReadyLocked()
}

// grantLocked pops up to max ready shards and turns each into a lease
// for worker. Called with c.mu held.
func (c *Coordinator) grantLocked(worker string, max int, now time.Time) []*lease {
	if b := c.cfg.maxBatch(); max <= 0 || max > b {
		max = b
	}
	var out []*lease
	for len(out) < max && len(c.pending) > 0 {
		sh := c.pending[0]
		if sh.job.terminal() {
			// Lazily discard shards of failed/cancelled jobs.
			heap.Pop(&c.pending)
			continue
		}
		if sh.readyAt.After(now) {
			break // earliest shard still backing off; so is everything behind it
		}
		heap.Pop(&c.pending)
		sh.state = shardLeased
		sh.attempts++
		c.nextLease++
		l := &lease{
			id:       fmt.Sprintf("%s-%06d", c.nonce, c.nextLease),
			sh:       sh,
			worker:   worker,
			granted:  now,
			deadline: now.Add(c.cfg.leaseTTL()),
		}
		c.leases[l.id] = l
		out = append(out, l)
		c.tel.leased.Inc()
	}
	return out
}

// completeLocked applies one completion report to the lease table,
// returning the protocol status ("accepted", "requeued", "duplicate"
// or "stale") and, when a job just finished or progressed, the
// callbacks to invoke after the lock is released. direct marks a
// result that already reached the durable store via a worker's direct
// publish (and was verified there by the handler): the coordinator
// then skips its own redundant store publish — the shard payload never
// transits the dispatch HTTP body on that path. Called with c.mu held.
func (c *Coordinator) completeLocked(leaseID, worker string, res *scenario.Result, workerErr string, direct bool, now time.Time) (status string, after func()) {
	l, ok := c.leases[leaseID]
	if !ok {
		// The lease is gone: it expired and was requeued (the classic
		// slow-worker race), its shard already completed under a newer
		// lease, or it belongs to a previous coordinator incarnation.
		// All of these are expected protocol weather, not errors — the
		// work is deterministic, so discarding the report loses nothing.
		if why, ok := c.retired[leaseID]; ok && why == "done" {
			c.tel.completions.With("duplicate").Inc()
			return "duplicate", nil
		}
		c.tel.completions.With("stale").Inc()
		return "stale", nil
	}
	sh := l.sh
	c.retireLeaseLocked(l, "")
	if sh.job.terminal() || sh.state == shardDone {
		// A terminal job keeps no leases and a done shard retires its
		// lease, so a live lease should never point at either; classify
		// defensively rather than panic on a protocol bug.
		c.tel.completions.With("stale").Inc()
		return "stale", nil
	}
	if workerErr != "" || res == nil {
		if workerErr == "" {
			workerErr = "completion carried no result"
		}
		sh.lastErr = workerErr
		c.requeueLocked(sh, "failed", now)
		c.tel.completions.With("requeued").Inc()
		return "requeued", nil
	}

	c.retired[leaseID] = "done"
	latency := now.Sub(l.granted)
	c.tel.leaseLatency.Observe(latency.Seconds())
	finished := c.finishShardLocked(sh, *res, c.tel.completions.With("accepted"))
	total := sh.job.total
	opts := sh.job.opts
	index := sh.index
	shardHash := sh.hash
	shardSpec := sh.spec
	// The store publish and progress callbacks run outside c.mu (the
	// publish does fsync I/O, the callbacks take the caller's locks —
	// midas-serve's job table) but still serialized and monotonic:
	// completions are applied one at a time under c.mu and the returned
	// closure is invoked before the handler returns.
	after = func() {
		if shardHash != "" && !direct {
			// Idempotent by content address: a duplicate publish after a
			// requeue race rewrites the identical bytes. A direct publish
			// skips this — the worker already wrote the blob and the
			// handler verified it (read-through indexed it in passing).
			if _, perr := scenario.PublishResult(c.cfg.Store, shardHash, shardSpec, *res); perr != nil {
				c.log.Warn("shard result publish failed", "shard_hash", shardHash, "error", perr.Error())
			}
		}
		if opts.OnProgress != nil {
			opts.OnProgress(finished, total)
		}
		if opts.OnRunDone != nil {
			opts.OnRunDone(runner.Progress{Index: index, Completed: finished, Total: total, Elapsed: latency})
		}
	}
	return "accepted", after
}

// finishShardLocked is the one shard-done transition: it records res
// as sh's result, counts it on counter (accepted or recovered), and
// wakes Run once the job's last shard is in. It returns the job's
// finished count. Called with c.mu held.
func (c *Coordinator) finishShardLocked(sh *shard, res scenario.Result, counter *telemetry.Counter) int {
	j := sh.job
	sh.state = shardDone
	j.results[sh.index] = res
	j.finished++
	counter.Inc()
	if j.finished == j.total {
		close(j.done)
	}
	return j.finished
}

// retireLeaseLocked removes a lease from the live table and tombstones
// its id so a late duplicate completion can be classified. why "" means
// the caller will set a more specific tombstone itself.
func (c *Coordinator) retireLeaseLocked(l *lease, why string) {
	delete(c.leases, l.id)
	if why != "" {
		c.retired[l.id] = why
	} else if _, ok := c.retired[l.id]; !ok {
		c.retired[l.id] = "retired"
	}
	c.retiredQ = append(c.retiredQ, l.id)
	for len(c.retiredQ) > retiredKeep {
		delete(c.retired, c.retiredQ[0])
		c.retiredQ = c.retiredQ[1:]
	}
}

// requeueLocked returns a shard to the pending queue with exponential
// backoff, or fails its job once the attempt budget is spent. reason is
// the requeue-metric label: "expired" (lease deadline passed) or
// "failed" (worker reported an error). Called with c.mu held.
func (c *Coordinator) requeueLocked(sh *shard, reason string, now time.Time) {
	c.tel.requeues.With(reason).Inc()
	j := sh.job
	if sh.attempts >= c.cfg.maxAttempts() {
		err := fmt.Errorf("dispatch: shard %d of %s failed %d times (budget %d), last: %s",
			sh.index, j.id, sh.attempts, c.cfg.maxAttempts(), lastErrOr(sh, reason))
		c.failJobLocked(j, err)
		return
	}
	// Exponential: base after the first failure, doubling per attempt,
	// capped — the rate-limited-requeue discipline of controller work
	// queues, so one bad shard cannot hot-loop the fleet.
	backoff := c.cfg.backoffBase() << (sh.attempts - 1)
	if max := c.cfg.backoffMax(); backoff > max || backoff <= 0 {
		backoff = max
	}
	sh.state = shardPending
	sh.readyAt = now.Add(backoff)
	heap.Push(&c.pending, sh)
	c.signalReadyLocked()
	c.log.Info("dispatch shard requeued",
		"dispatch_job", j.id, "shard", sh.index, "reason", reason,
		"attempt", sh.attempts, "backoff", backoff.String())
}

func lastErrOr(sh *shard, reason string) string {
	if sh.lastErr != "" {
		return sh.lastErr
	}
	return "lease " + reason
}

// failJobLocked terminates a job: records the error, wakes Run, and
// retires the job's outstanding leases (their late completions become
// stale). Pending shards are discarded lazily by grantLocked. No-op on
// an already-terminal job. Called with c.mu held.
func (c *Coordinator) failJobLocked(j *dJob, err error) {
	if j.terminal() {
		return
	}
	j.err = err
	close(j.done)
	for _, l := range c.leases {
		if l.sh.job == j {
			c.retireLeaseLocked(l, "cancelled")
		}
	}
	c.log.Warn("dispatch job failed", "dispatch_job", j.id, "scenario", j.scName, "error", err.Error())
}

// sweeper periodically requeues leases whose deadline has passed — the
// only way a dead worker's shards get back into circulation.
func (c *Coordinator) sweeper() {
	defer c.stopped.Done()
	tick := time.NewTicker(c.cfg.sweepInterval())
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.expire(now)
		}
	}
}

// expire requeues every lease whose deadline has passed, then checks
// the durable store for each requeued shard: a worker that direct-
// published its result and died before the completion POST (kill -9 in
// the acknowledgement window) left the result safely in the store —
// recover it instead of re-executing the shard.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	var orphaned []*shard
	for _, l := range c.leases {
		if now.After(l.deadline) {
			c.retireLeaseLocked(l, "expired")
			if !l.sh.job.terminal() && l.sh.state == shardLeased {
				c.log.Warn("dispatch lease expired",
					"lease", l.id, "worker", l.worker,
					"dispatch_job", l.sh.job.id, "shard", l.sh.index)
				c.requeueLocked(l.sh, "expired", now)
				if l.sh.hash != "" && l.sh.state == shardPending {
					orphaned = append(orphaned, l.sh)
				}
			}
		}
	}
	c.mu.Unlock()
	for _, sh := range orphaned {
		c.recoverFromStore(sh)
	}
}

// recoverFromStore completes a requeued shard from the durable store
// if its result landed there — the orphaned-direct-publish case. The
// store read (disk or shared-mount I/O) happens outside c.mu; the
// shard may be leased again or its job may turn terminal in that
// window, in which case the recovery quietly stands down (the work is
// deterministic; whoever wins writes the same result).
func (c *Coordinator) recoverFromStore(sh *shard) {
	env, _, err := scenario.LoadResult(c.cfg.Store, c.log, sh.hash)
	if err != nil {
		return
	}

	c.mu.Lock()
	j := sh.job
	if j.terminal() || sh.state != shardPending {
		c.mu.Unlock()
		return
	}
	if sh.heapIdx >= 0 {
		heap.Remove(&c.pending, sh.heapIdx)
	}
	finished := c.finishShardLocked(sh, env.Result, c.tel.recovered)
	total := j.total
	opts := j.opts
	c.mu.Unlock()

	c.log.Info("dispatch shard recovered from store after lease expiry",
		"dispatch_job", j.id, "shard", sh.index, "shard_hash", sh.hash)
	if opts.OnProgress != nil {
		opts.OnProgress(finished, total)
	}
}

// shardCounts counts the shards queued for a lease (those of terminal
// jobs excluded) and the shards out on a lease.
func (c *Coordinator) shardCounts() (pending, leased int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.pending {
		if !sh.job.terminal() {
			pending++
		}
	}
	return pending, len(c.leases)
}
