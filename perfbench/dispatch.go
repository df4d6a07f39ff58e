package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The dispatch-sweep workload: one client in a closed loop submits a
// 64-point fig14 seed sweep over fresh seeds to a midas-serve
// coordinator (durable store, journal on) with two midas-worker
// processes, and waits for the merged result. Lease and completion
// calls, store publishes and the per-shard journal rewrite dominate.
const (
	sweepPoints     = 64
	sweepTopologies = 8
	sweepWorkers    = 2
	// sweepLaunches is how many fleet start-ups set-up time is the
	// median of.
	sweepLaunches = 7
)

// fleet is one coordinator and its workers.
type fleet struct {
	serve   *proc
	workers []*proc
	base    string
}

func (f *fleet) stop() {
	stopAll(f.workers...)
	stopAll(f.serve)
}

func (f *fleet) kill() {
	for _, p := range append(f.workers, f.serve) {
		if p != nil {
			p.kill()
		}
	}
}

func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range append([]*proc{f.serve}, f.workers...) {
		v, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// startFleet launches the coordinator and its workers, and returns
// once every worker is polling and a warm-up sweep has completed.
func startFleet(cfg config, storeDir string, warmup scenario.Spec) (*fleet, error) {
	f := &fleet{}
	serve, addrs, err := startProc("midas-serve", filepath.Join(cfg.binDir, "midas-serve"),
		[]string{"-addr", "127.0.0.1:0", "-dispatch-listen", "127.0.0.1:0", "-store-dir", storeDir},
		filepath.Join(cfg.workDir, "serve.log"),
		"midas-serve listening on http://", "midas-serve dispatch listening on http://")
	if err != nil {
		return nil, err
	}
	f.serve, f.base = serve, "http://"+addrs[0]
	for i := 0; i < sweepWorkers; i++ {
		w, _, err := startProc("midas-worker", filepath.Join(cfg.binDir, "midas-worker"),
			[]string{"-coordinator", "http://" + addrs[1]},
			filepath.Join(cfg.workDir, fmt.Sprintf("worker%d.log", i)))
		if err != nil {
			f.kill()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	c := newClient(f.base)
	defer c.close()
	if err := waitWorkers(c); err != nil {
		f.kill()
		return nil, err
	}
	if _, err := c.runJob(specJSON(warmup)); err != nil {
		f.kill()
		return nil, fmt.Errorf("fleet warm-up: %v", err)
	}
	return f, nil
}

// waitWorkers polls /metrics until every worker is live, so the
// coordinator dispatches sweeps instead of running them in process.
func waitWorkers(c *client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s, err := fetchProm(c.hc, c.base); err == nil && s["midas_workers_live"] >= sweepWorkers {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fewer than %d workers live after 30s", sweepWorkers)
}

// sweepRun is one submitted sweep.
type sweepRun struct {
	spec     scenario.Spec
	run      jobRun
	makespan time.Duration
}

func runDispatchSweep(cfg config) (*outcome, error) {
	o := newOutcome()
	seeds := &freshSeeds{r: cfg.rng(1), used: map[int64]bool{}}
	sweep := func() scenario.Spec { return fig14Sweep(seeds.nextN(sweepPoints)) }
	storeDir := filepath.Join(cfg.workDir, "store")
	var fl *fleet
	var setups []float64
	for i := 0; i < sweepLaunches; i++ {
		if fl != nil {
			fl.stop()
		}
		t := time.Now()
		var err error
		if fl, err = startFleet(cfg, storeDir, sweep()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer fl.kill()

	c := newClient(fl.base)
	defer c.close()
	before, err := fetchProm(c.hc, fl.base)
	if err != nil {
		return nil, err
	}
	var runs []sweepRun
	start := time.Now()
	for deadline := start.Add(cfg.window); time.Now().Before(deadline); {
		s := sweep()
		o.attempted++
		t := time.Now()
		r, err := c.runJob(specJSON(s))
		makespan := time.Since(t)
		o.retried += r.retries
		if err != nil {
			o.fail("sweep: %v", err)
			continue
		}
		// Resubmitting the finished sweep must be answered from the
		// memory cache with the same bytes; it exercises the cache
		// layer and takes about a millisecond.
		again, err := c.runJob(specJSON(s))
		o.retried += again.retries
		switch {
		case err != nil:
			o.fail("sweep resubmission: %v", err)
			continue
		case again.status.CacheTier != "memory" || !bytes.Equal(again.body, r.body):
			o.fail("sweep resubmission: tier %q, same body %v", again.status.CacheTier, bytes.Equal(again.body, r.body))
			continue
		}
		runs = append(runs, sweepRun{spec: s, run: r, makespan: makespan})
	}
	window := time.Since(start)
	after, err := fetchProm(c.hc, fl.base)
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	fl.stop()

	// Each merged result must equal a local run of the same spec; the
	// local runs' wall time is also the overhead ratio's denominator.
	var makespans, locals []float64
	var allocs uint64
	for _, r := range runs {
		local, err := localBody(r.spec)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(local.body, r.run.body) {
			o.fail("sweep %d: merged result differs from a local RunResolved", r.spec.Seed)
			continue
		}
		makespans = append(makespans, r.makespan.Seconds())
		locals = append(locals, local.wall.Seconds())
		allocs += local.allocs
	}
	d := delta(before, after)
	accepted := d[`midas_shards_completed_total{status="accepted"}`]
	setup, err := median(setups)
	if err != nil {
		return nil, err
	}
	span, err := median(makespans)
	if err != nil {
		return nil, err
	}
	local, err := median(locals)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: dispatch-sweep: %d-point sweeps, %.0f shards accepted in %.2fs; %s\n",
		sweepPoints, accepted, window.Seconds(), describe("makespan", "s", makespans))
	o.e2e["setup_s"] = unitValue{setup, "s"}
	o.e2e["peak_rss_mb"] = unitValue{rss, "MiB"}
	o.e2e["makespan_p50_s"] = unitValue{span, "s"}
	o.e2e["shards_per_s"] = unitValue{accepted / window.Seconds(), "1/s"}
	o.e2e["run_p50_s"] = unitValue{local, "s"}
	o.e2e["allocs_per_run"] = unitValue{float64(allocs) / float64(len(locals)), "count"}
	if !cfg.trace {
		return o, nil
	}

	o.layer["traced.makespan_p50_s"] = unitValue{span, "s"}
	lease, err := d.histMean("midas_shard_lease_seconds", "")
	if err != nil {
		return nil, err
	}
	shardRun, err := shardRunMS(runs[0].spec)
	if err != nil {
		return nil, err
	}
	useful, err := ratio(accepted, d.sum("midas_shards_leased_total"), "useful ratio")
	if err != nil {
		return nil, err
	}
	writes, err := ratio(d.sum("midas_store_writes_total"), accepted, "store writes per shard")
	if err != nil {
		return nil, err
	}
	o.layer["dispatch.lease_ms"] = unitValue{1000 * lease, "ms"}
	o.layer["scenario.shard_run_ms"] = unitValue{shardRun, "ms"}
	o.layer["dispatch.shard_overhead_ms"] = unitValue{1000*lease - shardRun, "ms"}
	o.layer["dispatch.overhead_ratio"] = unitValue{span / local, "ratio"}
	o.layer["dispatch.useful_ratio"] = unitValue{useful, "ratio"}
	o.layer["dispatch.requeues"] = unitValue{d.sum("midas_shard_requeues_total"), "count"}
	o.layer["store.writes_per_shard"] = unitValue{writes, "count"}
	if err := serviceLayers(d, runs, o); err != nil {
		return nil, err
	}
	var shards []string
	for _, r := range runs {
		_, spec, err := resolve(r.spec)
		if err != nil {
			return nil, err
		}
		shards = append(shards, spec.ShardHashes()...)
	}
	if err := storeProbe(storeDir, filepath.Join(cfg.workDir, "probe-store"), shards, o); err != nil {
		return nil, err
	}
	if err := journalProbe(filepath.Join(cfg.workDir, "journal-probe"), runs[0].spec, o); err != nil {
		return nil, err
	}
	return o, nil
}

// serviceLayers reports the job service's share of the window from its
// /metrics delta and the client's own timings of the sweeps.
func serviceLayers(d scrape, runs []sweepRun, o *outcome) error {
	qw, err := d.histMean("midas_job_queue_wait_seconds", "")
	if err != nil {
		return err
	}
	run, err := d.histMean("midas_job_run_seconds", `scenario="fig14-packet-tagging"`)
	if err != nil {
		return err
	}
	hitLat, err := d.histMean("midas_cache_hit_seconds", "")
	if err != nil {
		return err
	}
	memHit, err := ratio(d.sum("midas_cache_hits_total")-d.sum("midas_store_hits_total"), d.sum("midas_submissions_total"), "memory hit ratio")
	if err != nil {
		return err
	}
	var spans, submits, results []float64
	polls := 0
	for _, r := range runs {
		spans = append(spans, ms(r.makespan))
		submits = append(submits, ms(r.run.submit))
		results = append(results, ms(r.run.result))
		polls += r.run.polls
	}
	spanMean, err := mean(spans)
	if err != nil {
		return err
	}
	o.layer["service.queue_wait_ms"] = unitValue{1000 * qw, "ms"}
	o.layer["service.run_ms"] = unitValue{1000 * run, "ms"}
	o.layer["service.overhead_ms"] = unitValue{spanMean - 1000*(qw+run), "ms"}
	o.layer["service.memory_hit_ratio"] = unitValue{memHit, "ratio"}
	o.layer["service.cache_hit_ms"] = unitValue{1000 * hitLat, "ms"}
	if err := putMedian(o.layer, "http.submit_ms", submits); err != nil {
		return err
	}
	if err := putMedian(o.layer, "http.result_ms", results); err != nil {
		return err
	}
	o.layer["http.polls_per_job"] = unitValue{float64(polls) / float64(len(runs)), "count"}
	o.layer["http.retries"] = unitValue{float64(o.retried), "count"}
	return nil
}

// shardRunMS is the mean in-process Scenario.Run time of the sweep's
// shards: the engine work inside one lease.
func shardRunMS(overrides scenario.Spec) (float64, error) {
	sc, spec, err := resolve(overrides)
	if err != nil {
		return 0, err
	}
	shards := spec.Shards()
	t := time.Now()
	for _, s := range shards {
		if _, err := sc.Run(s, rng.New(s.Seed)); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t)) / float64(len(shards)), nil
}

// journalProbe replays one sweep's journal traffic — Record, a
// MarkDone per shard, Remove — through a timing, byte-counting
// backend, exposing the whole-entry rewrite per shard.
func journalProbe(dir string, overrides scenario.Spec, o *outcome) error {
	_, spec, err := resolve(overrides)
	if err != nil {
		return err
	}
	be, err := store.OpenDir(dir, nil)
	if err != nil {
		return err
	}
	cb := &countingBackend{Backend: be}
	j, err := journal.OpenBackend(cb, nil)
	if err != nil {
		return err
	}
	hash := spec.CanonicalHash()
	shards := spec.ShardHashes()
	if err := j.Record(journal.Entry{SpecHash: hash, Scenario: spec.Scenario, Spec: spec,
		Shards: shards, Done: make([]bool, len(shards))}); err != nil {
		return err
	}
	t := time.Now()
	for i := range shards {
		if err := j.MarkDone(hash, i); err != nil {
			return err
		}
	}
	mark := time.Since(t)
	if err := j.Remove(hash); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, hash+".json")); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal probe: entry not removed (%v)", err)
	}
	o.layer["journal.markdone_ms"] = unitValue{ms(mark) / float64(len(shards)), "ms"}
	o.layer["journal.bytes_per_sweep"] = unitValue{float64(cb.bytes), "bytes"}
	return nil
}

// countingBackend counts the bytes written through a store.Backend.
// The probe drives it from one goroutine.
type countingBackend struct {
	store.Backend
	bytes int64
}

func (c *countingBackend) Write(name string, data []byte) error {
	c.bytes += int64(len(data))
	return c.Backend.Write(name, data)
}

// fig14Sweep is a seed sweep of fig14 at sweepTopologies per point.
func fig14Sweep(seeds []int64) scenario.Spec {
	vals := make([]float64, len(seeds))
	for i, s := range seeds {
		vals[i] = float64(s)
	}
	return scenario.Spec{Scenario: "fig14-packet-tagging", Topologies: sweepTopologies, Seed: seeds[0],
		Sweep: map[string][]float64{"seed": vals}}
}

// freshSeeds hands out distinct spec seeds. Seeds stay below 2^40 so
// a sweep's float64 values hold them exactly.
type freshSeeds struct {
	r    *rand.Rand
	used map[int64]bool
}

func (f *freshSeeds) next() int64 {
	for {
		s := 1 + f.r.Int64N(1<<40)
		if !f.used[s] {
			f.used[s] = true
			return s
		}
	}
}

func (f *freshSeeds) nextN(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f.next()
	}
	return out
}

// putMedian stores the median of a millisecond sample as metric name.
func putMedian(m map[string]unitValue, name string, xs []float64) error {
	v, err := median(xs)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	m[name] = unitValue{v, "ms"}
	return nil
}

// storeProbe times the store layer on the window's shard entries:
// opening the coordinator's store (its warm scan), reading each
// entry, and writing each again into a fresh store.
func storeProbe(dir, probeDir string, hashes []string, o *outcome) error {
	var opens []float64
	var st *store.Store
	for i := 0; i < 3; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if st, err = store.Open(store.Config{Dir: dir}); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t)))
	}
	defer st.Close()
	var gets []float64
	payloads := make([][]byte, len(hashes))
	for i, h := range hashes {
		t := time.Now()
		payload, ok := st.Get(h)
		if !ok {
			return fmt.Errorf("store probe: entry %s missing", h)
		}
		gets = append(gets, ms(time.Since(t)))
		payloads[i] = payload
	}
	probe, err := store.Open(store.Config{Dir: probeDir})
	if err != nil {
		return err
	}
	defer probe.Close()
	var puts []float64
	for i, h := range hashes {
		t := time.Now()
		if err := probe.Put(h, payloads[i]); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: store probe: %s; %s; %s\n",
		describe("open", "ms", opens), describe("get", "ms", gets), describe("put", "ms", puts))
	for name, xs := range map[string][]float64{"store.open_ms": opens, "store.get_ms": gets, "store.put_ms": puts} {
		if err := putMedian(o.layer, name, xs); err != nil {
			return err
		}
	}
	return nil
}
