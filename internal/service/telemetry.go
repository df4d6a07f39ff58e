package service

import (
	"repro/internal/store"
	"repro/internal/telemetry"
)

// This file owns the service's instruments, its only counter surface:
// latency *distributions* (queue wait, run duration, cache-path
// latencies) in fixed-bucket histograms, plus cumulative counters and
// scrape-time gauges. GET /metrics renders them in exposition format.
//
// Naming follows the Prometheus conventions: midas_ prefix, base
// units (seconds), _total on counters. Everything is registered once
// at New; the instruments are atomics, so observing under the service
// mutex costs nanoseconds, while rendering never takes it (the
// GaugeFunc callbacks grab it briefly to snapshot the job table).

// Latency bucket layouts. Submissions answered from the cache or
// coalesced onto an in-flight run complete in microseconds; queue wait
// and engine runs range from sub-millisecond (cached-scale specs) to
// minutes (full paper figures), so both spans are covered by
// exponential buckets: bounds fixed up front, each a constant factor
// above the last, which spans an open-ended range in few buckets.
var (
	// 1µs … ~4s in 11 buckets: the submit-path latencies.
	submitPathBuckets = telemetry.ExponentialBuckets(1e-6, 4, 11)
	// 0.5ms … ~65s in 18 buckets: queue wait, per-task and whole-run
	// durations.
	runBuckets = telemetry.ExponentialBuckets(0.0005, 2, 18)
)

// instruments bundles every metric the service records.
type instruments struct {
	reg *telemetry.Registry

	submissions *telemetry.CounterVec // outcome: queued|cached|coalesced|rejected
	finished    *telemetry.CounterVec // state: done|failed|cancelled
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	coalesced   *telemetry.Counter

	queueWait    *telemetry.Histogram    // submission -> worker dispatch
	runDuration  *telemetry.HistogramVec // scenario-labelled engine run wall time
	taskSeconds  *telemetry.Histogram    // one expanded run (sweep point × replicate)
	cacheHitLat  *telemetry.Histogram    // Submit answered from cache
	cacheMissLat *telemetry.Histogram    // Submit that had to enqueue
	coalesceLat  *telemetry.Histogram    // Submit attached to an in-flight leader
}

// newInstruments registers the service metrics on reg and wires the
// scrape-time gauges to the service's live state.
func newInstruments(reg *telemetry.Registry, s *Service) *instruments {
	in := &instruments{
		reg: reg,
		submissions: reg.NewCounterVec("midas_submissions_total",
			"Spec submissions by outcome (queued, cached, coalesced, rejected).", "outcome"),
		finished: reg.NewCounterVec("midas_jobs_finished_total",
			"Jobs reaching a terminal state, by state.", "state"),
		cacheHits: reg.NewCounter("midas_cache_hits_total",
			"Submissions answered from the spec-hash result cache."),
		cacheMisses: reg.NewCounter("midas_cache_misses_total",
			"Submissions that missed the result cache."),
		coalesced: reg.NewCounter("midas_coalesced_total",
			"Submissions attached to an identical in-flight run (single-flight)."),
		queueWait: reg.NewHistogram("midas_job_queue_wait_seconds",
			"Time a job waited between submission and worker dispatch.", runBuckets),
		runDuration: reg.NewHistogramVec("midas_job_run_seconds",
			"Wall time of one engine run, by scenario.", runBuckets, "scenario"),
		taskSeconds: reg.NewHistogram("midas_run_task_seconds",
			"Wall time of one expanded run (sweep point × replicate) inside a job.", runBuckets),
		cacheHitLat: reg.NewHistogram("midas_cache_hit_seconds",
			"Submit latency when answered from the result cache.", submitPathBuckets),
		cacheMissLat: reg.NewHistogram("midas_cache_miss_seconds",
			"Submit latency when the spec had to be enqueued for a fresh run.", submitPathBuckets),
		coalesceLat: reg.NewHistogram("midas_coalesce_seconds",
			"Submit latency when attached to an identical in-flight run.", submitPathBuckets),
	}
	reg.NewGaugeFunc("midas_jobs", "Jobs in the retained table, by state.",
		[]string{"state"}, func() []telemetry.GaugeSample {
			byState := map[State]int{}
			s.mu.Lock()
			for _, j := range s.jobs {
				byState[j.state]++
			}
			s.mu.Unlock()
			out := make([]telemetry.GaugeSample, 0, 5)
			for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
				out = append(out, telemetry.GaugeSample{LabelValues: []string{string(st)}, Value: float64(byState[st])})
			}
			return out
		})
	reg.NewGaugeFunc("midas_queue_depth", "Jobs waiting for a worker.",
		nil, func() []telemetry.GaugeSample {
			s.mu.Lock()
			depth := len(s.queue)
			s.mu.Unlock()
			return []telemetry.GaugeSample{{Value: float64(depth)}}
		})
	reg.NewGaugeFunc("midas_cache_entries", "Result-cache entries resident.",
		nil, func() []telemetry.GaugeSample {
			s.mu.Lock()
			n := s.cache.Len()
			s.mu.Unlock()
			return []telemetry.GaugeSample{{Value: float64(n)}}
		})
	reg.NewGaugeFunc("midas_draining", "1 while Shutdown is draining the pool.",
		nil, func() []telemetry.GaugeSample {
			v := 0.0
			if s.Draining() {
				v = 1
			}
			return []telemetry.GaugeSample{{Value: v}}
		})
	reg.NewGauge("midas_workers", "Size of the job worker pool.").Set(float64(s.cfg.workers()))
	if s.store != nil {
		registerStoreInstruments(reg, s)
	}
	return in
}

// registerStoreInstruments exposes the durable result tier. The store
// keeps its own cumulative tallies (it is self-locking and shared with
// the admission path), so the counters are sampled from Stats() at
// scrape time via NewCounterFunc instead of being mirrored write-
// through.
func registerStoreInstruments(reg *telemetry.Registry, s *Service) {
	sample := func(pick func(store.Stats) float64) func() []telemetry.GaugeSample {
		return func() []telemetry.GaugeSample {
			return []telemetry.GaugeSample{{Value: pick(s.store.Stats())}}
		}
	}
	for _, c := range []struct {
		name, help string
		pick       func(store.Stats) float64
	}{
		{"midas_store_hits_total", "Store-tier lookups that served a verified entry.",
			func(st store.Stats) float64 { return float64(st.Hits) }},
		{"midas_store_misses_total", "Store-tier lookups that found nothing servable.",
			func(st store.Stats) float64 { return float64(st.Misses) }},
		{"midas_store_writes_total", "Results durably persisted to the store.",
			func(st store.Stats) float64 { return float64(st.Writes) }},
		{"midas_store_write_errors_total", "Store persists that failed (result still served from memory).",
			func(st store.Stats) float64 { return float64(st.WriteErrors) }},
		{"midas_store_evictions_total", "Entries evicted to hold the store's byte budget.",
			func(st store.Stats) float64 { return float64(st.Evictions) }},
		{"midas_store_quarantined_total", "Entries that failed verification and were quarantined.",
			func(st store.Stats) float64 { return float64(st.Quarantined) }},
	} {
		reg.NewCounterFunc(c.name, c.help, nil, sample(c.pick))
	}
	reg.NewGaugeFunc("midas_store_entries", "Entries resident in the durable store.",
		nil, sample(func(st store.Stats) float64 { return float64(st.Entries) }))
	reg.NewGaugeFunc("midas_store_bytes", "Bytes resident in the durable store (headers included).",
		nil, sample(func(st store.Stats) float64 { return float64(st.Bytes) }))
}
