package dispatch

import "repro/internal/telemetry"

// Instruments for the dispatch layer, registered on the same registry
// midas-serve renders at /metrics (naming per the service conventions:
// midas_ prefix, seconds, _total counters). The completions counter is
// the cluster-e2e ground truth for "no duplicate side effects": its
// accepted series must equal the spec's shard count no matter how many
// times shards were leased, killed, or double-completed.
type instruments struct {
	leased      *telemetry.Counter    // midas_shards_leased_total
	requeues    *telemetry.CounterVec // midas_shard_requeues_total{reason}
	completions *telemetry.CounterVec // midas_shards_completed_total{status}
	// recovered counts shards answered from the durable store without
	// leasing — journal resume after a restart or sweep-point reuse
	// across jobs; cluster-e2e's restart phase asserts recovered +
	// accepted = shard count, the "zero re-execution" proof.
	recovered *telemetry.Counter // midas_shards_recovered_total
	resumed   *telemetry.Counter // midas_jobs_resumed_total
	// direct counts worker direct-publish acknowledgements by outcome:
	// "verified" (the coordinator found and verified the blob in the
	// shared store) or "resend" (it could not, and asked the worker to
	// re-send the result inline).
	direct *telemetry.CounterVec // midas_shards_direct_total{outcome}
	// leaseLatency observes grant -> accepted completion: the remote
	// run + both HTTP hops, the distribution that sizes LeaseTTL.
	leaseLatency *telemetry.Histogram
}

// 0.5ms … ~65s, the service's runBuckets shape: a lease spans one
// engine shard plus network, same dynamic range as a local run.
var leaseBuckets = telemetry.ExponentialBuckets(0.0005, 2, 18)

func newInstruments(reg *telemetry.Registry, c *Coordinator) *instruments {
	in := &instruments{
		leased: reg.NewCounter("midas_shards_leased_total",
			"Shard leases granted to workers (re-leases after requeue included)."),
		requeues: reg.NewCounterVec("midas_shard_requeues_total",
			"Shards returned to the queue, by reason (expired, failed, abandoned).", "reason"),
		completions: reg.NewCounterVec("midas_shards_completed_total",
			"Shard completion reports, by status (accepted, requeued, duplicate, stale).", "status"),
		recovered: reg.NewCounter("midas_shards_recovered_total",
			"Shards answered from the durable store without leasing (journal resume or cross-job sweep-point reuse)."),
		resumed: reg.NewCounter("midas_jobs_resumed_total",
			"Journaled half-finished jobs re-dispatched after a coordinator restart."),
		direct: reg.NewCounterVec("midas_shards_direct_total",
			"Worker direct-publish acknowledgements, by outcome (verified, resend).", "outcome"),
		leaseLatency: reg.NewHistogram("midas_shard_lease_seconds",
			"Time from lease grant to accepted completion.", leaseBuckets),
	}
	// Pre-create the series the e2e greps for, so /metrics exposes an
	// explicit 0 before the first event of each kind.
	for _, r := range []string{"expired", "failed"} {
		in.requeues.With(r)
	}
	for _, s := range []string{"accepted", "requeued", "duplicate", "stale", "resend"} {
		in.completions.With(s)
	}
	for _, o := range []string{"verified", "resend"} {
		in.direct.With(o)
	}
	reg.NewGaugeFunc("midas_workers_live",
		"Workers that asked for a lease, or were parked waiting for one, within the worker TTL.",
		nil, func() []telemetry.GaugeSample {
			return []telemetry.GaugeSample{{Value: float64(c.LiveWorkers())}}
		})
	reg.NewGaugeFunc("midas_shards_pending",
		"Shards queued (or backing off) awaiting a lease.",
		nil, func() []telemetry.GaugeSample {
			pending, _ := c.shardCounts()
			return []telemetry.GaugeSample{{Value: float64(pending)}}
		})
	return in
}
