package scenario

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
)

// This file is the replicate-aggregation layer: Spec.Replicates fans
// every sweep point into N independent runs over split seeds, and the
// N results are merged online into {mean, stddev, ci95, n} summaries.
// Aggregation is streaming end to end — Welford accumulators for the
// summaries, a P² sketch for pooled distribution quantiles — so the
// merged result's size is bounded by the result schema, never by
// replicates × samples.

// replicateSpecs expands one sweep point into its concrete
// single-replicate specs. Replicate 0 runs the point's own seed, so the
// first replicate of a replicated run is bit-identical to the
// unreplicated run of the same spec; replicate r >= 1 derives its seed
// from rng.New(seed).SplitN("replicate", r) — decorrelated from the
// base stream and from the seed+1, seed+2, … seeds users pick by hand,
// so raising Replicates never silently re-runs a seed already reported
// elsewhere.
func (s Spec) replicateSpecs() []Spec {
	n := s.Replicates
	if n < 1 {
		n = 1
	}
	out := make([]Spec, n)
	for r := 0; r < n; r++ {
		q := s.clone()
		q.Sweep = nil
		q.Replicates = 1
		if r > 0 {
			q.Seed = rng.SplitNSeed(s.Seed, "replicate", r)
		}
		out[r] = q
	}
	return out
}

// pooledQuantiles are the distribution points the replicate merge
// reports for every series, sketched over the replicates' pooled
// samples.
var pooledQuantiles = []struct {
	name string
	q    float64
}{
	{"p10", 0.10},
	{"p50", 0.50},
	{"p90", 0.90},
}

// aggregateReplicates merges the ordered results of one sweep point's
// replicates into a single Result:
//
//   - every metric becomes a Summary of its value across replicates;
//   - every series becomes a Summary of its per-replicate medians (the
//     replicate-level statistic the paper's CDF figures headline) plus
//     pooled p10/p50/p90 metrics estimated by a P² sketch fed all
//     replicates' samples in order;
//   - raw per-replicate series and free-form text are dropped — they
//     are per-run presentation, and carrying N copies would defeat the
//     bounded-memory contract.
//
// Results arrive ordered by replicate index (runner.Map's contract), so
// the aggregation — and therefore the merged output — is independent of
// the parallelism the replicates executed at.
func aggregateReplicates(scName string, reps []Result) Result {
	out := Result{Scenario: scName}
	if len(reps) == 0 {
		return out
	}
	for si, s := range reps[0].Series {
		var medians stats.Summary
		sketches := make([]*stats.P2Quantile, len(pooledQuantiles))
		for i, pq := range pooledQuantiles {
			sketches[i] = stats.NewP2Quantile(pq.q)
		}
		for _, rep := range reps {
			vals, ok := seriesValues(rep, si, s.Label)
			if !ok {
				continue
			}
			if m, err := stats.NewSample(vals...).Median(); err == nil {
				medians.Add(m)
			}
			for _, v := range vals {
				for _, sk := range sketches {
					sk.Add(v)
				}
			}
		}
		// A series that was empty (or all-NaN) in every replicate has no
		// statistics: a fabricated "0 ± 0 (n=0)" line would report a
		// mean nobody measured, and the sketch's NaN would poison the
		// whole run's JSON encoding at Close.
		if medians.N() > 0 {
			out.AddSummary("median "+s.Label, s.Unit, &medians)
		}
		if pooled := sketches[0].N(); pooled > 0 {
			note := fmt.Sprintf("P² sketch over %d pooled values", pooled)
			for i, pq := range pooledQuantiles {
				out.AddMetric(fmt.Sprintf("pooled %s %s", pq.name, s.Label), sketches[i].Value(), s.Unit, note)
			}
		}
	}
	for mi, m := range reps[0].Metrics {
		var w stats.Summary
		for _, rep := range reps {
			if v, ok := metricValue(rep, mi, m.Name); ok {
				w.Add(v)
			}
		}
		// Same rule as series: a metric that was non-finite in every
		// replicate has nothing to summarize.
		if w.N() > 0 {
			out.AddSummary(m.Name, m.Unit, &w)
		}
	}
	return out
}

// seriesValues finds a series by position (with a label check, since a
// deterministic scenario emits the same schema every replicate) and
// falls back to a scan if the schema ever drifts.
func seriesValues(r Result, i int, label string) ([]float64, bool) {
	if i < len(r.Series) && r.Series[i].Label == label {
		return r.Series[i].Values, true
	}
	for _, s := range r.Series {
		if s.Label == label {
			return s.Values, true
		}
	}
	return nil, false
}

func metricValue(r Result, i int, name string) (float64, bool) {
	if i < len(r.Metrics) && r.Metrics[i].Name == name {
		return r.Metrics[i].Value, true
	}
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// AddSummary appends a replicate-aggregated statistic.
func (r *Result) AddSummary(name, unit string, s *stats.Summary) {
	r.Summaries = append(r.Summaries, runner.SummaryOf(name, unit, s))
}
