package scenario

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestReplicateAggregationMatchesDirectRuns verifies the merged
// summaries are exactly the statistics of the per-replicate direct
// runs: same seeds (base + split-derived), same Welford arithmetic,
// same ordering — so the aggregation layer adds no numerical drift of
// its own.
func TestReplicateAggregationMatchesDirectRuns(t *testing.T) {
	const reps = 3
	ctx := context.Background()
	res, err := RunByName(ctx, "fig12", Spec{Topologies: 2, Replicates: reps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce each replicate directly at its derived seed.
	root := rng.New(5)
	var medians, metric stats.Summary
	for r := 0; r < reps; r++ {
		seed := int64(5)
		if r > 0 {
			seed = root.SplitN("replicate", r).Seed()
		}
		ratios := stats.NewSample()
		for topo := 0; topo < 2; topo++ {
			ratios.Add(sim.Fig12SpatialReuse(sim.Opts{}, topo, rng.New(seed)).Ratio)
		}
		medians.Add(ratios.MustMedian())
		metric.Add(ratios.MustMedian()) // fig12's "median ratio" metric
	}

	if len(res.Series) != 0 {
		t.Errorf("replicated result must not carry raw per-replicate series, got %d", len(res.Series))
	}
	wantSummary := func(name string, w *stats.Summary) {
		t.Helper()
		for _, s := range res.Summaries {
			if s.Name != name {
				continue
			}
			if s.Mean != w.Mean() || s.Stddev != w.Std() || s.CI95 != w.CI95() || s.N != w.N() {
				t.Errorf("summary %q = %+v, want mean %v std %v ci95 %v n %d",
					name, s, w.Mean(), w.Std(), w.CI95(), w.N())
			}
			return
		}
		t.Errorf("result has no summary %q (have %+v)", name, res.Summaries)
	}
	wantSummary("median simultaneous-stream ratio MIDAS/CAS", &medians)
	wantSummary("median ratio", &metric)

	// Pooled quantile metrics exist and are ordered sensibly.
	var p10, p90 float64
	for _, m := range res.Metrics {
		switch m.Name {
		case "pooled p10 simultaneous-stream ratio MIDAS/CAS":
			p10 = m.Value
		case "pooled p90 simultaneous-stream ratio MIDAS/CAS":
			p90 = m.Value
		}
	}
	if math.IsNaN(p10) || math.IsNaN(p90) || p10 > p90 {
		t.Errorf("pooled quantiles broken: p10 %v p90 %v", p10, p90)
	}
}

// TestReplicateAggregationParallelInvariance extends the PR 1
// determinism pins to the replication layer: N replicates aggregated at
// parallelism 8 produce summaries bit-identical to parallelism 1. The
// scenario package runs under -race in `make test-race`, so this also
// guards the aggregation path against data races.
func TestReplicateAggregationParallelInvariance(t *testing.T) {
	ctx := context.Background()
	results := map[int]Result{}
	for _, par := range []int{1, 8} {
		res, err := RunByName(ctx, "fig12", Spec{Topologies: 2, Replicates: 4, Seed: 9, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		results[par] = res
	}
	if !reflect.DeepEqual(results[1], results[8]) {
		t.Errorf("replicated summaries differ across parallelism:\np=1 %+v\np=8 %+v", results[1], results[8])
	}
}

// TestSweepTimesReplicates verifies the point × replicate indexing: a
// swept, replicated spec reports one summary block per sweep point,
// prefixed with the point's label, each aggregating that point's own
// replicates.
func TestSweepTimesReplicates(t *testing.T) {
	ctx := context.Background()
	res, err := RunByName(ctx, "fig12", Spec{
		Topologies: 1, Replicates: 2, Seed: 7,
		Sweep: map[string][]float64{"topologies": {1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"[topologies=1] ", "[topologies=2] "} {
		found := false
		for _, s := range res.Summaries {
			if s.Name == label+"median ratio" {
				found = true
				if s.N != 2 {
					t.Errorf("%smedian ratio aggregated %d replicates, want 2", label, s.N)
				}
			}
		}
		if !found {
			t.Errorf("no %q summary block (have %+v)", label+"median ratio", res.Summaries)
		}
	}

	// The [topologies=2] point at seed 7 must equal an unswept
	// replicated run of the same spec, modulo the label prefix.
	direct, err := RunByName(ctx, "fig12", Spec{Topologies: 2, Replicates: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range direct.Summaries {
		found := false
		for _, got := range res.Summaries {
			if got.Name == "[topologies=2] "+want.Name {
				found = true
				if got.Mean != want.Mean || got.Stddev != want.Stddev || got.CI95 != want.CI95 || got.N != want.N {
					t.Errorf("swept point summary %+v != direct %+v", got, want)
				}
			}
		}
		if !found {
			t.Errorf("swept result missing summary %q", want.Name)
		}
	}
}

// TestAggregateReplicatesNaNRobustness verifies a NaN metric value in
// one replicate is dropped from the aggregation (n reflects it) instead
// of poisoning the whole summary.
func TestAggregateReplicatesNaNRobustness(t *testing.T) {
	mk := func(v float64) Result {
		r := Result{Scenario: "x"}
		r.AddMetric("m", v, "", "")
		return r
	}
	out := aggregateReplicates("x", []Result{mk(1), mk(math.NaN()), mk(3)})
	if len(out.Summaries) != 1 {
		t.Fatalf("got %d summaries", len(out.Summaries))
	}
	s := out.Summaries[0]
	if s.N != 2 || s.Mean != 2 {
		t.Errorf("NaN replicate not dropped: %+v", s)
	}

	// A series empty in every replicate must not emit NaN pooled
	// quantiles (a single NaN metric would fail the whole run's JSON
	// encoding) nor a fabricated "0 ± 0 (n=0)" summary; an all-NaN
	// metric likewise summarizes to nothing.
	withEmpty := Result{Scenario: "x"}
	withEmpty.AddSeries("empty", "", stats.NewSample())
	withEmpty.AddMetric("broken", math.NaN(), "", "")
	out = aggregateReplicates("x", []Result{withEmpty, withEmpty})
	if len(out.Metrics) != 0 {
		t.Errorf("empty series produced pooled metrics: %+v", out.Metrics)
	}
	if len(out.Summaries) != 0 {
		t.Errorf("no-data inputs produced summaries: %+v", out.Summaries)
	}
	if _, err := out.MarshalIndent(); err != nil {
		t.Errorf("aggregated result of empty series must stay marshalable: %v", err)
	}
}
