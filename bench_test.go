// Package repro's root benchmark harness: one benchmark per table/figure
// of the MIDAS paper's evaluation (§5), per the scenario registry (README
// "Scenarios").
// Each figure benchmark runs its registered scenario at a
// reduced-but-meaningful scale and reports the result's metrics and
// series medians through b.ReportMetric, so `go test -bench=. -benchmem`
// yields both the runtime cost and the reproduced result for every
// experiment.
//
// The full-resolution series (60 topologies, long DES runs) come from
// `go run ./cmd/midas-sim -scenario all`.
//
// -runner.parallel sets the scenario spec's parallelism (0, the
// default, uses GOMAXPROCS). Reported metrics are bit-identical at any
// parallelism — only ns/op changes — so perf runs at different widths
// stay comparable.
package repro

import (
	"context"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/topology"
)

const benchSeed = 2014

// runnerParallel is the spec parallelism every figure benchmark runs
// its scenario at.
var runnerParallel = flag.Int("runner.parallel", 0,
	"topology tasks evaluated concurrently per scenario run (0 = GOMAXPROCS)")

// benchScenario runs the named scenario at the given overrides once per
// iteration and reports every metric of its result and the median of
// every series, each under its name with whitespace turned into '-'.
func benchScenario(b *testing.B, name string, overrides scenario.Spec) {
	b.Helper()
	overrides.Parallelism = *runnerParallel
	unit := func(s string) string { return strings.Join(strings.Fields(s), "-") }
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunByName(context.Background(), name, overrides)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			sample := stats.NewSample()
			sample.AddAll(s.Values)
			b.ReportMetric(sample.MustMedian(), unit("median "+s.Label+" "+s.Unit))
		}
		for _, m := range res.Metrics {
			b.ReportMetric(m.Value, unit(m.Name+" "+m.Unit))
		}
	}
}

// BenchmarkKernelPowerBalanced4x4 is the headline micro-benchmark of the
// per-TXOP precoding hot path, at the root so `make bench` tracks it
// alongside the figure benchmarks. It measures internal/bench.BenchProblem4x4,
// the problem perfbench's precoding.solve_ns layer times, and expects
// 0 allocs/op.
func BenchmarkKernelPowerBalanced4x4(b *testing.B) {
	p := bench.BenchProblem4x4()
	s := precoding.NewSolver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PowerBalanced(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig03NaiveScalingDrop regenerates Figure 3: CDF of the
// capacity lost to naive per-antenna power scaling, CAS vs DAS.
func BenchmarkFig03NaiveScalingDrop(b *testing.B) {
	benchScenario(b, "fig3-naive-scaling-drop", scenario.Spec{Topologies: 60})
}

// BenchmarkFig07LinkSNR regenerates Figure 7: SISO link SNR CDFs.
func BenchmarkFig07LinkSNR(b *testing.B) {
	benchScenario(b, "fig7-link-snr", scenario.Spec{Topologies: 60})
}

// BenchmarkFig08OfficeA regenerates Figure 8: 4×4 capacity CDFs in Office A.
func BenchmarkFig08OfficeA(b *testing.B) {
	benchScenario(b, "fig8-office-a", scenario.Spec{Topologies: 60, Antennas: 4, Clients: 4})
}

// BenchmarkFig09OfficeB regenerates Figure 9: 4×4 capacity CDFs in Office B.
func BenchmarkFig09OfficeB(b *testing.B) {
	benchScenario(b, "fig9-office-b", scenario.Spec{Topologies: 60, Antennas: 4, Clients: 4})
}

// BenchmarkFig10SmartPrecoding regenerates Figure 10: the power-balanced
// precoder's gain over naive scaling, on CAS and on DAS.
func BenchmarkFig10SmartPrecoding(b *testing.B) {
	benchScenario(b, "fig10-smart-precoding", scenario.Spec{Topologies: 60})
}

// BenchmarkFig11OptimalGap regenerates Figure 11: MIDAS's lightweight
// precoder against the numerical optimum.
func BenchmarkFig11OptimalGap(b *testing.B) {
	benchScenario(b, "fig11-optimal-gap", scenario.Spec{Topologies: 10})
}

// BenchmarkFig12SpatialReuse regenerates Figure 12: the simultaneous-
// stream ratio CDF.
func BenchmarkFig12SpatialReuse(b *testing.B) {
	benchScenario(b, "fig12-spatial-reuse", scenario.Spec{Topologies: 30})
}

// BenchmarkFig13Deadzones regenerates Figure 13 / §5.3.3.
func BenchmarkFig13Deadzones(b *testing.B) {
	benchScenario(b, "fig13-deadzones", scenario.Spec{Topologies: 5})
}

// BenchmarkHiddenTerminals regenerates §5.3.4.
func BenchmarkHiddenTerminals(b *testing.B) {
	benchScenario(b, "ht-hidden-terminals", scenario.Spec{Topologies: 5})
}

// BenchmarkFig14PacketTagging regenerates Figure 14.
func BenchmarkFig14PacketTagging(b *testing.B) {
	benchScenario(b, "fig14-packet-tagging", scenario.Spec{Topologies: 60})
}

// BenchmarkFig15EndToEnd regenerates Figure 15: the 3-AP closed-loop
// MAC+PHY comparison.
func BenchmarkFig15EndToEnd(b *testing.B) {
	benchScenario(b, "fig15-end-to-end", scenario.Spec{Topologies: 8, SimTime: scenario.Duration(200 * time.Millisecond)})
}

// BenchmarkFig15Replicated resolves the replicated scenario from the
// registry (replicates > 1) at reduced scale — the smoke that keeps the
// registry → engine → replicate-aggregation path exercised end to end
// (`make bench-smoke` runs it at -benchtime=1x). The reported numbers
// are the CI-band summary of the MIDAS median capacity.
func BenchmarkFig15Replicated(b *testing.B) {
	overrides := scenario.Spec{Topologies: 2, SimTime: scenario.Duration(20 * time.Millisecond), Replicates: 3, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunByName(context.Background(), "fig15-replicated", overrides)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, s := range res.Summaries {
			if s.Name == "median MIDAS network capacity" {
				found = true
				b.ReportMetric(s.Mean, "median-mean")
				b.ReportMetric(s.CI95, "ci95-halfwidth")
				if s.N != 3 {
					b.Fatalf("summary aggregated %d replicates, want 3", s.N)
				}
			}
		}
		if !found {
			b.Fatal("replicated run produced no median MIDAS network capacity summary")
		}
	}
}

// BenchmarkFig16LargeScale regenerates Figure 16: the 8-AP network.
func BenchmarkFig16LargeScale(b *testing.B) {
	benchScenario(b, "fig16-large-scale", scenario.Spec{Topologies: 10, SimTime: scenario.Duration(200 * time.Millisecond)})
}

// BenchmarkDecomposition reports the §1 gain breakdown (precoding / DAS
// deployment / MAC).
func BenchmarkDecomposition(b *testing.B) {
	benchScenario(b, "decomp-gain-breakdown", scenario.Spec{Topologies: 6, SimTime: scenario.Duration(150 * time.Millisecond)})
}

// BenchmarkAblationScaling compares the three power-constraint strategies
// on one DAS problem set: global scaling (naive), per-column reverse
// water-filling (MIDAS) and the numerical optimum.
func BenchmarkAblationScaling(b *testing.B) {
	probs := make([]precoding.Problem, 20)
	src := rng.New(benchSeed)
	for t := range probs {
		dep := topology.SingleAP(topology.DefaultConfig(topology.DAS), src.SplitN("t", t))
		m := dep.Model(channel.Default(), src.SplitN("m", t))
		probs[t] = precoding.Problem{
			H:               m.Matrix(nil, nil),
			PerAntennaPower: channel.Default().TxPowerLinear(),
			Noise:           channel.Default().NoiseLinear(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rn, rb float64
		for _, p := range probs {
			nv, err := precoding.NaiveScaled(p)
			if err != nil {
				b.Fatal(err)
			}
			bal, err := precoding.PowerBalanced(p)
			if err != nil {
				b.Fatal(err)
			}
			rn += precoding.SumRate(p.H, nv, p.Noise)
			rb += precoding.SumRate(p.H, bal.V, p.Noise)
		}
		b.ReportMetric(100*(rb/rn-1), "balanced-vs-naive-%")
	}
}

// BenchmarkAblationTagWidth sweeps tag widths 1–4 (§3.2.4).
func BenchmarkAblationTagWidth(b *testing.B) {
	benchScenario(b, "ablation-tagwidth", scenario.Spec{Topologies: 4, SimTime: scenario.Duration(120 * time.Millisecond)})
}

// BenchmarkAblationWaitWindow sweeps the opportunistic wait (§3.2.3).
func BenchmarkAblationWaitWindow(b *testing.B) {
	benchScenario(b, "ablation-waitwindow", scenario.Spec{Topologies: 4, SimTime: scenario.Duration(120 * time.Millisecond)})
}

// BenchmarkAblationScheduler compares DRR / round-robin / random (§3.2.5).
func BenchmarkAblationScheduler(b *testing.B) {
	benchScenario(b, "ablation-scheduler", scenario.Spec{Topologies: 4, SimTime: scenario.Duration(120 * time.Millisecond)})
}

// BenchmarkAblationCorrelation sweeps CAS antenna correlation.
func BenchmarkAblationCorrelation(b *testing.B) {
	benchScenario(b, "ablation-correlation", scenario.Spec{Topologies: 20})
}

// BenchmarkExtBeamforming quantifies §7's localized-beamforming tradeoff
// (SNR given up vs. area left unsilenced for neighbours' spatial reuse).
func BenchmarkExtBeamforming(b *testing.B) {
	benchScenario(b, "ext-beamforming", scenario.Spec{Topologies: 20})
}

// BenchmarkExtPlacement quantifies the §7 open problem: optimised vs
// random DAS antenna placement.
func BenchmarkExtPlacement(b *testing.B) {
	benchScenario(b, "ext-placement", scenario.Spec{Topologies: 24})
}
