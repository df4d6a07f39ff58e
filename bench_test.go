// Package repro's root benchmark harness: one benchmark per table/figure
// of the MIDAS paper's evaluation (§5), per the scenario registry (README
// "Scenarios").
// Each benchmark regenerates its figure's data at a reduced-but-meaningful
// scale and reports the headline metric (median capacities, gains, spot
// counts) through b.ReportMetric, so `go test -bench=. -benchmem` yields
// both the runtime cost and the reproduced result for every experiment.
//
// The full-resolution series (60 topologies, long DES runs) come from
// `go run ./cmd/midas-bench`.
//
// Every benchmark's topology sweep runs on the internal/runner worker
// pool; -runner.parallel bounds it (0, the default, uses GOMAXPROCS).
// Reported metrics are bit-identical at any pool size — only ns/op
// changes — so perf runs at different widths stay comparable.
package repro

import (
	"context"
	"flag"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

const benchSeed = 2014

// runnerParallel is the experiment drivers' topology-sweep pool width,
// passed explicitly to every benchmark's driver call.
var runnerParallel = flag.Int("runner.parallel", 0,
	"topology tasks evaluated concurrently per experiment (0 = GOMAXPROCS)")

// phyOpts is the PHY-figure parameter set for a benchmark run over
// topos topologies.
func phyOpts(topos int) sim.PhyOpts {
	return sim.PhyOpts{Topologies: topos, Seed: benchSeed, Parallelism: *runnerParallel}
}

// BenchmarkKernelPowerBalanced4x4 is the headline micro-benchmark of the
// per-TXOP precoding hot path, at the root so `make bench` tracks it
// alongside the figure benchmarks. It measures the exact problem recorded
// in BENCH_PR2.json (internal/bench.BenchProblem4x4): compare ns/op
// against that file's PowerBalanced4x4 "before" column to see the gain
// over the pre-workspace implementation, and expect 0 allocs/op.
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
	for i := 0; i < b.N; i++ {
		cas, das, err := sim.Fig3NaiveScalingDrop(phyOpts(60))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cas.MustMedian(), "CAS-drop-median")
		b.ReportMetric(das.MustMedian(), "DAS-drop-median")
	}
}

// BenchmarkFig07LinkSNR regenerates Figure 7: SISO link SNR CDFs.
func BenchmarkFig07LinkSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cas, das := sim.Fig7LinkSNR(phyOpts(60))
		b.ReportMetric(cas.MustMedian(), "CAS-SNR-dB")
		b.ReportMetric(das.MustMedian()-cas.MustMedian(), "DAS-gain-dB")
	}
}

// BenchmarkFig08OfficeA regenerates Figure 8: capacity CDFs in Office A.
func BenchmarkFig08OfficeA(b *testing.B) { benchCapacityCDF(b, sim.OfficeA) }

// BenchmarkFig09OfficeB regenerates Figure 9: capacity CDFs in Office B.
func BenchmarkFig09OfficeB(b *testing.B) { benchCapacityCDF(b, sim.OfficeB) }

func benchCapacityCDF(b *testing.B, o sim.Office) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cas, midas, err := sim.FigCapacityCDF(o, phyOpts(60))
		if err != nil {
			b.Fatal(err)
		}
		_, _, gain := sim.SummarizeGain(cas, midas)
		b.ReportMetric(gain*100, "median-gain-%")
	}
}

// BenchmarkFig10SmartPrecoding regenerates Figure 10: the power-balanced
// precoder's gain over naive scaling, on CAS and on DAS.
func BenchmarkFig10SmartPrecoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := sim.Fig10SmartPrecoding(phyOpts(60))
		if err != nil {
			b.Fatal(err)
		}
		cg, _ := stats.MedianGain(c.CASBalanced, c.CASNaive)
		dg, _ := stats.MedianGain(c.DASBalanced, c.DASNaive)
		b.ReportMetric(cg*100, "CAS-gain-%")
		b.ReportMetric(dg*100, "DAS-gain-%")
	}
}

// BenchmarkFig11OptimalGap regenerates Figure 11: MIDAS's lightweight
// precoder against the numerical optimum.
func BenchmarkFig11OptimalGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := sim.Fig11OptimalGap(phyOpts(10), false)
		if err != nil {
			b.Fatal(err)
		}
		var sm, so float64
		for _, p := range pts {
			sm += p.MIDAS
			so += p.Optimal
		}
		b.ReportMetric(sm/so, "MIDAS/optimal")
	}
}

// BenchmarkFig12SpatialReuse regenerates Figure 12: the simultaneous-
// stream ratio CDF.
func BenchmarkFig12SpatialReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sim.Fig12SpatialReuse(30, benchSeed, sim.EnvOverrides{}, *runnerParallel)
		ratios := stats.NewSample()
		for _, r := range res {
			ratios.Add(r.Ratio)
		}
		b.ReportMetric(ratios.MustMedian(), "median-ratio")
	}
}

// BenchmarkFig13Deadzones regenerates Figure 13 / §5.3.3.
func BenchmarkFig13Deadzones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sim.Fig13Deadzones(5, benchSeed, sim.EnvOverrides{}, *runnerParallel)
		b.ReportMetric(100*(1-float64(res.DASDeadspots)/float64(res.CASDeadspots)), "reduction-%")
	}
}

// BenchmarkHiddenTerminals regenerates §5.3.4.
func BenchmarkHiddenTerminals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sim.HiddenTerminals(5, benchSeed, sim.EnvOverrides{}, *runnerParallel)
		b.ReportMetric(100*(1-float64(res.DASSpots)/float64(res.CASSpots)), "reduction-%")
	}
}

// BenchmarkFig14PacketTagging regenerates Figure 14.
func BenchmarkFig14PacketTagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		random, tagged, err := sim.Fig14PacketTagging(phyOpts(60))
		if err != nil {
			b.Fatal(err)
		}
		_, _, gain := sim.SummarizeGain(random, tagged)
		b.ReportMetric(gain*100, "median-gain-%")
	}
}

// BenchmarkFig15EndToEnd regenerates Figure 15: the 3-AP closed-loop
// MAC+PHY comparison.
func BenchmarkFig15EndToEnd(b *testing.B) {
	o := sim.E2EOpts{Topologies: 8, SimTime: 200 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		cas, midas := sim.Fig15EndToEnd(o)
		_, _, gain := sim.SummarizeGain(cas, midas)
		b.ReportMetric(gain*100, "median-gain-%")
	}
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
	o := sim.E2EOpts{Topologies: 10, SimTime: 200 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		cas, midas, err := sim.Fig16LargeScale(o)
		if err != nil {
			b.Fatal(err)
		}
		_, _, gain := sim.SummarizeGain(cas, midas)
		b.ReportMetric(gain*100, "median-gain-%")
	}
}

// BenchmarkDecomposition reports the §1 gain breakdown (precoding / DAS
// deployment / MAC).
func BenchmarkDecomposition(b *testing.B) {
	o := sim.E2EOpts{Topologies: 6, SimTime: 150 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		res := sim.Decomposition(o)
		base := res.CAS.MustMedian()
		b.ReportMetric(100*(res.FullMIDAS.MustMedian()/base-1), "full-gain-%")
	}
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

// BenchmarkAblationTagWidth sweeps tag widths 1/2/4 (§3.2.4).
func BenchmarkAblationTagWidth(b *testing.B) {
	o := sim.E2EOpts{Topologies: 4, SimTime: 120 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		res := sim.AblationTagWidth([]int{1, 2, 4}, o)
		b.ReportMetric(res[1].MustMedian(), "width1")
		b.ReportMetric(res[2].MustMedian(), "width2")
		b.ReportMetric(res[4].MustMedian(), "width4")
	}
}

// BenchmarkAblationWaitWindow sweeps the opportunistic wait (§3.2.3).
func BenchmarkAblationWaitWindow(b *testing.B) {
	o := sim.E2EOpts{Topologies: 4, SimTime: 120 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	windows := []time.Duration{0, 34 * time.Microsecond, 68 * time.Microsecond}
	for i := 0; i < b.N; i++ {
		res := sim.AblationWaitWindow(windows, o)
		b.ReportMetric(res[0].MustMedian(), "win0")
		b.ReportMetric(res[34*time.Microsecond].MustMedian(), "winDIFS")
		b.ReportMetric(res[68*time.Microsecond].MustMedian(), "win2DIFS")
	}
}

// BenchmarkAblationScheduler compares DRR / round-robin / random (§3.2.5).
func BenchmarkAblationScheduler(b *testing.B) {
	o := sim.E2EOpts{Topologies: 4, SimTime: 120 * time.Millisecond, Seed: benchSeed, Parallelism: *runnerParallel}
	for i := 0; i < b.N; i++ {
		res := sim.AblationScheduler(o)
		b.ReportMetric(res["drr"].MustMedian(), "drr")
		b.ReportMetric(res["rr"].MustMedian(), "rr")
		b.ReportMetric(res["random"].MustMedian(), "random")
	}
}

// BenchmarkAblationCorrelation sweeps CAS antenna correlation.
func BenchmarkAblationCorrelation(b *testing.B) {
	rhos := []float64{0, 0.6, 0.9}
	for i := 0; i < b.N; i++ {
		res := sim.AblationCorrelation(rhos, 20, benchSeed, *runnerParallel)
		b.ReportMetric(res[0].MustMedian(), "rho0.0")
		b.ReportMetric(res[0.6].MustMedian(), "rho0.6")
		b.ReportMetric(res[0.9].MustMedian(), "rho0.9")
	}
}

// BenchmarkExtBeamforming quantifies §7's localized-beamforming tradeoff
// (SNR given up vs. area left unsilenced for neighbours' spatial reuse).
func BenchmarkExtBeamforming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := sim.BeamformingStudy(20, 12, benchSeed, *runnerParallel)
		b.ReportMetric(res.SNRFull.MustMedian()-res.SNRLocal.MustMedian(), "SNR-cost-dB")
		b.ReportMetric(100*(res.SilencedFull.MustMedian()-res.SilencedLocal.MustMedian()), "area-freed-%")
	}
}

// BenchmarkExtPlacement quantifies the §7 open problem: optimised vs
// random DAS antenna placement.
func BenchmarkExtPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.PlacementStudy(24, 30, benchSeed, *runnerParallel)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OptimizedCoverage.MustMedian()-res.RandomCoverage.MustMedian(), "coverage-gain-dB")
		b.ReportMetric(res.OptimizedCapacity.MustMedian()/res.RandomCapacity.MustMedian(), "capacity-ratio")
	}
}
