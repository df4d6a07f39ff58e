package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file registers every experiment of the paper's evaluation (§5)
// plus the beyond-paper workloads behind the Scenario interface. Each
// run function reproduces exactly the series and metrics of that
// figure's sim driver; called with its DefaultSpec, a
// scenario is bit-identical to the direct sim.FigX call path (pinned by
// TestRegistryMatchesDirectCalls and the golden suite).

// defaultSeed is the evaluation's root seed.
const defaultSeed = 2014

// baseSpec is the spec shared by every paper scenario: the §5.1
// testbed's 4×4 arrays, one replicate.
func baseSpec(topologies int) Spec {
	return Spec{
		Topologies: topologies,
		Seed:       defaultSeed,
		Antennas:   4,
		Clients:    4,
		Replicates: 1,
	}
}

func e2eSpec(topologies int) Spec {
	s := baseSpec(topologies)
	s.SimTime = Duration(300 * time.Millisecond)
	return s
}

// envOverrides maps the spec's shadowing and coverage knobs onto the
// sim layer's override struct.
func (s Spec) envOverrides() sim.EnvOverrides {
	var e sim.EnvOverrides
	if sh := s.Shadowing; sh != nil {
		e.ShadowSigmaDB = sh.SigmaDB
		e.CASCorrelation = sh.CASCorrelation
		e.WallDB = sh.WallDB
		e.MaxWallDB = sh.MaxWallDB
		e.RoomW = sh.RoomW
		e.RoomH = sh.RoomH
	}
	if s.Venue != nil && s.Venue.CoverageRadius > 0 {
		r := s.Venue.CoverageRadius
		e.CoverageRadius = &r
	}
	return e
}

func (s Spec) phyOpts() sim.PhyOpts {
	return sim.PhyOpts{
		Topologies:  s.Topologies,
		Seed:        s.Seed,
		Antennas:    s.Antennas,
		Clients:     s.Clients,
		Env:         s.envOverrides(),
		Parallelism: s.Parallelism,
	}
}

func (s Spec) e2eOpts() sim.E2EOpts {
	o := sim.E2EOpts{
		Topologies:    s.Topologies,
		SimTime:       time.Duration(s.SimTime),
		Seed:          s.Seed,
		ClientsPerAP:  s.Clients,
		AntennasPerAP: s.Antennas,
		Env:           s.envOverrides(),
		Parallelism:   s.Parallelism,
	}
	if v := s.Venue; v != nil {
		o.VenueWidth, o.VenueHeight, o.VenueAPs = v.Width, v.Height, v.APs
	}
	return o
}

func init() {
	Register(&scenarioFunc{
		name:     "fig3-naive-scaling-drop",
		ignores:  []string{KnobRegion},
		about:    "Figure 3: capacity lost to global power scaling under the per-antenna constraint",
		defaults: baseSpec(60),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			cas, das, err := sim.Fig3NaiveScalingDrop(spec.phyOpts())
			if err != nil {
				return err
			}
			r.AddSeries("CAS capacity drop", "bit/s/Hz", cas)
			r.AddSeries("DAS capacity drop", "bit/s/Hz", das)
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "fig7-link-snr",
		ignores:  []string{KnobRegion},
		about:    "Figure 7: SISO link SNR of CAS vs DAS with greedy client→antenna mapping",
		defaults: baseSpec(60),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			cas, das := sim.Fig7LinkSNR(spec.phyOpts())
			r.AddSeries("CAS link SNR", "dB", cas)
			r.AddSeries("DAS link SNR", "dB", das)
			r.AddMetric("median DAS link gain", das.MustMedian()-cas.MustMedian(), "dB", "paper: ≈5 dB")
			return nil
		},
	})

	for _, oc := range []struct {
		name  string
		about string
		off   sim.Office
	}{
		{"fig8-office-a", "Figure 8: MU-MIMO capacity CDFs in the enterprise office", sim.OfficeA},
		{"fig9-office-b", "Figure 9: MU-MIMO capacity CDFs in the crowded lab", sim.OfficeB},
	} {
		office := oc.off
		defaults := baseSpec(60)
		// The paper plots 2×2 and 4×4 together; the default spec sweeps
		// the array size, exercising the same cross-product machinery
		// any user sweep goes through.
		defaults.Sweep = map[string][]float64{"size": {2, 4}}
		Register(&scenarioFunc{
			name:     oc.name,
			about:    oc.about,
			defaults: defaults,
			ignores:  []string{KnobRegion},
			run: func(spec Spec, _ *rng.Source, r *Result) error {
				cas, midas, err := sim.FigCapacityCDF(office, spec.phyOpts())
				if err != nil {
					return err
				}
				r.AddSeries("CAS capacity", "bit/s/Hz", cas)
				r.AddSeries("MIDAS capacity", "bit/s/Hz", midas)
				_, _, gain := sim.SummarizeGain(cas, midas)
				r.AddMetric("median gain", gain*100, "%", "")
				return nil
			},
		})
	}

	Register(&scenarioFunc{
		name:     "fig10-smart-precoding",
		ignores:  []string{KnobRegion},
		about:    "Figure 10: the power-balanced precoder's gain on CAS and DAS separately",
		defaults: baseSpec(60),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			c, err := sim.Fig10SmartPrecoding(spec.phyOpts())
			if err != nil {
				return err
			}
			r.AddSeries("CAS w/o MIDAS precoding", "bit/s/Hz", c.CASNaive)
			r.AddSeries("CAS w/ MIDAS precoding", "bit/s/Hz", c.CASBalanced)
			r.AddSeries("DAS w/o MIDAS precoding", "bit/s/Hz", c.DASNaive)
			r.AddSeries("DAS w/ MIDAS precoding", "bit/s/Hz", c.DASBalanced)
			cg, _ := stats.MedianGain(c.CASBalanced, c.CASNaive)
			dg, _ := stats.MedianGain(c.DASBalanced, c.DASNaive)
			r.AddMetric("CAS median precoding gain", cg*100, "%", "paper: 12%")
			r.AddMetric("DAS median precoding gain", dg*100, "%", "paper: 30%")
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "fig11-optimal-gap",
		ignores:  []string{KnobRegion},
		about:    "Figure 11: power-balanced precoding vs the numerical optimum, per topology",
		defaults: baseSpec(20),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			for _, testbed := range []bool{false, true} {
				label := "simulation"
				if testbed {
					label = "testbed (stale optimum)"
				}
				pts, err := sim.Fig11OptimalGap(spec.phyOpts(), testbed)
				if err != nil {
					return err
				}
				midas := runner.Series{Label: label + " MIDAS", Unit: "bit/s/Hz"}
				optimal := runner.Series{Label: label + " optimal", Unit: "bit/s/Hz"}
				// The figure's content is the per-topology gap, so keep
				// the paired table in the text output; the series carry
				// the same pairing by index for JSON/CSV.
				r.AddText("-- %s: topology\tMIDAS\toptimal", label)
				var sm, so float64
				for _, p := range pts {
					midas.Values = append(midas.Values, p.MIDAS)
					optimal.Values = append(optimal.Values, p.Optimal)
					r.AddText("%d\t%.2f\t%.2f", p.Topology, p.MIDAS, p.Optimal)
					sm += p.MIDAS
					so += p.Optimal
				}
				r.Series = append(r.Series, midas, optimal)
				if so != 0 {
					r.AddMetric(label+" aggregate MIDAS/optimal", sm/so, "", "")
				}
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "fig12-spatial-reuse",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "Figure 12: simultaneous streams enabled by per-antenna carrier sensing",
		defaults: baseSpec(30),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			res := sim.Fig12SpatialReuse(spec.Topologies, spec.Seed, spec.envOverrides(), spec.Parallelism)
			ratios := stats.NewSample()
			for _, p := range res {
				ratios.Add(p.Ratio)
			}
			r.AddSeries("simultaneous-stream ratio MIDAS/CAS", "", ratios)
			r.AddMetric("median ratio", ratios.MustMedian(), "", "paper: ≈1.5")
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "fig13-deadzones",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "Figure 13: deadzone maps of CAS vs DAS coverage on a 0.5 m grid",
		defaults: baseSpec(10),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			res := sim.Fig13Deadzones(spec.Topologies, spec.Seed, spec.envOverrides(), spec.Parallelism)
			r.AddMetric("spots measured", float64(res.Spots), "", "")
			r.AddMetric("CAS deadspots", float64(res.CASDeadspots), "", "")
			r.AddMetric("DAS deadspots", float64(res.DASDeadspots), "", "")
			if res.CASDeadspots > 0 {
				r.AddMetric("reduction", 100*(1-float64(res.DASDeadspots)/float64(res.CASDeadspots)), "%", "paper: 91%")
			}
			r.AddText("-- example map (CAS left, DAS right; '#' = deadspot)")
			addDeadzoneMaps(r, res)
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ht-hidden-terminals",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "§5.3.4: hidden-terminal spots between two non-overhearing APs",
		defaults: baseSpec(10),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			res := sim.HiddenTerminals(spec.Topologies, spec.Seed, spec.envOverrides(), spec.Parallelism)
			r.AddMetric("spots measured", float64(res.Spots), "", "")
			r.AddMetric("CAS hidden-terminal spots", float64(res.CASSpots), "", "")
			r.AddMetric("DAS hidden-terminal spots", float64(res.DASSpots), "", "")
			if res.CASSpots > 0 {
				r.AddMetric("reduction", 100*(1-float64(res.DASSpots)/float64(res.CASSpots)), "%", "paper: 94%")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "fig14-packet-tagging",
		ignores:  []string{KnobRegion},
		about:    "Figure 14: virtual packet tagging vs a random client pair on 2 of 4 antennas",
		defaults: baseSpec(60),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			random, tagged, err := sim.Fig14PacketTagging(spec.phyOpts())
			if err != nil {
				return err
			}
			r.AddSeries("random client pair", "bit/s/Hz", random)
			r.AddSeries("tag-driven client pair", "bit/s/Hz", tagged)
			_, _, gain := sim.SummarizeGain(random, tagged)
			r.AddMetric("median tagging gain", gain*100, "%", "paper: ≈50%")
			return nil
		},
	})

	runFig15 := func(spec Spec, _ *rng.Source, r *Result) error {
		cas, midas := sim.Fig15EndToEnd(spec.e2eOpts())
		r.AddSeries("CAS network capacity", "bit/s/Hz", cas)
		r.AddSeries("MIDAS network capacity", "bit/s/Hz", midas)
		_, _, gain := sim.SummarizeGain(cas, midas)
		r.AddMetric("median end-to-end gain", gain*100, "%", "paper: ≈200%")
		return nil
	}
	// The "fig15" alias keeps the bare figure stem selecting the paper's
	// own figure: registering fig15-replicated below made "fig15" an
	// ambiguous prefix, and an exact (alias) match wins before prefix
	// matching in Find.
	Register(&scenarioFunc{
		name:     "fig15-end-to-end",
		aliases:  []string{"fig15"},
		ignores:  []string{KnobRegion},
		about:    "Figure 15: 3-AP testbed network capacity, CAS vs full MIDAS",
		defaults: e2eSpec(60),
		run:      runFig15,
	})

	// The replicated variant runs the same experiment body; the engine's
	// replication layer fans it over split seeds and reports every
	// metric and series median as mean ± 95% CI instead of a single-seed
	// point estimate.
	replDefaults := e2eSpec(20)
	replDefaults.Replicates = 5
	Register(&scenarioFunc{
		name:     "fig15-replicated",
		ignores:  []string{KnobRegion},
		about:    "Beyond-paper: Figure 15's testbed replicated over split seeds, reported as mean ± 95% CI per metric",
		defaults: replDefaults,
		run:      runFig15,
	})

	Register(&scenarioFunc{
		name:     "fig16-large-scale",
		about:    "Figure 16: the 8-AP large-scale deployment, CAS vs full MIDAS",
		defaults: e2eSpec(20),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			cas, midas, err := sim.Fig16LargeScale(spec.e2eOpts())
			if err != nil {
				return err
			}
			r.AddSeries("CAS 8-AP capacity", "bit/s/Hz", cas)
			r.AddSeries("MIDAS 8-AP capacity", "bit/s/Hz", midas)
			_, _, gain := sim.SummarizeGain(cas, midas)
			r.AddMetric("median large-scale gain", gain*100, "%", "paper: >150%")
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "decomp-gain-breakdown",
		ignores:  []string{KnobRegion},
		about:    "Ablation: where MIDAS's end-to-end gain comes from, one mechanism at a time",
		defaults: e2eSpec(20),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			res := sim.Decomposition(spec.e2eOpts())
			r.AddMetric("CAS baseline median", res.CAS.MustMedian(), "bit/s/Hz", "")
			r.AddMetric("+ smart precoding median", res.CASPlusPrecoding.MustMedian(), "bit/s/Hz", "")
			r.AddMetric("+ DAS deployment median", res.DASPlusPrecoding.MustMedian(), "bit/s/Hz", "")
			r.AddMetric("+ DAS-aware MAC median (full MIDAS)", res.FullMIDAS.MustMedian(), "bit/s/Hz", "")
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ablation-tagwidth",
		ignores:  []string{KnobRegion},
		about:    "Ablation: antennas tagged per packet (§3.2.4 discusses 1, 2 and all)",
		defaults: e2eSpec(12),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			o := spec.e2eOpts()
			for _, w := range []int{1, 2, 3, 4} {
				res := sim.AblationTagWidth([]int{w}, o)
				r.AddMetric(fmt.Sprintf("tag width %d median", w), res[w].MustMedian(), "bit/s/Hz", "")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ablation-waitwindow",
		ignores:  []string{KnobRegion},
		about:    "Ablation: the opportunistic-selection wait window (§3.2.3 argues one DIFS)",
		defaults: e2eSpec(12),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			o := spec.e2eOpts()
			for _, w := range []time.Duration{0, 34 * time.Microsecond, 68 * time.Microsecond} {
				res := sim.AblationWaitWindow([]time.Duration{w}, o)
				r.AddMetric(fmt.Sprintf("wait window %v median", w), res[w].MustMedian(), "bit/s/Hz", "")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ablation-scheduler",
		ignores:  []string{KnobRegion},
		about:    "Ablation: client-selection policy (DRR vs round-robin vs random)",
		defaults: e2eSpec(12),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			sched := sim.AblationScheduler(spec.e2eOpts())
			for _, name := range []string{"drr", "rr", "random"} {
				r.AddMetric("scheduler "+name+" median", sched[name].MustMedian(), "bit/s/Hz", "")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ablation-correlation",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "Ablation: CAS antenna-correlation coefficient vs baseline capacity",
		defaults: baseSpec(40),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			rhos := []float64{0, 0.3, 0.6, 0.9}
			corr := sim.AblationCorrelation(rhos, spec.Topologies, spec.Seed, spec.Parallelism)
			for _, rho := range rhos {
				r.AddMetric(fmt.Sprintf("CAS correlation rho %.1f median", rho), corr[rho].MustMedian(), "bit/s/Hz", "")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ext-beamforming",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "§7 extension: localized single-user beamforming vs the full array",
		defaults: baseSpec(60),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			for _, win := range []float64{6, 12, 30} {
				res := sim.BeamformingStudy(spec.Topologies, win, spec.Seed, spec.Parallelism)
				r.AddMetric(fmt.Sprintf("window %.0f dB SNR full", win), res.SNRFull.MustMedian(), "dB", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB SNR local", win), res.SNRLocal.MustMedian(), "dB", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB silenced area full", win), res.SilencedFull.MustMedian()*100, "%", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB silenced area local", win), res.SilencedLocal.MustMedian()*100, "%", "")
			}
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "ext-placement",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "§7 extension: optimized vs random DAS antenna placement",
		defaults: baseSpec(30),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			res, err := sim.PlacementStudy(spec.Topologies, 30, spec.Seed, spec.Parallelism)
			if err != nil {
				return err
			}
			r.AddSeries("random placement coverage objective", "dB", res.RandomCoverage)
			r.AddSeries("optimized placement coverage objective", "dB", res.OptimizedCoverage)
			r.AddSeries("random placement capacity", "bit/s/Hz", res.RandomCapacity)
			r.AddSeries("optimized placement capacity", "bit/s/Hz", res.OptimizedCapacity)
			r.AddMetric("median coverage gain",
				res.OptimizedCoverage.MustMedian()-res.RandomCoverage.MustMedian(), "dB", "")
			r.AddMetric("capacity ratio",
				res.OptimizedCapacity.MustMedian()/res.RandomCapacity.MustMedian(), "", "")
			return nil
		},
	})

	denseDefaults := e2eSpec(6)
	denseDefaults.SimTime = Duration(150 * time.Millisecond)
	denseDefaults.Venue = &Venue{Width: 104, Height: 104, APs: 16}
	denseDefaults.Sweep = map[string][]float64{"clients": {2, 4}}
	Register(&scenarioFunc{
		name:     "dense-venue",
		about:    "Beyond-paper: 16 APs in a 104×104 m venue (4× the paper's floor area, up to 64 clients), swept over client density",
		defaults: denseDefaults,
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			cas, midas, err := sim.Fig16LargeScale(spec.e2eOpts())
			if err != nil {
				return err
			}
			r.AddSeries("CAS dense-venue capacity", "bit/s/Hz", cas)
			r.AddSeries("MIDAS dense-venue capacity", "bit/s/Hz", midas)
			_, _, gain := sim.SummarizeGain(cas, midas)
			r.AddMetric("median dense-venue gain", gain*100, "%", "")
			return nil
		},
	})

	Register(&scenarioFunc{
		name:     "client-churn",
		ignores:  []string{KnobRegion},
		about:    "Beyond-paper: Figure 15's testbed with the client population re-drawn every quarter of the run",
		defaults: e2eSpec(20),
		run: func(spec Spec, _ *rng.Source, r *Result) error {
			const epochs = 4
			cas, midas := sim.ClientChurn(spec.e2eOpts(), epochs)
			r.AddSeries("CAS capacity under churn", "bit/s/Hz", cas)
			r.AddSeries("MIDAS capacity under churn", "bit/s/Hz", midas)
			_, _, gain := sim.SummarizeGain(cas, midas)
			r.AddMetric("median churn gain", gain*100, "%", "")
			r.AddMetric("churn epochs", float64(epochs), "", "clients re-drawn per epoch")
			return nil
		},
	})
}

// addDeadzoneMaps renders the Fig 13 deadzone maps side by side,
// downsampled.
func addDeadzoneMaps(r *Result, res sim.DeadzoneResult) {
	if res.MapCols == 0 {
		return
	}
	rows := len(res.CASMap) / res.MapCols
	const step = 3
	for row := 0; row < rows; row += step {
		var left, right strings.Builder
		for c := 0; c < res.MapCols; c += step {
			i := row*res.MapCols + c
			if i >= len(res.CASMap) {
				break
			}
			left.WriteByte(deadCell(res.CASMap[i]))
			right.WriteByte(deadCell(res.DASMap[i]))
		}
		r.AddText("%s   %s", left.String(), right.String())
	}
}

func deadCell(dead bool) byte {
	if dead {
		return '#'
	}
	return '.'
}
