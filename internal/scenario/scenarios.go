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
// registration pairs the figure's per-topology function in
// internal/sim with the fold of its records into series, metrics and
// text. The golden suite pins every fold's output byte for byte, and
// TestTopologyRecordsArePrefixes pins that a run's records are a
// prefix of any larger run's.

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

// simOpts maps the spec onto the per-topology functions' options.
func (s Spec) simOpts() sim.Opts {
	o := sim.Opts{
		Antennas: s.Antennas,
		Clients:  s.Clients,
		Env:      s.envOverrides(),
		SimTime:  time.Duration(s.SimTime),
	}
	if v := s.Venue; v != nil {
		o.VenueWidth, o.VenueHeight, o.VenueAPs = v.Width, v.Height, v.APs
	}
	return o
}

// vec is the record type of the figures whose topologies each
// contribute one value per arm.
type vec interface {
	~[]float64 | ~[2]float64 | ~[3]float64 | ~[4]float64
}

// column collects arm i of every record into a sample, in topology
// order. The sample drops NaN, which a record uses for an arm its
// topology could not compute.
func column[R vec](recs []R, i int) *stats.Sample {
	s := stats.NewSample()
	for _, rec := range recs {
		s.Add(rec[i])
	}
	return s
}

// addColumns adds one series per arm, labelled in arm order, and
// returns their samples.
func addColumns[R vec](r *Result, recs []R, unit string, labels ...string) []*stats.Sample {
	out := make([]*stats.Sample, len(labels))
	for i, label := range labels {
		out[i] = column(recs, i)
		r.AddSeries(label, unit, out[i])
	}
	return out
}

// infallible adapts a per-topology function that cannot fail.
func infallible[R any](f func(sim.Opts, int, *rng.Source) R) func(sim.Opts, int, *rng.Source) (R, error) {
	return func(o sim.Opts, t int, root *rng.Source) (R, error) { return f(o, t, root), nil }
}

// gainFold is the fold of the two-arm capacity figures: one series per
// arm and the median gain of the second arm over the first.
func gainFold(labelA, labelB, metric, note string) func([][2]float64, *Result) {
	return func(recs [][2]float64, r *Result) {
		s := addColumns(r, recs, "bit/s/Hz", labelA, labelB)
		_, _, gain := sim.SummarizeGain(s[0], s[1])
		r.AddMetric(metric, gain*100, "%", note)
	}
}

func init() {
	Register(&scenarioFunc[[2]float64]{
		name:     "fig3-naive-scaling-drop",
		ignores:  []string{KnobRegion},
		about:    "Figure 3: capacity lost to global power scaling under the per-antenna constraint",
		defaults: baseSpec(60),
		topology: sim.Fig3NaiveScalingDrop,
		fold: func(recs [][2]float64, r *Result) {
			addColumns(r, recs, "bit/s/Hz", "CAS capacity drop", "DAS capacity drop")
		},
	})

	Register(&scenarioFunc[[2][]float64]{
		name:     "fig7-link-snr",
		ignores:  []string{KnobRegion},
		about:    "Figure 7: SISO link SNR of CAS vs DAS with greedy client→antenna mapping",
		defaults: baseSpec(60),
		topology: infallible(sim.Fig7LinkSNR),
		fold: func(recs [][2][]float64, r *Result) {
			cas, das := stats.NewSample(), stats.NewSample()
			for _, snrs := range recs {
				cas.AddAll(snrs[0])
				das.AddAll(snrs[1])
			}
			r.AddSeries("CAS link SNR", "dB", cas)
			r.AddSeries("DAS link SNR", "dB", das)
			r.AddMetric("median DAS link gain", das.MustMedian()-cas.MustMedian(), "dB", "paper: ≈5 dB")
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
		Register(&scenarioFunc[[2]float64]{
			name:     oc.name,
			about:    oc.about,
			defaults: defaults,
			ignores:  []string{KnobRegion},
			topology: func(o sim.Opts, t int, root *rng.Source) ([2]float64, error) {
				return sim.FigCapacityCDF(office, o, t, root)
			},
			fold: gainFold("CAS capacity", "MIDAS capacity", "median gain", ""),
		})
	}

	Register(&scenarioFunc[[4]float64]{
		name:     "fig10-smart-precoding",
		ignores:  []string{KnobRegion},
		about:    "Figure 10: the power-balanced precoder's gain on CAS and DAS separately",
		defaults: baseSpec(60),
		topology: sim.Fig10SmartPrecoding,
		fold: func(recs [][4]float64, r *Result) {
			c := addColumns(r, recs, "bit/s/Hz",
				"CAS w/o MIDAS precoding", "CAS w/ MIDAS precoding",
				"DAS w/o MIDAS precoding", "DAS w/ MIDAS precoding")
			cg, _ := stats.MedianGain(c[1], c[0])
			dg, _ := stats.MedianGain(c[3], c[2])
			r.AddMetric("CAS median precoding gain", cg*100, "%", "paper: 12%")
			r.AddMetric("DAS median precoding gain", dg*100, "%", "paper: 30%")
		},
	})

	// Each topology computes both variants, each from freshly derived
	// streams, exactly as two separate runs would.
	Register(&scenarioFunc[[2]sim.Fig11Point]{
		name:     "fig11-optimal-gap",
		ignores:  []string{KnobRegion},
		about:    "Figure 11: power-balanced precoding vs the numerical optimum, per topology",
		defaults: baseSpec(20),
		topology: func(o sim.Opts, t int, root *rng.Source) ([2]sim.Fig11Point, error) {
			var pts [2]sim.Fig11Point
			for i, testbed := range []bool{false, true} {
				p, err := sim.Fig11OptimalGap(o, t, root, testbed)
				if err != nil {
					return pts, err
				}
				pts[i] = p
			}
			return pts, nil
		},
		fold: func(recs [][2]sim.Fig11Point, r *Result) {
			for i, label := range []string{"simulation", "testbed (stale optimum)"} {
				midas := runner.Series{Label: label + " MIDAS", Unit: "bit/s/Hz"}
				optimal := runner.Series{Label: label + " optimal", Unit: "bit/s/Hz"}
				// The figure's content is the per-topology gap, so keep
				// the paired table in the text output; the series carry
				// the same pairing by index for JSON/CSV.
				r.AddText("-- %s: topology\tMIDAS\toptimal", label)
				var sm, so float64
				for _, rec := range recs {
					p := rec[i]
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
		},
	})

	Register(&scenarioFunc[sim.Fig12Result]{
		name:     "fig12-spatial-reuse",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "Figure 12: simultaneous streams enabled by per-antenna carrier sensing",
		defaults: baseSpec(30),
		topology: infallible(sim.Fig12SpatialReuse),
		fold: func(recs []sim.Fig12Result, r *Result) {
			ratios := stats.NewSample()
			for _, p := range recs {
				ratios.Add(p.Ratio)
			}
			r.AddSeries("simultaneous-stream ratio MIDAS/CAS", "", ratios)
			r.AddMetric("median ratio", ratios.MustMedian(), "", "paper: ≈1.5")
		},
	})

	Register(&scenarioFunc[sim.DeadzoneResult]{
		name:     "fig13-deadzones",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "Figure 13: deadzone maps of CAS vs DAS coverage on a 0.5 m grid",
		defaults: baseSpec(10),
		topology: infallible(sim.Fig13Deadzones),
		fold: func(recs []sim.DeadzoneResult, r *Result) {
			var res sim.DeadzoneResult
			for i, d := range recs {
				res.Spots += d.Spots
				res.CASDeadspots += d.CASDeadspots
				res.DASDeadspots += d.DASDeadspots
				if i == 0 {
					res.CASMap, res.DASMap, res.MapCols = d.CASMap, d.DASMap, d.MapCols
				}
			}
			r.AddMetric("spots measured", float64(res.Spots), "", "")
			r.AddMetric("CAS deadspots", float64(res.CASDeadspots), "", "")
			r.AddMetric("DAS deadspots", float64(res.DASDeadspots), "", "")
			if res.CASDeadspots > 0 {
				r.AddMetric("reduction", 100*(1-float64(res.DASDeadspots)/float64(res.CASDeadspots)), "%", "paper: 91%")
			}
			r.AddText("-- example map (CAS left, DAS right; '#' = deadspot)")
			addDeadzoneMaps(r, res)
		},
	})

	Register(&scenarioFunc[sim.HiddenTerminalResult]{
		name:     "ht-hidden-terminals",
		ignores:  []string{KnobClients, KnobAntennas, KnobRegion},
		about:    "§5.3.4: hidden-terminal spots between two non-overhearing APs",
		defaults: baseSpec(10),
		topology: infallible(sim.HiddenTerminals),
		fold: func(recs []sim.HiddenTerminalResult, r *Result) {
			var res sim.HiddenTerminalResult
			for _, d := range recs {
				res.CASSpots += d.CASSpots
				res.DASSpots += d.DASSpots
				res.Spots += d.Spots
			}
			r.AddMetric("spots measured", float64(res.Spots), "", "")
			r.AddMetric("CAS hidden-terminal spots", float64(res.CASSpots), "", "")
			r.AddMetric("DAS hidden-terminal spots", float64(res.DASSpots), "", "")
			if res.CASSpots > 0 {
				r.AddMetric("reduction", 100*(1-float64(res.DASSpots)/float64(res.CASSpots)), "%", "paper: 94%")
			}
		},
	})

	Register(&scenarioFunc[[2]float64]{
		name:     "fig14-packet-tagging",
		ignores:  []string{KnobRegion},
		about:    "Figure 14: virtual packet tagging vs a random client pair on 2 of 4 antennas",
		defaults: baseSpec(60),
		topology: sim.Fig14PacketTagging,
		fold:     gainFold("random client pair", "tag-driven client pair", "median tagging gain", "paper: ≈50%"),
	})

	fig15 := infallible(sim.Fig15EndToEnd)
	foldFig15 := gainFold("CAS network capacity", "MIDAS network capacity", "median end-to-end gain", "paper: ≈200%")
	// The "fig15" alias keeps the bare figure stem selecting the paper's
	// own figure: registering fig15-replicated below made "fig15" an
	// ambiguous prefix, and an exact (alias) match wins before prefix
	// matching in Find.
	Register(&scenarioFunc[[2]float64]{
		name:     "fig15-end-to-end",
		aliases:  []string{"fig15"},
		ignores:  []string{KnobRegion},
		about:    "Figure 15: 3-AP testbed network capacity, CAS vs full MIDAS",
		defaults: e2eSpec(60),
		topology: fig15,
		fold:     foldFig15,
	})

	// The replicated variant runs the same experiment; the engine's
	// replication layer fans it over split seeds and reports every
	// metric and series median as mean ± 95% CI instead of a single-seed
	// point estimate.
	replDefaults := e2eSpec(20)
	replDefaults.Replicates = 5
	Register(&scenarioFunc[[2]float64]{
		name:     "fig15-replicated",
		ignores:  []string{KnobRegion},
		about:    "Beyond-paper: Figure 15's testbed replicated over split seeds, reported as mean ± 95% CI per metric",
		defaults: replDefaults,
		topology: fig15,
		fold:     foldFig15,
	})

	Register(&scenarioFunc[[2]float64]{
		name:     "fig16-large-scale",
		about:    "Figure 16: the 8-AP large-scale deployment, CAS vs full MIDAS",
		defaults: e2eSpec(20),
		topology: sim.Fig16LargeScale,
		fold:     gainFold("CAS 8-AP capacity", "MIDAS 8-AP capacity", "median large-scale gain", "paper: >150%"),
	})

	Register(&scenarioFunc[[4]float64]{
		name:     "decomp-gain-breakdown",
		ignores:  []string{KnobRegion},
		about:    "Ablation: where MIDAS's end-to-end gain comes from, one mechanism at a time",
		defaults: e2eSpec(20),
		topology: infallible(sim.Decomposition),
		fold: func(recs [][4]float64, r *Result) {
			for i, name := range []string{
				"CAS baseline median",
				"+ smart precoding median",
				"+ DAS deployment median",
				"+ DAS-aware MAC median (full MIDAS)",
			} {
				r.AddMetric(name, column(recs, i).MustMedian(), "bit/s/Hz", "")
			}
		},
	})

	// The two swept ablations compute every value at each topology on
	// a deployment and streams of its own, exactly as a separate run
	// per value would.
	tagWidths := []int{1, 2, 3, 4}
	Register(&scenarioFunc[[4]float64]{
		name:     "ablation-tagwidth",
		ignores:  []string{KnobRegion},
		about:    "Ablation: antennas tagged per packet (§3.2.4 discusses 1, 2 and all)",
		defaults: e2eSpec(12),
		topology: func(o sim.Opts, t int, root *rng.Source) ([4]float64, error) {
			var caps [4]float64
			for i, w := range tagWidths {
				caps[i] = sim.AblationTagWidth(o, w, t, root)
			}
			return caps, nil
		},
		fold: func(recs [][4]float64, r *Result) {
			for i, w := range tagWidths {
				r.AddMetric(fmt.Sprintf("tag width %d median", w), column(recs, i).MustMedian(), "bit/s/Hz", "")
			}
		},
	})

	waitWindows := []time.Duration{0, 34 * time.Microsecond, 68 * time.Microsecond}
	Register(&scenarioFunc[[3]float64]{
		name:     "ablation-waitwindow",
		ignores:  []string{KnobRegion},
		about:    "Ablation: the opportunistic-selection wait window (§3.2.3 argues one DIFS)",
		defaults: e2eSpec(12),
		topology: func(o sim.Opts, t int, root *rng.Source) ([3]float64, error) {
			var caps [3]float64
			for i, w := range waitWindows {
				caps[i] = sim.AblationWaitWindow(o, w, t, root)
			}
			return caps, nil
		},
		fold: func(recs [][3]float64, r *Result) {
			for i, w := range waitWindows {
				r.AddMetric(fmt.Sprintf("wait window %v median", w), column(recs, i).MustMedian(), "bit/s/Hz", "")
			}
		},
	})

	Register(&scenarioFunc[[3]float64]{
		name:     "ablation-scheduler",
		ignores:  []string{KnobRegion},
		about:    "Ablation: client-selection policy (DRR vs round-robin vs random)",
		defaults: e2eSpec(12),
		topology: infallible(sim.AblationScheduler),
		fold: func(recs [][3]float64, r *Result) {
			for i, name := range sim.SchedulerNames {
				r.AddMetric("scheduler "+name+" median", column(recs, i).MustMedian(), "bit/s/Hz", "")
			}
		},
	})

	rhos := []float64{0, 0.3, 0.6, 0.9}
	Register(&scenarioFunc[[]float64]{
		name:     "ablation-correlation",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "Ablation: CAS antenna-correlation coefficient vs baseline capacity",
		defaults: baseSpec(40),
		topology: func(_ sim.Opts, t int, root *rng.Source) ([]float64, error) {
			return sim.AblationCorrelation(rhos, t, root), nil
		},
		fold: func(recs [][]float64, r *Result) {
			for i, rho := range rhos {
				r.AddMetric(fmt.Sprintf("CAS correlation rho %.1f median", rho), column(recs, i).MustMedian(), "bit/s/Hz", "")
			}
		},
	})

	windows := []float64{6, 12, 30}
	Register(&scenarioFunc[[3][4]float64]{
		name:     "ext-beamforming",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "§7 extension: localized single-user beamforming vs the full array",
		defaults: baseSpec(60),
		topology: func(_ sim.Opts, t int, root *rng.Source) ([3][4]float64, error) {
			var out [3][4]float64
			for i, win := range windows {
				out[i] = sim.BeamformingStudy(win, t, root)
			}
			return out, nil
		},
		fold: func(recs [][3][4]float64, r *Result) {
			for i, win := range windows {
				perWindow := make([][4]float64, len(recs))
				for t, rec := range recs {
					perWindow[t] = rec[i]
				}
				r.AddMetric(fmt.Sprintf("window %.0f dB SNR full", win), column(perWindow, 0).MustMedian(), "dB", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB SNR local", win), column(perWindow, 1).MustMedian(), "dB", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB silenced area full", win), column(perWindow, 2).MustMedian()*100, "%", "")
				r.AddMetric(fmt.Sprintf("window %.0f dB silenced area local", win), column(perWindow, 3).MustMedian()*100, "%", "")
			}
		},
	})

	Register(&scenarioFunc[[4]float64]{
		name:     "ext-placement",
		ignores:  []string{KnobClients, KnobAntennas, KnobShadowing, KnobCoverage, KnobRegion},
		about:    "§7 extension: optimized vs random DAS antenna placement",
		defaults: baseSpec(30),
		topology: func(_ sim.Opts, t int, root *rng.Source) ([4]float64, error) {
			return sim.PlacementStudy(30, t, root)
		},
		fold: func(recs [][4]float64, r *Result) {
			randCov, randCap := column(recs, 0), column(recs, 1)
			optCov, optCap := column(recs, 2), column(recs, 3)
			r.AddSeries("random placement coverage objective", "dB", randCov)
			r.AddSeries("optimized placement coverage objective", "dB", optCov)
			r.AddSeries("random placement capacity", "bit/s/Hz", randCap)
			r.AddSeries("optimized placement capacity", "bit/s/Hz", optCap)
			r.AddMetric("median coverage gain", optCov.MustMedian()-randCov.MustMedian(), "dB", "")
			r.AddMetric("capacity ratio", optCap.MustMedian()/randCap.MustMedian(), "", "")
		},
	})

	denseDefaults := e2eSpec(6)
	denseDefaults.SimTime = Duration(150 * time.Millisecond)
	denseDefaults.Venue = &Venue{Width: 104, Height: 104, APs: 16}
	denseDefaults.Sweep = map[string][]float64{"clients": {2, 4}}
	Register(&scenarioFunc[[2]float64]{
		name:     "dense-venue",
		about:    "Beyond-paper: 16 APs in a 104×104 m venue (4× the paper's floor area, up to 64 clients), swept over client density",
		defaults: denseDefaults,
		topology: sim.Fig16LargeScale,
		fold:     gainFold("CAS dense-venue capacity", "MIDAS dense-venue capacity", "median dense-venue gain", ""),
	})

	const epochs = 4
	foldChurn := gainFold("CAS capacity under churn", "MIDAS capacity under churn", "median churn gain", "")
	Register(&scenarioFunc[[2]float64]{
		name:     "client-churn",
		ignores:  []string{KnobRegion},
		about:    "Beyond-paper: Figure 15's testbed with the client population re-drawn every quarter of the run",
		defaults: e2eSpec(20),
		topology: func(o sim.Opts, t int, root *rng.Source) ([2]float64, error) {
			return sim.ClientChurn(o, epochs, t, root), nil
		},
		fold: func(recs [][2]float64, r *Result) {
			foldChurn(recs, r)
			r.AddMetric("churn epochs", float64(epochs), "", "clients re-drawn per epoch")
		},
	})
}

// addDeadzoneMaps renders the Fig 13 deadzone maps (deployment 0's)
// side by side, downsampled.
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
