package sim

import (
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the end-to-end experiments: the 3-AP testbed CDF
// of Figure 15, the 8-AP large-scale simulation of Figure 16, and the
// decomposition/ablation variants registered beside them (README
// "Scenarios").

// E2EOpts configures an end-to-end run. Every field past Seed is
// optional; zero values reproduce the paper configuration.
type E2EOpts struct {
	Topologies int
	SimTime    time.Duration
	Seed       int64
	// ClientsPerAP overrides the default (4) when > 0.
	ClientsPerAP int
	// AntennasPerAP overrides the default (4) when > 0.
	AntennasPerAP int
	// Env adjusts the channel parameters and coverage radius.
	Env EnvOverrides
	// VenueWidth/VenueHeight override the large-scale deployment region
	// (paper: 52×52 m) when both > 0; VenueAPs overrides its AP count
	// (paper: 8) when > 0. Only the large-scale experiments read these.
	VenueWidth, VenueHeight float64
	VenueAPs                int
	// Parallelism bounds the topology-sweep worker pool for this call;
	// <= 0 selects GOMAXPROCS. Per-call so concurrent jobs in one
	// process can run at different widths without sharing mutable state.
	Parallelism int
}

// params is the channel model for this run.
func (o E2EOpts) params() channel.Params { return o.Env.Params(channel.Default()) }

// config is the per-AP testbed topology for this run.
func (o E2EOpts) config(mode topology.Mode) topology.Config {
	cfg := o.Env.Topology(topology.DefaultConfig(mode))
	if o.ClientsPerAP > 0 {
		cfg.ClientsPerAP = o.ClientsPerAP
	}
	if o.AntennasPerAP > 0 {
		cfg.AntennasPerAP = o.AntennasPerAP
	}
	return cfg
}

// largeConfig is the §5.5 large-scale configuration for this run, with
// the venue overrides applied.
func (o E2EOpts) largeConfig(mode topology.Mode) topology.LargeScaleConfig {
	cfg := topology.DefaultLargeScale(mode)
	cfg.Config = o.Env.Topology(cfg.Config)
	if o.ClientsPerAP > 0 {
		cfg.ClientsPerAP = o.ClientsPerAP
	}
	if o.AntennasPerAP > 0 {
		cfg.AntennasPerAP = o.AntennasPerAP
	}
	if o.VenueWidth > 0 && o.VenueHeight > 0 {
		cfg.Region = geom.NewRect(0, 0, o.VenueWidth, o.VenueHeight)
	}
	if o.VenueAPs > 0 {
		cfg.NumAPs = o.VenueAPs
	}
	return cfg
}

// runOne builds and runs a network, returning its delivered capacity.
func runOne(dep *topology.Deployment, p channel.Params, opts StationOpts, src *rng.Source, simTime time.Duration) float64 {
	EnsureAssociated(dep, p, src.Split("model"))
	net := NewNetwork(dep, p, opts, src)
	net.Run(simTime)
	return net.NetworkCapacity()
}

// arm2 carries one topology's paired results through the worker pool.
type arm2 struct{ a, b float64 }

// Fig15EndToEnd reproduces Figure 15: network capacity CDFs of the 3-AP
// testbed under conventional CAS and under MIDAS, over random topologies.
func Fig15EndToEnd(o E2EOpts) (cas, midas *stats.Sample) {
	p := o.params()
	res := sweep(o.Topologies, o.Seed, "fig15", o.Parallelism, func(t int, src *rng.Source) arm2 {
		cfgC := o.config(topology.CAS)
		cfgM := o.config(topology.DAS)
		depC := topology.ThreeAPTestbed(cfgC, src.Split("topo"))
		depM := topology.ThreeAPTestbed(cfgM, src.Split("topo"))
		// §5.4 premise: the three APs overhear each other.
		runC := OverhearingSource(depC, p, src.Split("runC"), 64)
		runM := OverhearingSource(depM, p, src.Split("runM"), 64)
		return arm2{
			a: runOne(depC, p, DefaultStationOpts(KindCAS), runC, o.SimTime),
			b: runOne(depM, p, DefaultStationOpts(KindMIDAS), runM, o.SimTime),
		}
	})
	cas, midas = stats.NewSample(), stats.NewSample()
	for _, r := range res {
		cas.Add(r.a)
		midas.Add(r.b)
	}
	return cas, midas
}

// Fig16LargeScale reproduces Figure 16: the paper's 8-AP deployment with
// its placement constraints (≤3 overhearable APs, ≥5 m antenna spacing),
// CAS versus full MIDAS. The region is 52×52 m rather than the paper's
// 60×60 m: our multi-wall model isolates cells faster than their building
// did, and the denser region restores the inter-cell coupling their
// deployment had.
func Fig16LargeScale(o E2EOpts) (cas, midas *stats.Sample, err error) {
	res, err := sweepErr(o.Topologies, o.Seed, "fig16", o.Parallelism, func(t int, src *rng.Source) (arm2, error) {
		return fig16Topology(o, src)
	})
	if err != nil {
		return nil, nil, err
	}
	cas, midas = stats.NewSample(), stats.NewSample()
	for _, r := range res {
		cas.Add(r.a)
		midas.Add(r.b)
	}
	return cas, midas, nil
}

// fig16Topology runs one Figure 16 topology drawn from src: the CAS
// capacity in a, MIDAS in b.
func fig16Topology(o E2EOpts, src *rng.Source) (arm2, error) {
	p := o.params()
	depC, err := topology.LargeScale(o.largeConfig(topology.CAS), src.Split("topo"))
	if err != nil {
		return arm2{}, err
	}
	depM, err := topology.LargeScale(o.largeConfig(topology.DAS), src.Split("topo"))
	if err != nil {
		return arm2{}, err
	}
	return arm2{
		a: runOne(depC, p, DefaultStationOpts(KindCAS), src.Split("runC"), o.SimTime),
		b: runOne(depM, p, DefaultStationOpts(KindMIDAS), src.Split("runM"), o.SimTime),
	}, nil
}

// DecompositionResult isolates where MIDAS's end-to-end gain comes from
// (§1 credits ≈30% to precoding, ≈40% to the DAS deployment and ≈65% to
// the MAC mechanisms).
type DecompositionResult struct {
	CAS *stats.Sample
	// CASPlusPrecoding: CAS deployment and MAC, power-balanced precoder.
	CASPlusPrecoding *stats.Sample
	// DASPlusPrecoding: DAS deployment with the conventional single-state
	// MAC (no per-antenna sensing, no tagging), power-balanced precoder.
	DASPlusPrecoding *stats.Sample
	// FullMIDAS adds the DAS-aware MAC.
	FullMIDAS *stats.Sample
}

// Decomposition runs the 3-AP testbed in four configurations that add
// MIDAS's mechanisms one at a time.
func Decomposition(o E2EOpts) *DecompositionResult {
	p := o.params()
	vals := sweep(o.Topologies, o.Seed, "decomp", o.Parallelism, func(t int, src *rng.Source) [4]float64 {
		depC := topology.ThreeAPTestbed(o.config(topology.CAS), src.Split("topo"))
		depM := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))

		base := DefaultStationOpts(KindCAS)
		srcC := OverhearingSource(depC, p, src.Split("rC"), 64)
		srcM := OverhearingSource(depM, p, src.Split("rM"), 64)

		prec := base
		prec.Precoder = PrecoderPowerBalanced
		dasCAS := prec // DAS antennas, conventional MAC
		return [4]float64{
			runOne(depC, p, base, srcC, o.SimTime),
			runOne(depC, p, prec, srcC, o.SimTime),
			runOne(depM, p, dasCAS, srcM, o.SimTime),
			runOne(depM, p, DefaultStationOpts(KindMIDAS), srcM, o.SimTime),
		}
	})
	res := &DecompositionResult{
		CAS: stats.NewSample(), CASPlusPrecoding: stats.NewSample(),
		DASPlusPrecoding: stats.NewSample(), FullMIDAS: stats.NewSample(),
	}
	for _, v := range vals {
		res.CAS.Add(v[0])
		res.CASPlusPrecoding.Add(v[1])
		res.DASPlusPrecoding.Add(v[2])
		res.FullMIDAS.Add(v[3])
	}
	return res
}

// AblationTagWidth sweeps the number of antennas tagged per packet
// (§3.2.4 discusses 1, 2 and all-antennas).
func AblationTagWidth(widths []int, o E2EOpts) map[int]*stats.Sample {
	p := o.params()
	vals := sweep(o.Topologies, o.Seed, "tagwidth", o.Parallelism, func(t int, src *rng.Source) []float64 {
		dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
		caps := make([]float64, len(widths))
		for i, w := range widths {
			opts := DefaultStationOpts(KindMIDAS)
			opts.TagWidth = w
			caps[i] = runOne(dep, p, opts, src.SplitN("run", w), o.SimTime)
		}
		return caps
	})
	out := map[int]*stats.Sample{}
	for _, w := range widths {
		out[w] = stats.NewSample()
	}
	for _, caps := range vals {
		for i, w := range widths {
			out[w].Add(caps[i])
		}
	}
	return out
}

// AblationWaitWindow sweeps the opportunistic-selection wait window
// (§3.2.3 argues one DIFS is the right balance).
func AblationWaitWindow(windows []time.Duration, o E2EOpts) map[time.Duration]*stats.Sample {
	p := o.params()
	vals := sweep(o.Topologies, o.Seed, "waitwin", o.Parallelism, func(t int, src *rng.Source) []float64 {
		dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
		caps := make([]float64, len(windows))
		for i, w := range windows {
			opts := DefaultStationOpts(KindMIDAS)
			opts.WaitWindow = w
			opts.HasWaitWindow = true
			caps[i] = runOne(dep, p, opts, src.SplitN("run", i), o.SimTime)
		}
		return caps
	})
	out := map[time.Duration]*stats.Sample{}
	for _, w := range windows {
		out[w] = stats.NewSample()
	}
	for _, caps := range vals {
		for i, w := range windows {
			out[w].Add(caps[i])
		}
	}
	return out
}

// AblationScheduler compares client-selection policies (§3.2.5: DRR is
// the paper's choice; round-robin and random are the ablations).
func AblationScheduler(o E2EOpts) map[string]*stats.Sample {
	names := []string{"drr", "rr", "random"}
	p := o.params()
	vals := sweep(o.Topologies, o.Seed, "sched", o.Parallelism, func(t int, src *rng.Source) []float64 {
		dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
		caps := make([]float64, len(names))
		for i, name := range names {
			opts := DefaultStationOpts(KindMIDAS)
			opts.SchedulerName = name
			caps[i] = runOne(dep, p, opts, src.Split("run-"+name), o.SimTime)
		}
		return caps
	})
	out := map[string]*stats.Sample{}
	for _, name := range names {
		out[name] = stats.NewSample()
	}
	for _, caps := range vals {
		for i, name := range names {
			out[name].Add(caps[i])
		}
	}
	return out
}

// AblationCorrelation sweeps the CAS antenna-correlation coefficient —
// the knob that controls how much channel rank the co-located baseline
// loses relative to DAS.
func AblationCorrelation(rhos []float64, topos int, seed int64, parallel int) map[float64]*stats.Sample {
	type rhoVal struct {
		ok bool
		v  float64
	}
	// Task t derives one child per (t, rho) pair — the sweep label is
	// only used for progress reporting here.
	vals := sweepRoot(topos, seed, parallel, func(t int, root *rng.Source) []rhoVal {
		sv := getSolver()
		defer putSolver(sv)
		res := make([]rhoVal, len(rhos))
		for i, rho := range rhos {
			src := root.SplitN("corr", t*100+i)
			p := channel.Default()
			p.CASCorrelation = rho
			cfg := topology.DefaultConfig(topology.CAS)
			dep := topology.SingleAP(cfg, src.Split("topo"))
			m := dep.Model(p, src.Split("chan"))
			prob := problemFromModel(p, m)
			if v, err := sv.NaiveScaled(prob); err == nil {
				res[i] = rhoVal{ok: true, v: sv.SumRate(prob.H, v, prob.Noise)}
			}
		}
		return res
	})
	out := map[float64]*stats.Sample{}
	for _, r := range rhos {
		out[r] = stats.NewSample()
	}
	for _, res := range vals {
		for i, rho := range rhos {
			if res[i].ok {
				out[rho].Add(res[i].v)
			}
		}
	}
	return out
}

// ClientChurn is a beyond-paper variant of the Figure 15 end-to-end
// experiment: the client population turns over during the run. The
// simulated airtime is split into epochs; every epoch after the first
// re-draws all client positions (APs and antennas stay fixed, modelling
// people moving through a venue while the infrastructure does not).
// MIDAS's per-antenna sensing and tagging must re-learn the client map
// each epoch, so churn stresses exactly the mechanisms the static
// experiment lets settle. Returns per-topology mean epoch capacities
// for CAS and MIDAS.
func ClientChurn(o E2EOpts, epochs int) (cas, midas *stats.Sample) {
	if epochs < 1 {
		epochs = 1
	}
	p := o.params()
	epochTime := o.SimTime / time.Duration(epochs)
	res := sweep(o.Topologies, o.Seed, "churn", o.Parallelism, func(t int, src *rng.Source) arm2 {
		depC := topology.ThreeAPTestbed(o.config(topology.CAS), src.Split("topo"))
		depM := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
		var sumC, sumM float64
		for e := 0; e < epochs; e++ {
			es := src.SplitN("epoch", e)
			if e > 0 {
				depC.ReplaceClients(es.Split("churnC"))
				depM.ReplaceClients(es.Split("churnM"))
			}
			runC := OverhearingSource(depC, p, es.Split("runC"), 64)
			runM := OverhearingSource(depM, p, es.Split("runM"), 64)
			sumC += runOne(depC, p, DefaultStationOpts(KindCAS), runC, epochTime)
			sumM += runOne(depM, p, DefaultStationOpts(KindMIDAS), runM, epochTime)
		}
		return arm2{a: sumC / float64(epochs), b: sumM / float64(epochs)}
	})
	cas, midas = stats.NewSample(), stats.NewSample()
	for _, r := range res {
		cas.Add(r.a)
		midas.Add(r.b)
	}
	return cas, midas
}

// problemFromModel assembles a full-deployment precoding problem.
func problemFromModel(p channel.Params, m *channel.Model) precoding.Problem {
	return precoding.Problem{
		H:               m.Matrix(nil, nil),
		PerAntennaPower: p.TxPowerLinear(),
		Noise:           p.NoiseLinear(),
	}
}
