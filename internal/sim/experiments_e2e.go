package sim

import (
	"math"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/topology"
)

// This file implements the end-to-end experiments: the 3-AP testbed CDF
// of Figure 15, the 8-AP large-scale simulation of Figure 16, and the
// decomposition/ablation variants registered beside them (README
// "Scenarios").

// params is the channel model for this run.
func (o Opts) params() channel.Params { return o.Env.Params(channel.Default()) }

// config is the per-AP testbed topology for this run.
func (o Opts) config(mode topology.Mode) topology.Config {
	cfg := o.Env.Topology(topology.DefaultConfig(mode))
	if o.Clients > 0 {
		cfg.ClientsPerAP = o.Clients
	}
	if o.Antennas > 0 {
		cfg.AntennasPerAP = o.Antennas
	}
	return cfg
}

// largeConfig is the §5.5 large-scale configuration for this run, with
// the venue overrides applied.
func (o Opts) largeConfig(mode topology.Mode) topology.LargeScaleConfig {
	cfg := topology.DefaultLargeScale(mode)
	cfg.Config = o.Env.Topology(cfg.Config)
	if o.Clients > 0 {
		cfg.ClientsPerAP = o.Clients
	}
	if o.Antennas > 0 {
		cfg.AntennasPerAP = o.Antennas
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

// Fig15EndToEnd is one topology of Figure 15: the network capacity of
// the 3-AP testbed under conventional CAS and under MIDAS, in that
// order.
func Fig15EndToEnd(o Opts, t int, root *rng.Source) [2]float64 {
	p := o.params()
	src := root.SplitN("fig15", t)
	cfgC := o.config(topology.CAS)
	cfgM := o.config(topology.DAS)
	depC := topology.ThreeAPTestbed(cfgC, src.Split("topo"))
	depM := topology.ThreeAPTestbed(cfgM, src.Split("topo"))
	// §5.4 premise: the three APs overhear each other.
	runC := OverhearingSource(depC, p, src.Split("runC"), 64)
	runM := OverhearingSource(depM, p, src.Split("runM"), 64)
	return [2]float64{
		runOne(depC, p, DefaultStationOpts(KindCAS), runC, o.SimTime),
		runOne(depM, p, DefaultStationOpts(KindMIDAS), runM, o.SimTime),
	}
}

// Fig16LargeScale is one topology of Figure 16: the paper's 8-AP
// deployment with its placement constraints (≤3 overhearable APs, ≥5 m
// antenna spacing), CAS versus full MIDAS capacity, in that order. The
// region is 52×52 m rather than the paper's 60×60 m: our multi-wall
// model isolates cells faster than their building did, and the denser
// region restores the inter-cell coupling their deployment had.
func Fig16LargeScale(o Opts, t int, root *rng.Source) ([2]float64, error) {
	p := o.params()
	src := root.SplitN("fig16", t)
	depC, err := topology.LargeScale(o.largeConfig(topology.CAS), src.Split("topo"))
	if err != nil {
		return [2]float64{}, err
	}
	depM, err := topology.LargeScale(o.largeConfig(topology.DAS), src.Split("topo"))
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{
		runOne(depC, p, DefaultStationOpts(KindCAS), src.Split("runC"), o.SimTime),
		runOne(depM, p, DefaultStationOpts(KindMIDAS), src.Split("runM"), o.SimTime),
	}, nil
}

// Decomposition is one topology of the gain breakdown: the 3-AP testbed
// in four configurations that add MIDAS's mechanisms one at a time (§1
// credits ≈30% to precoding, ≈40% to the DAS deployment and ≈65% to the
// MAC mechanisms). It returns the capacities of
//
//   - CAS;
//   - CAS deployment and MAC with the power-balanced precoder;
//   - DAS deployment with the conventional single-state MAC (no
//     per-antenna sensing, no tagging) and the power-balanced precoder;
//   - full MIDAS, which adds the DAS-aware MAC.
func Decomposition(o Opts, t int, root *rng.Source) [4]float64 {
	p := o.params()
	src := root.SplitN("decomp", t)
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
}

// AblationTagWidth is one topology of the tag-width ablation: the MIDAS
// capacity with width antennas tagged per packet (§3.2.4 discusses 1, 2
// and all-antennas), on a deployment of its own.
func AblationTagWidth(o Opts, width, t int, root *rng.Source) float64 {
	src := root.SplitN("tagwidth", t)
	dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
	opts := DefaultStationOpts(KindMIDAS)
	opts.TagWidth = width
	return runOne(dep, o.params(), opts, src.SplitN("run", width), o.SimTime)
}

// AblationWaitWindow is one topology of the wait-window ablation: the
// MIDAS capacity with the given opportunistic-selection wait window
// (§3.2.3 argues one DIFS is the right balance), on a deployment of its
// own.
func AblationWaitWindow(o Opts, window time.Duration, t int, root *rng.Source) float64 {
	src := root.SplitN("waitwin", t)
	dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
	opts := DefaultStationOpts(KindMIDAS)
	opts.WaitWindow = window
	opts.HasWaitWindow = true
	// Each window's run stream is child 0 of "run", whatever the window.
	return runOne(dep, o.params(), opts, src.SplitN("run", 0), o.SimTime)
}

// SchedulerNames are the client-selection policies AblationScheduler
// compares, in the order of its result.
var SchedulerNames = [3]string{"drr", "rr", "random"}

// AblationScheduler is one topology of the client-selection ablation
// (§3.2.5: DRR is the paper's choice; round-robin and random are the
// ablations): the MIDAS capacity under each of SchedulerNames, all on
// one deployment.
func AblationScheduler(o Opts, t int, root *rng.Source) [3]float64 {
	p := o.params()
	src := root.SplitN("sched", t)
	dep := topology.ThreeAPTestbed(o.config(topology.DAS), src.Split("topo"))
	var caps [3]float64
	for i, name := range SchedulerNames {
		opts := DefaultStationOpts(KindMIDAS)
		opts.SchedulerName = name
		caps[i] = runOne(dep, p, opts, src.Split("run-"+name), o.SimTime)
	}
	return caps
}

// AblationCorrelation is one topology of the CAS antenna-correlation
// ablation — the knob that controls how much channel rank the
// co-located baseline loses relative to DAS: the naive-scaled sum rate
// at each correlation coefficient of rhos, or NaN where the precoder
// has no solution.
func AblationCorrelation(rhos []float64, t int, root *rng.Source) []float64 {
	sv := getSolver()
	defer putSolver(sv)
	res := make([]float64, len(rhos))
	for i, rho := range rhos {
		// One child per (t, rho) pair.
		src := root.SplitN("corr", t*100+i)
		p := channel.Default()
		p.CASCorrelation = rho
		cfg := topology.DefaultConfig(topology.CAS)
		dep := topology.SingleAP(cfg, src.Split("topo"))
		m := dep.Model(p, src.Split("chan"))
		prob := problemFromModel(p, m)
		res[i] = math.NaN()
		if v, err := sv.NaiveScaled(prob); err == nil {
			res[i] = sv.SumRate(prob.H, v, prob.Noise)
		}
	}
	return res
}

// ClientChurn is one topology of a beyond-paper variant of the Figure 15
// end-to-end experiment: the client population turns over during the
// run. The simulated airtime is split into epochs; every epoch after
// the first re-draws all client positions (APs and antennas stay fixed,
// modelling people moving through a venue while the infrastructure does
// not). MIDAS's per-antenna sensing and tagging must re-learn the client
// map each epoch, so churn stresses exactly the mechanisms the static
// experiment lets settle. Returns the mean epoch capacities of CAS and
// MIDAS, in that order.
func ClientChurn(o Opts, epochs, t int, root *rng.Source) [2]float64 {
	if epochs < 1 {
		epochs = 1
	}
	p := o.params()
	epochTime := o.SimTime / time.Duration(epochs)
	src := root.SplitN("churn", t)
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
	return [2]float64{sumC / float64(epochs), sumM / float64(epochs)}
}

// problemFromModel assembles a full-deployment precoding problem.
func problemFromModel(p channel.Params, m *channel.Model) precoding.Problem {
	return precoding.Problem{
		H:               m.Matrix(nil, nil),
		PerAntennaPower: p.TxPowerLinear(),
		Noise:           p.NoiseLinear(),
	}
}
