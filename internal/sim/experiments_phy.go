package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/matrix"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the PHY-layer experiments of §5.2 — the figures
// that need only topologies, channels and precoders (no MAC event loop).
// Each function regenerates one figure's data series.

// Office selects the two indoor environments of §5.2.2.
type Office int

// The two testbed environments.
const (
	// OfficeA is the enterprise office: standard rooms, lighter clutter.
	OfficeA Office = iota
	// OfficeB is the graduate student lab: more crowded, heavier clutter
	// and smaller effective coverage.
	OfficeB
)

// String implements fmt.Stringer.
func (o Office) String() string {
	if o == OfficeB {
		return "OfficeB"
	}
	return "OfficeA"
}

// officeParams returns the channel parameters for an environment.
func officeParams(o Office) channel.Params {
	p := channel.Default()
	if o == OfficeB {
		p.ShadowSigmaDB = 5.0 // denser clutter
		p.CASCorrelation = 0.7
		// The grad lab is partitioned into cubicle-scale bays rather
		// than the enterprise floor's large rooms.
		p.RoomW, p.RoomH = 5, 6
		p.WallDB = 7
		p.MaxWallDB = 42
	}
	return p
}

func officeTopology(o Office, mode topology.Mode, antennas int) topology.Config {
	cfg := topology.DefaultConfig(mode)
	cfg.AntennasPerAP = antennas
	if o == OfficeB {
		cfg.CoverageRadius = 10 // crowded lab: shorter links
	}
	return cfg
}

// phyProblem draws one topology + channel realisation and returns the
// precoding problem over all clients and antennas. env adjusts the
// office defaults; the zero EnvOverrides keeps them.
func phyProblem(o Office, mode topology.Mode, antennas, clients int, env EnvOverrides, src *rng.Source) (precoding.Problem, *channel.Model, *topology.Deployment) {
	cfg := env.Topology(officeTopology(o, mode, antennas))
	cfg.ClientsPerAP = clients
	dep := topology.SingleAP(cfg, src.Split("topo"))
	p := env.Params(officeParams(o))
	m := dep.Model(p, src.Split("chan"))
	prob := precoding.Problem{
		H:               m.Matrix(nil, nil),
		PerAntennaPower: p.TxPowerLinear(),
		Noise:           p.NoiseLinear(),
	}
	return prob, m, dep
}

// Fig3NaiveScalingDrop reproduces Figure 3: the CDF of the capacity drop
// suffered when conventional equal-power ZFBF is forced to meet the
// per-antenna power constraint by one global scale factor, for CAS and
// DAS 4×4 topologies. The zero optional fields of o reproduce the paper
// run.
func Fig3NaiveScalingDrop(o PhyOpts) (cas, das *stats.Sample, err error) {
	cas, das = stats.NewSample(), stats.NewSample()
	for _, mode := range []topology.Mode{topology.CAS, topology.DAS} {
		out := cas
		if mode == topology.DAS {
			out = das
		}
		drops, err := sweepErr(o.Topologies, o.Seed, "fig3-"+mode.String(), o.Parallelism, func(t int, src *rng.Source) (float64, error) {
			sv := getSolver()
			defer putSolver(sv)
			prob, _, _ := phyProblem(OfficeB, mode, o.antennas(), o.clients(), o.Env, src)
			// Solver results are overwritten by the next precoder call, so
			// each rate is taken before the next solve.
			ideal, err := sv.ZFBF(prob)
			if err != nil {
				return 0, fmt.Errorf("fig3 topo %d: %w", t, err)
			}
			idealRate := sv.SumRate(prob.H, ideal, prob.Noise)
			naive, err := sv.NaiveScaled(prob)
			if err != nil {
				return 0, fmt.Errorf("fig3 topo %d: %w", t, err)
			}
			drop := idealRate - sv.SumRate(prob.H, naive, prob.Noise)
			if drop < 0 {
				drop = 0
			}
			return drop, nil
		})
		if err != nil {
			return nil, nil, err
		}
		out.AddAll(drops)
	}
	return cas, das, nil
}

// Fig7LinkSNR reproduces Figure 7: the CDF of SISO link SNR for CAS and
// DAS with the greedy client→antenna mapping of §5.2.1 (strongest pair
// first, each antenna and client used once).
func Fig7LinkSNR(o PhyOpts) (cas, das *stats.Sample) {
	cas, das = stats.NewSample(), stats.NewSample()
	for _, mode := range []topology.Mode{topology.CAS, topology.DAS} {
		out := cas
		if mode == topology.DAS {
			out = das
		}
		snrs := sweep(o.Topologies, o.Seed, "fig7-"+mode.String(), o.Parallelism, func(t int, src *rng.Source) []float64 {
			_, m, _ := phyProblem(OfficeA, mode, o.antennas(), o.clients(), o.Env, src)
			return greedySISOMap(m)
		})
		for _, s := range snrs {
			out.AddAll(s)
		}
	}
	return cas, das
}

// greedySISOMap pairs clients with antennas greedily by instantaneous SNR
// and returns the per-client link SNRs (dB).
func greedySISOMap(m *channel.Model) []float64 {
	nA, nC := m.NumAntennas(), m.NumClients()
	usedA := make([]bool, nA)
	usedC := make([]bool, nC)
	var out []float64
	for n := 0; n < nC && n < nA; n++ {
		bestC, bestA, bestSNR := -1, -1, math.Inf(-1)
		for j := 0; j < nC; j++ {
			if usedC[j] {
				continue
			}
			for k := 0; k < nA; k++ {
				if usedA[k] {
					continue
				}
				if s := m.SNRdB(j, k); s > bestSNR {
					bestC, bestA, bestSNR = j, k, s
				}
			}
		}
		usedC[bestC], usedA[bestA] = true, true
		out = append(out, bestSNR)
	}
	return out
}

// FigCapacityCDF reproduces Figures 8 and 9: MU-MIMO sum-capacity CDFs
// for CAS (baseline precoding) versus MIDAS (DAS + power-balanced
// precoding) with the given antenna count (2 → "2x2", 4 → "4x4") in the
// given office (po.Antennas).
func FigCapacityCDF(o Office, po PhyOpts) (cas, midas *stats.Sample, err error) {
	// One source for both arms: §5.2.2 fixes the clients and varies
	// only the antenna deployment between CAS and DAS.
	label := fmt.Sprintf("fig89-%v-%d", o, po.antennas())
	res, err := sweepErr(po.Topologies, po.Seed, label, po.Parallelism, func(t int, src *rng.Source) (arm2, error) {
		sv := getSolver()
		defer putSolver(sv)
		probC, _, _ := phyProblem(o, topology.CAS, po.antennas(), po.clients(), po.Env, src)
		vC, err := sv.NaiveScaled(probC)
		if err != nil {
			return arm2{}, err
		}
		rateC := sv.SumRate(probC.H, vC, probC.Noise)
		probM, _, _ := phyProblem(o, topology.DAS, po.antennas(), po.clients(), po.Env, src)
		vM, _, err := sv.PowerBalanced(probM)
		if err != nil {
			return arm2{}, err
		}
		return arm2{
			a: rateC,
			b: sv.SumRate(probM.H, vM, probM.Noise),
		}, nil
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

// Fig10Curves labels the four curves of Figure 10.
type Fig10Curves struct {
	CASNaive, CASBalanced, DASNaive, DASBalanced *stats.Sample
}

// Fig10SmartPrecoding reproduces Figure 10: the impact of power-balanced
// precoding on CAS and on DAS separately (4×4, Office B).
func Fig10SmartPrecoding(o PhyOpts) (*Fig10Curves, error) {
	// [casNaive, casBalanced, dasNaive, dasBalanced] per topology; the
	// per-mode child streams keep their original labels.
	vals, err := sweepRootErr(o.Topologies, o.Seed, "fig10", o.Parallelism, func(t int, root *rng.Source) ([4]float64, error) {
		var out [4]float64
		sv := getSolver()
		defer putSolver(sv)
		for mi, mode := range []topology.Mode{topology.CAS, topology.DAS} {
			src := root.SplitN("fig10-"+mode.String(), t)
			prob, _, _ := phyProblem(OfficeB, mode, o.antennas(), o.clients(), o.Env, src)
			naive, err := sv.NaiveScaled(prob)
			if err != nil {
				return out, err
			}
			out[2*mi] = sv.SumRate(prob.H, naive, prob.Noise)
			bal, _, err := sv.PowerBalanced(prob)
			if err != nil {
				return out, err
			}
			out[2*mi+1] = sv.SumRate(prob.H, bal, prob.Noise)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	c := &Fig10Curves{
		CASNaive: stats.NewSample(), CASBalanced: stats.NewSample(),
		DASNaive: stats.NewSample(), DASBalanced: stats.NewSample(),
	}
	for _, v := range vals {
		c.CASNaive.Add(v[0])
		c.CASBalanced.Add(v[1])
		c.DASNaive.Add(v[2])
		c.DASBalanced.Add(v[3])
	}
	return c, nil
}

// Fig11Point is one topology of the Figure 11 comparison.
type Fig11Point struct {
	Topology int
	MIDAS    float64 // power-balanced sum rate, bit/s/Hz
	Optimal  float64 // numerical optimum, bit/s/Hz
}

// Fig11OptimalGap reproduces Figure 11: per-topology sum rate of MIDAS's
// power-balanced precoder against the numerical optimum. testbed selects
// the testbed-like variant, where the optimiser's answer is applied to a
// channel that has evolved during its (simulated) seconds-long solve —
// the effect that let MIDAS beat "optimal" on some testbed topologies.
func Fig11OptimalGap(o PhyOpts, testbed bool) ([]Fig11Point, error) {
	opts := precoding.DefaultOptimalOptions()
	return sweepErr(o.Topologies, o.Seed, "fig11", o.Parallelism, func(t int, src *rng.Source) (Fig11Point, error) {
		sv := getSolver()
		defer putSolver(sv)
		prob, m, _ := phyProblem(OfficeB, topology.DAS, o.antennas(), o.clients(), o.Env, src)
		// bal stays valid across the OptimalZF call (the numerical
		// reference solver does not share the Solver's buffers).
		bal, _, err := sv.PowerBalanced(prob)
		if err != nil {
			return Fig11Point{}, err
		}
		opt, err := precoding.OptimalZF(prob, opts)
		if err != nil {
			return Fig11Point{}, err
		}
		hEval := prob.H
		hEvalOpt := prob.H
		if testbed {
			// The optimiser takes ~2 s (§5.2.3); the channel moves on.
			// MIDAS's lightweight precoder is applied within the
			// coherence time; the optimal one is applied late.
			for i := 0; i < 40; i++ {
				m.Evolve()
			}
			hEvalOpt = m.Matrix(nil, nil)
		}
		return Fig11Point{
			Topology: t,
			MIDAS:    sv.SumRate(hEval, bal, prob.Noise),
			Optimal:  sv.SumRate(hEvalOpt, opt.V, prob.Noise),
		}, nil
	})
}

// Fig14PacketTagging reproduces Figure 14: one MIDAS AP with only two of
// four antennas available and four backlogged clients; virtual packet
// tagging selects the client pair versus a random pair, and the CDF of
// the resulting 2-stream capacity is compared.
func Fig14PacketTagging(o PhyOpts) (random, tagged *stats.Sample, err error) {
	// The experiment disables two of the antennas and compares client
	// *pairs*, so degenerate arrays cannot run it.
	if o.antennas() < 2 || o.clients() < 2 {
		return nil, nil, fmt.Errorf("fig14: packet tagging needs at least 2 antennas and 2 clients (got %d antennas × %d clients)",
			o.antennas(), o.clients())
	}
	res, err := sweepErr(o.Topologies, o.Seed, "fig14", o.Parallelism, func(t int, src *rng.Source) (arm2, error) {
		sv := getSolver()
		defer putSolver(sv)
		_, m, dep := phyProblem(OfficeB, topology.DAS, o.antennas(), o.clients(), o.Env, src)
		avail := pickTwoAntennas(src, o.antennas())
		// Tag-driven choice: rank clients by mean RSSI on the available
		// antennas (the §3.2.4 preference), pick the top client of each
		// available antenna, distinct.
		tagClients := tagDrivenPair(m, dep, avail)
		randClients := randomPair(src, m.NumClients())
		p := o.Env.Params(officeParams(OfficeB))
		var capOf func(clients []int) (float64, error)
		capOf = func(clients []int) (float64, error) {
			sub := precoding.Problem{
				H:               m.Matrix(clients, avail),
				PerAntennaPower: p.TxPowerLinear(),
				Noise:           p.NoiseLinear(),
			}
			v, _, err := sv.PowerBalanced(sub)
			if errors.Is(err, matrix.ErrSingular) && len(clients) > 1 {
				// The pair cannot be zero-forced: both clients hear the
				// available antennas in so nearly the same proportion
				// (one antenna tens of dB above the other for both) that
				// their channels are collinear to working precision. The
				// AP then serves the better of the two alone.
				best := 0.0
				for _, c := range clients {
					r, err := capOf([]int{c})
					if err != nil {
						return 0, err
					}
					best = max(best, r)
				}
				return best, nil
			}
			if err != nil {
				return 0, err
			}
			return sv.SumRate(sub.H, v, sub.Noise), nil
		}
		ct, err := capOf(tagClients)
		if err != nil {
			return arm2{}, err
		}
		cr, err := capOf(randClients)
		if err != nil {
			return arm2{}, err
		}
		return arm2{a: cr, b: ct}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	random, tagged = stats.NewSample(), stats.NewSample()
	for _, r := range res {
		random.Add(r.a)
		tagged.Add(r.b)
	}
	return random, tagged, nil
}

func pickTwoAntennas(src *rng.Source, nAntennas int) []int {
	perm := src.Split("avail").Perm(nAntennas)
	a, b := perm[0], perm[1]
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}

// tagDrivenPair picks one client per available antenna by the §3.2.4/5
// rule: clients tagged (top-2 RSSI) to an available antenna are eligible;
// the strongest eligible client wins; duplicates excluded.
func tagDrivenPair(m *channel.Model, dep *topology.Deployment, avail []int) []int {
	all := make([]int, len(dep.Antennas))
	for i := range all {
		all[i] = i
	}
	chosen := map[int]bool{}
	var out []int
	for _, a := range avail {
		best, bestP := -1, math.Inf(-1)
		for j := 0; j < m.NumClients(); j++ {
			if chosen[j] {
				continue
			}
			if !tagsContain(m, j, all, a) {
				continue
			}
			if p := m.MeanRxPower(j, a); p > bestP {
				best, bestP = j, p
			}
		}
		if best >= 0 {
			chosen[best] = true
			out = append(out, best)
		}
	}
	// Degenerate topologies can tag nobody to the available antennas;
	// fall back to strongest clients so a 2-stream transmission happens,
	// as the real AP would (untagged eligibility is the CAS behaviour).
	for len(out) < len(avail) {
		best, bestP := -1, math.Inf(-1)
		for j := 0; j < m.NumClients(); j++ {
			if chosen[j] {
				continue
			}
			for _, a := range avail {
				if p := m.MeanRxPower(j, a); p > bestP {
					best, bestP = j, p
				}
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		out = append(out, best)
	}
	return out
}

// tagsContain reports whether antenna `a` is among client j's top-2
// antennas by mean RSSI.
func tagsContain(m *channel.Model, client int, antennas []int, a int) bool {
	best, second := -1, -1
	var bestP, secondP float64 = math.Inf(-1), math.Inf(-1)
	for _, k := range antennas {
		p := m.MeanRxPower(client, k)
		switch {
		case p > bestP:
			second, secondP = best, bestP
			best, bestP = k, p
		case p > secondP:
			second, secondP = k, p
		}
	}
	return a == best || a == second
}

func randomPair(src *rng.Source, n int) []int {
	perm := src.Split("randpair").Perm(n)
	return []int{perm[0], perm[1]}
}

// SummarizeGain returns the median capacities of two samples and the
// fractional median gain of b over a.
func SummarizeGain(a, b *stats.Sample) (medA, medB, gain float64) {
	medA = a.MustMedian()
	medB = b.MustMedian()
	if medA != 0 {
		gain = medB/medA - 1
	}
	return medA, medB, gain
}
