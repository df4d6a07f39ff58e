package sim

import (
	"math"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Extension studies beyond the paper's evaluation: the §7 discussion
// items, quantified, behind the ext-beamforming and ext-placement
// scenarios.

// BeamformingStudy is one topology of §7's recommendation: when an AP
// beamforms to a single client, using only the antennas in the client's
// neighbourhood sacrifices little SNR while silencing a much smaller
// area. windowDB is the neighbourhood window (12 dB default in the
// paper's spirit of "antennas in the neighbourhood of the client"). It
// returns [full-array SNR, localized SNR] (dB) and the fractions of the
// coverage area where each variant's transmission raises the medium
// above the carrier-sense threshold — the spatial reuse it denies to
// neighbouring APs — as [.., .., silenced full, silenced localized]. A
// degenerate topology, where beamforming has no solution, is all NaN.
func BeamformingStudy(windowDB float64, t int, root *rng.Source) [4]float64 {
	p := channel.Default()
	csThreshold := stats.Milliwatt(-82)
	nan := math.NaN()
	skip := [4]float64{nan, nan, nan, nan}
	src := root.SplitN("beamform", t)
	cfg := topology.DefaultConfig(topology.DAS)
	cfg.ClientsPerAP = 1
	dep := topology.SingleAP(cfg, src.Split("topo"))
	m := dep.Model(p, src.Split("chan"))
	h := m.Matrix(nil, nil).Row(0)

	full, err := precoding.EGT(h, p.TxPowerLinear())
	if err != nil {
		return skip
	}
	local, idx, err := precoding.LocalizedEGT(h, p.TxPowerLinear(), windowDB)
	if err != nil {
		return skip
	}

	// Silenced area: sample the coverage disc; a spot is silenced
	// when the sum of the active antennas' powers crosses CS.
	field := m.Field()
	allAntennas := make([]geom.Point, len(dep.Antennas))
	for i, a := range dep.Antennas {
		allAntennas[i] = a.Pos
	}
	localAntennas := make([]geom.Point, 0, len(idx))
	for _, k := range idx {
		localAntennas = append(localAntennas, dep.Antennas[k].Pos)
	}
	return [4]float64{
		stats.DB(precoding.BeamformSNR(h, full, p.NoiseLinear())),
		stats.DB(precoding.BeamformSNR(h, local, p.NoiseLinear())),
		silencedFraction(p, field, allAntennas, cfg.CoverageRadius, csThreshold),
		silencedFraction(p, field, localAntennas, cfg.CoverageRadius, csThreshold),
	}
}

// silencedFraction returns the fraction of a radius-r disc (sampled on a
// 2 m grid) where the transmitting antennas' aggregate power is at or
// above the threshold.
func silencedFraction(p channel.Params, f *channel.ShadowField, antennas []geom.Point, r float64, threshold float64) float64 {
	total, busy := 0, 0
	geom.Grid(geom.NewRect(-1.5*r, -1.5*r, 1.5*r, 1.5*r), 2.0, func(pt geom.Point) {
		total++
		sum := 0.0
		for _, a := range antennas {
			sum += p.PowerAtPoint(a, pt, p.TxPowerDBm) * f.Shadow(a, pt)
		}
		if sum >= threshold {
			busy++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// PlacementStudy is one topology of the placement study: random DAS
// antenna placement against the coverage-optimised placement of
// internal/topology (§7's open problem), on matched clients and floor
// plans. candidates bounds the optimiser's search. It returns [random
// coverage, random capacity, optimized coverage, optimized capacity]:
// the coverage objective the optimiser targets (5 %-quantile of
// best-antenna SNR over the area, in dB) and the 4×4 MU-MIMO capacity
// for the matched random clients (bit/s/Hz). Optimisation reliably
// improves the former; the latter depends on where the particular
// clients landed.
func PlacementStudy(candidates, t int, root *rng.Source) ([4]float64, error) {
	p := channel.Default()
	perAntenna, noise := p.TxPowerLinear(), p.NoiseLinear()
	src := root.SplitN("placement", t)
	sv := getSolver()
	defer putSolver(sv)
	var out [4]float64
	cfg := topology.DefaultConfig(topology.DAS)
	fieldSeed := rng.SplitSeed(rng.SplitSeed(src.Seed(), "chan"), "shadow")
	obj := &topology.PlacementObjective{
		Params: p, Field: p.NewField(fieldSeed),
		Spots: coverageGrid(cfg.CoverageRadius), Quantile: 0.05,
	}

	randDep := topology.SingleAP(cfg, src.Split("topo"))
	optDep := topology.OptimizedSingleAP(cfg, p, fieldSeed, candidates, src.Split("topo"))

	for di, dep := range []*topology.Deployment{randDep, optDep} {
		pos := make([]geom.Point, len(dep.Antennas))
		for i, a := range dep.Antennas {
			pos[i] = a.Pos
		}
		score := obj.Score(pos)
		m := dep.Model(p, src.Split("chan"))
		prob := precoding.Problem{
			H:               m.Matrix(nil, nil),
			PerAntennaPower: perAntenna,
			Noise:           noise,
		}
		bal, _, err := sv.PowerBalanced(prob)
		if err != nil {
			return out, err
		}
		out[2*di] = score
		out[2*di+1] = sv.SumRate(prob.H, bal, prob.Noise)
	}
	return out, nil
}

// coverageGrid samples the coverage disc for the placement objective.
func coverageGrid(radius float64) []geom.Point {
	var spots []geom.Point
	geom.Grid(geom.NewRect(-radius, -radius, radius, radius), 2.0, func(p geom.Point) {
		if p.Norm() <= radius {
			spots = append(spots, p)
		}
	})
	return spots
}
