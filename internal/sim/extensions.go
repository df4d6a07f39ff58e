package sim

import (
	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Extension studies beyond the paper's evaluation: the §7 discussion
// items, quantified. These back the root package's Benchmark* ablations
// and the ext-beamforming and ext-placement scenarios.

// BeamformingResult compares full-array and localized single-user
// beamforming (§7 "Beamforming").
type BeamformingResult struct {
	// SNRFull / SNRLocal are client SNR samples (dB).
	SNRFull, SNRLocal *stats.Sample
	// SilencedFull / SilencedLocal are the fractions of the coverage
	// area where the AP's transmission raises the medium above the
	// carrier-sense threshold — the spatial reuse each variant denies to
	// neighbouring APs.
	SilencedFull, SilencedLocal *stats.Sample
}

// BeamformingStudy quantifies §7's recommendation: when an AP beamforms
// to a single client, using only the antennas in the client's
// neighbourhood sacrifices little SNR while silencing a much smaller
// area. windowDB is the neighbourhood window (12 dB default in the
// paper's spirit of "antennas in the neighbourhood of the client").
func BeamformingStudy(topos int, windowDB float64, seed int64, parallel int) *BeamformingResult {
	p := channel.Default()
	csThreshold := stats.Milliwatt(-82)
	type beamTask struct {
		ok                       bool // false: degenerate topology, skipped
		snrFull, snrLocal        float64
		silencedFull, silencedLo float64
	}
	tasks := sweep(topos, seed, "beamform", parallel, func(t int, src *rng.Source) beamTask {
		cfg := topology.DefaultConfig(topology.DAS)
		cfg.ClientsPerAP = 1
		dep := topology.SingleAP(cfg, src.Split("topo"))
		m := dep.Model(p, src.Split("chan"))
		h := m.Matrix(nil, nil).Row(0)

		full, err := precoding.EGT(h, p.TxPowerLinear())
		if err != nil {
			return beamTask{}
		}
		local, idx, err := precoding.LocalizedEGT(h, p.TxPowerLinear(), windowDB)
		if err != nil {
			return beamTask{}
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
		return beamTask{
			ok:           true,
			snrFull:      stats.DB(precoding.BeamformSNR(h, full, p.NoiseLinear())),
			snrLocal:     stats.DB(precoding.BeamformSNR(h, local, p.NoiseLinear())),
			silencedFull: silencedFraction(p, field, allAntennas, cfg.CoverageRadius, csThreshold),
			silencedLo:   silencedFraction(p, field, localAntennas, cfg.CoverageRadius, csThreshold),
		}
	})
	res := &BeamformingResult{
		SNRFull: stats.NewSample(), SNRLocal: stats.NewSample(),
		SilencedFull: stats.NewSample(), SilencedLocal: stats.NewSample(),
	}
	for _, t := range tasks {
		if !t.ok {
			continue
		}
		res.SNRFull.Add(t.snrFull)
		res.SNRLocal.Add(t.snrLocal)
		res.SilencedFull.Add(t.silencedFull)
		res.SilencedLocal.Add(t.silencedLo)
	}
	return res
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

// PlacementResult carries both metrics of the placement study: the
// coverage objective the optimiser targets (5 %-quantile of best-antenna
// SNR over the area, in dB) and the 4×4 MU-MIMO capacity for the matched
// random clients. Optimisation reliably improves the former; the latter
// depends on where the particular clients landed.
type PlacementResult struct {
	RandomCoverage, OptimizedCoverage *stats.Sample // dB
	RandomCapacity, OptimizedCapacity *stats.Sample // bit/s/Hz
}

// PlacementStudy compares random DAS antenna placement against the
// coverage-optimised placement of internal/topology (§7's open problem),
// on matched clients and floor plans.
func PlacementStudy(topos, candidates int, seed int64, parallel int) (*PlacementResult, error) {
	p := channel.Default()
	// [randCoverage, randCapacity, optCoverage, optCapacity] per topology.
	perAntenna, noise := p.TxPowerLinear(), p.NoiseLinear()
	vals, err := sweepErr(topos, seed, "placement", parallel, func(t int, src *rng.Source) ([4]float64, error) {
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
	})
	if err != nil {
		return nil, err
	}
	res := &PlacementResult{
		RandomCoverage: stats.NewSample(), OptimizedCoverage: stats.NewSample(),
		RandomCapacity: stats.NewSample(), OptimizedCapacity: stats.NewSample(),
	}
	for _, v := range vals {
		res.RandomCoverage.Add(v[0])
		res.RandomCapacity.Add(v[1])
		res.OptimizedCoverage.Add(v[2])
		res.OptimizedCapacity.Add(v[3])
	}
	return res, nil
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
