package topology

import (
	"math"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Antenna-placement optimisation — the problem the paper leaves open in
// §7 ("We leave the problem of optimizing placement of antennas open for
// future work"). The optimiser treats placement as a coverage max-min
// problem: choose antenna positions from the allowed annulus so the worst
// measurement spot's best-antenna SNR is maximised, greedily (a k-center
// style heuristic), while honouring the same deployment rules the random
// generator enforces (sector rule, minimum separation, region bounds).

// PlacementObjective evaluates a candidate antenna set: the metric is the
// q-quantile of best-antenna mean SNR over the sample spots (q = 0 gives
// pure max-min; the default 0.05 ignores hopeless corners).
type PlacementObjective struct {
	Budget   channel.Budget
	Spots    []geom.Point
	Quantile float64
}

// CoverageObjective is the objective the placement study optimises: the
// 5 %-quantile of best-antenna SNR over a 2 m grid of the radius-r
// coverage disc.
func CoverageObjective(b channel.Budget, r float64) *PlacementObjective {
	return &PlacementObjective{Budget: b, Spots: coverageSpots(r, 2.0), Quantile: 0.05}
}

// Score returns the objective value for the antenna positions.
func (o *PlacementObjective) Score(antennas []geom.Point) float64 {
	return o.quantile(o.raise(nil, antennas...))
}

// raise returns each spot's best-antenna mean SNR (dB) over the antennas
// and the column from, which holds each spot's best so far; nil starts
// every spot at −Inf. max is exact, so raising a column one antenna at a
// time gives the same values as scoring the whole set.
func (o *PlacementObjective) raise(from []float64, antennas ...geom.Point) []float64 {
	noise := o.Budget.P.NoiseLinear()
	col := make([]float64, len(o.Spots))
	for i, s := range o.Spots {
		best := math.Inf(-1)
		if from != nil {
			best = from[i]
		}
		for _, a := range antennas {
			if snr := stats.DB(o.Budget.Power(a, s) / noise); snr > best {
				best = snr
			}
		}
		col[i] = best
	}
	return col
}

// quantile returns the objective's quantile of a best-SNR column, or
// −Inf for no spots.
func (o *PlacementObjective) quantile(col []float64) float64 {
	q := o.Quantile
	if q <= 0 {
		q = 0.05
	}
	v, err := stats.NewSample(col...).Quantile(q)
	if err != nil {
		return math.Inf(-1)
	}
	return v
}

// OptimizePlacement greedily selects cfg.AntennasPerAP antenna positions
// for an AP at apPos from `candidates` random draws per slot, maximising
// the objective subject to the deployment rules. It returns the chosen
// positions (strongest configuration found).
func OptimizePlacement(cfg Config, apPos geom.Point, obj *PlacementObjective, candidates int, src *rng.Source) []geom.Point {
	inner := cfg.DASInnerFrac * cfg.CoverageRadius
	outer := cfg.DASOuterFrac * cfg.CoverageRadius
	sector := cfg.SectorRuleDeg * math.Pi / 180
	valid := func(cand geom.Point, placed []geom.Point) bool {
		if cfg.Region != nil && !cfg.Region.Contains(cand) {
			return false
		}
		for _, p := range placed {
			if sector > 0 && geom.WithinSector(apPos, cand, p, sector) {
				return false
			}
			if cfg.MinAntennaSep > 0 && p.Dist(cand) < cfg.MinAntennaSep {
				return false
			}
		}
		return true
	}
	var placed []geom.Point
	var col []float64 // each spot's best SNR over placed; nil is −Inf
	for slot := 0; slot < cfg.AntennasPerAP; slot++ {
		bestScore := math.Inf(-1)
		var best geom.Point
		found := false
		for c := 0; c < candidates; c++ {
			x, y := src.PointInAnnulus(inner, outer)
			cand := geom.Pt(apPos.X+x, apPos.Y+y)
			if !valid(cand, placed) {
				continue
			}
			score := obj.quantile(obj.raise(col, cand))
			if score > bestScore {
				bestScore, best, found = score, cand, true
			}
		}
		if !found {
			// Constraints too tight for this slot; fall back to any
			// annulus point so the deployment stays complete.
			x, y := src.PointInAnnulus(inner, outer)
			best = geom.Pt(apPos.X+x, apPos.Y+y)
		}
		placed = append(placed, best)
		col = obj.raise(col, best)
	}
	return placed
}

// OptimizedSingleAP builds a single-AP DAS deployment whose antennas are
// placement-optimised for the objective, with clients placed exactly as
// SingleAP would place them (so random-vs-optimised comparisons are
// client-matched).
func OptimizedSingleAP(cfg Config, obj *PlacementObjective, candidates int, src *rng.Source) *Deployment {
	d := SingleAP(cfg, src) // gives antennas (replaced below) and clients
	pos := OptimizePlacement(cfg, d.APs[0], obj, candidates, src.Split("optimize"))
	best, bestScore := pos, obj.Score(pos)
	// Multi-start: greedy can get trapped by its first slots, so also
	// score a handful of random valid layouts and keep the winner.
	restarts := src.Split("restarts")
	for r := 0; r < 8; r++ {
		alt := SingleAP(cfg, restarts.SplitN("alt", r))
		altPos := make([]geom.Point, 0, len(alt.Antennas))
		for _, a := range alt.Antennas {
			altPos = append(altPos, a.Pos)
		}
		if s := obj.Score(altPos); s > bestScore {
			best, bestScore = altPos, s
		}
	}
	for i := range d.Antennas {
		d.Antennas[i].Pos = best[i]
	}
	return d
}

// coverageSpots samples the coverage disc on a grid for the objective.
func coverageSpots(radius, spacing float64) []geom.Point {
	var spots []geom.Point
	geom.Grid(geom.NewRect(-radius, -radius, radius, radius), spacing, func(p geom.Point) {
		if p.Norm() <= radius {
			spots = append(spots, p)
		}
	})
	return spots
}
