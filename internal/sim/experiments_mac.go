package sim

import (
	"math"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the MAC-layer experiments of §5.3: spatial reuse
// (Fig 12), deadzone maps (Fig 13 / §5.3.3) and hidden-terminal counting
// (§5.3.4). These are static geometric computations over topologies,
// exactly like the paper's measurement methodology.

// senses reports whether a receiver at rx detects a transmitter at tx
// (single antenna, full power) through the obstruction field.
func senses(p channel.Params, f *channel.ShadowField, tx, rx geom.Point, thresholdDBm float64) bool {
	pw := p.PowerAtPoint(tx, rx, p.TxPowerDBm) * f.Shadow(tx, rx)
	return pw >= stats.Milliwatt(thresholdDBm)
}

// sensesAny reports whether rx detects any of the transmitters.
func sensesAny(p channel.Params, f *channel.ShadowField, txs []geom.Point, rx geom.Point, thresholdDBm float64) bool {
	for _, tx := range txs {
		if senses(p, f, tx, rx, thresholdDBm) {
			return true
		}
	}
	return false
}

// Fig12Result is one topology's simultaneous-transmission count.
type Fig12Result struct {
	MIDASStreams int
	CASStreams   int
	Ratio        float64
}

// Fig12SpatialReuse reproduces Figure 12: three overhearing APs; random
// transmissions are enabled at AP A, then the antennas of AP B that still
// sense an idle medium are enabled, then AP C's (§5.3.1). The same
// procedure at AP granularity gives the CAS count. Returns per-topology
// results; the paper plots the CDF of MIDAS/CAS. The zero env and
// parallel reproduce the paper run.
func Fig12SpatialReuse(topos int, seed int64, env EnvOverrides, parallel int) []Fig12Result {
	p := env.Params(channel.Default())
	csDBm := -82.0
	return sweep(topos, seed, "fig12", parallel, func(t int, src *rng.Source) Fig12Result {
		cfg := env.Topology(topology.DefaultConfig(topology.DAS))
		dep := topology.ThreeAPTestbed(cfg, src.Split("topo"))
		// §5.3.1 premise: the three APs overhear each other; choose a
		// floor plan satisfying it.
		var f *channel.ShadowField
		for i := 0; i < 64; i++ {
			f = p.NewField(rng.SplitNSeed(src.Seed(), "field", i))
			if allPairsOverhear(dep, p, f) {
				break
			}
		}

		// MIDAS: antenna granularity.
		nA := 1 + src.Intn(4)
		perm := src.Perm(4)
		var active []geom.Point
		ants0 := dep.AntennasOf(0)
		for i := 0; i < nA; i++ {
			active = append(active, dep.Antennas[ants0[perm[i]]].Pos)
		}
		midas := nA
		for _, ap := range []int{1, 2} {
			var enabled []geom.Point
			for _, k := range dep.AntennasOf(ap) {
				pos := dep.Antennas[k].Pos
				if !sensesAny(p, f, active, pos, csDBm) {
					enabled = append(enabled, pos)
					midas++
				}
			}
			active = append(active, enabled...)
		}

		// CAS: AP granularity — an AP transmits all four streams or none.
		casActive := []geom.Point{dep.APs[0]}
		cas := 4
		for _, ap := range []int{1, 2} {
			if !sensesAny(p, f, casActive, dep.APs[ap], csDBm) {
				casActive = append(casActive, dep.APs[ap])
				cas += 4
			}
		}
		return Fig12Result{
			MIDASStreams: midas,
			CASStreams:   cas,
			Ratio:        float64(midas) / float64(cas),
		}
	})
}

// DeadzoneResult summarises one deployment's coverage map.
type DeadzoneResult struct {
	CASDeadspots int
	DASDeadspots int
	Spots        int
	// Map is a sampled boolean deadzone grid (true = dead) for one
	// deployment, row-major with MapCols columns — Fig 13's map.
	CASMap, DASMap []bool
	MapCols        int
}

// minServiceSNRdB is the SNR below which a spot counts as dead (cannot
// sustain the lowest MCS with margin).
const minServiceSNRdB = 4.0

// Fig13Deadzones reproduces Figure 13 / §5.3.3: a 0.5 m measurement grid
// over the coverage area; a spot is dead when no AP antenna delivers a
// usable mean SNR. Averages over `deployments` random DAS layouts (the
// CAS layout is fixed, as in the paper). env adjusts the channel and
// topology defaults; the zero value keeps the paper's.
func Fig13Deadzones(deployments int, seed int64, env EnvOverrides, parallel int) DeadzoneResult {
	p := env.Params(channel.Default())
	// deadzoneTask is one deployment's tally; the example maps are kept
	// only for deployment 0, as before.
	type deadzoneTask struct {
		casDead, dasDead, spots int
		casMap, dasMap          []bool
		cols                    int
	}
	tasks := sweep(deployments, seed, "fig13", parallel, func(d int, src *rng.Source) deadzoneTask {
		var out deadzoneTask
		casDep := topology.SingleAP(env.Topology(topology.DefaultConfig(topology.CAS)), src.Split("cas"))
		dasDep := topology.SingleAP(env.Topology(topology.DefaultConfig(topology.DAS)), src.Split("das"))
		f := p.NewField(rng.SplitSeed(src.Seed(), "field"))
		r := env.Topology(topology.DefaultConfig(topology.CAS)).CoverageRadius
		rect := geom.NewRect(-r, -r, r, r)
		geom.Grid(rect, 0.5, func(pt geom.Point) {
			if pt.Dist(geom.Pt(0, 0)) > r {
				return
			}
			out.spots++
			casDead := deadAt(p, f, casDep, pt)
			dasDead := deadAt(p, f, dasDep, pt)
			if casDead {
				out.casDead++
			}
			if dasDead {
				out.dasDead++
			}
			if d == 0 {
				out.casMap = append(out.casMap, casDead)
				out.dasMap = append(out.dasMap, dasDead)
			}
		})
		if d == 0 {
			out.cols = int(math.Floor(2*r/0.5)) + 1
		}
		return out
	})
	var res DeadzoneResult
	for d, t := range tasks {
		res.CASDeadspots += t.casDead
		res.DASDeadspots += t.dasDead
		res.Spots += t.spots
		if d == 0 {
			res.CASMap, res.DASMap, res.MapCols = t.casMap, t.dasMap, t.cols
		}
	}
	return res
}

// deadAt reports whether no antenna of the deployment delivers the
// minimum service SNR at pt (mean link budget through the walls).
func deadAt(p channel.Params, f *channel.ShadowField, dep *topology.Deployment, pt geom.Point) bool {
	noise := p.NoiseLinear()
	for _, a := range dep.Antennas {
		pw := p.PowerAtPoint(a.Pos, pt, p.TxPowerDBm) * f.Shadow(a.Pos, pt)
		if stats.DB(pw/noise) >= minServiceSNRdB {
			return false
		}
	}
	return true
}

// HiddenTerminalResult summarises §5.3.4's measurement.
type HiddenTerminalResult struct {
	CASSpots, DASSpots, Spots int
}

// HiddenTerminals reproduces §5.3.4: two APs placed so they cannot
// (reliably) overhear each other; a 1 m grid spot is a hidden-terminal
// spot when both APs' transmissions reach it at decodable strength while
// the two transmitters cannot sense one another. DAS antennas are
// distributed at 50–75% of the CAS transmission range (§5.3.4), which
// both widens each AP's sensing footprint and evens out the delivered
// power — the two effects the paper credits for the reduction. env
// adjusts the channel and topology defaults; the zero value keeps the
// paper's.
func HiddenTerminals(deployments int, seed int64, env EnvOverrides, parallel int) HiddenTerminalResult {
	p := env.Params(channel.Default())
	const csDBm = -82.0
	const decodeDBm = -82.0 // conflict-relevant power, not payload decode
	type htTask struct{ cas, das, spots int }
	tasks := sweep(deployments, seed, "ht", parallel, func(d int, src *rng.Source) htTask {
		var out htTask
		cfg := env.Topology(topology.DefaultConfig(topology.DAS))
		cfg.DASInnerFrac = 0.5
		cfg.DASOuterFrac = 0.75
		apDist := 20.0 // near enough for the both-reach midzone to exist
		aps := []geom.Point{geom.Pt(0, 0), geom.Pt(apDist, 0)}
		casDep := topology.MultiAP(env.Topology(topology.DefaultConfig(topology.CAS)), aps, src.Split("cas"))
		dasDep := topology.MultiAP(cfg, aps, src.Split("das"))
		// §5.3.4 premise: the APs cannot overhear each other; choose a
		// floor plan satisfying it.
		var f *channel.ShadowField
		for i := 0; i < 64; i++ {
			f = p.NewField(rng.SplitNSeed(src.Seed(), "field", i))
			if !senses(p, f, aps[0], aps[1], csDBm) {
				break
			}
		}

		rect := geom.NewRect(-10, -15, apDist+10, 15)
		geom.Grid(rect, 1.0, func(pt geom.Point) {
			out.spots++
			if hiddenAt(p, f, casDep, pt, csDBm, decodeDBm) {
				out.cas++
			}
			if hiddenAt(p, f, dasDep, pt, csDBm, decodeDBm) {
				out.das++
			}
		})
		return out
	})
	var res HiddenTerminalResult
	for _, t := range tasks {
		res.CASSpots += t.cas
		res.DASSpots += t.das
		res.Spots += t.spots
	}
	return res
}

// hiddenAt reports whether pt is a hidden-terminal spot for the two-AP
// deployment: the strongest serving antenna of each AP reaches pt at
// decodable power, yet those two antennas cannot sense each other.
func hiddenAt(p channel.Params, f *channel.ShadowField, dep *topology.Deployment, pt geom.Point, csDBm, decodeDBm float64) bool {
	best := [2]int{-1, -1}
	bestP := [2]float64{math.Inf(-1), math.Inf(-1)}
	for i, a := range dep.Antennas {
		pw := stats.DBm(p.PowerAtPoint(a.Pos, pt, p.TxPowerDBm) * f.Shadow(a.Pos, pt))
		if pw > bestP[a.AP] {
			bestP[a.AP] = pw
			best[a.AP] = i
		}
	}
	if best[0] < 0 || best[1] < 0 {
		return false
	}
	if bestP[0] < decodeDBm || bestP[1] < decodeDBm {
		return false // at most one transmitter matters here
	}
	// An MU transmission radiates from all of an AP's engaged antennas,
	// so the serving antenna of one AP defers if it senses any antenna of
	// the other — the "larger sensed region" the paper credits (§5.3.4).
	a0 := dep.Antennas[best[0]].Pos
	a1 := dep.Antennas[best[1]].Pos
	var ap0, ap1 []geom.Point
	for _, a := range dep.Antennas {
		if a.AP == 0 {
			ap0 = append(ap0, a.Pos)
		} else {
			ap1 = append(ap1, a.Pos)
		}
	}
	return !sensesAny(p, f, ap1, a0, csDBm) && !sensesAny(p, f, ap0, a1, csDBm)
}
