package sim

import (
	"math"
	"slices"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the MAC-layer experiments of §5.3: spatial reuse
// (Fig 12), deadzone maps (Fig 13 / §5.3.3) and hidden-terminal counting
// (§5.3.4). These are static geometric computations over topologies,
// exactly like the paper's measurement methodology.

// senses reports whether a receiver at rx detects a transmitter at tx
// (single antenna, full power) at the default carrier-sense threshold.
func senses(b channel.Budget, tx, rx geom.Point) bool {
	return b.Power(tx, rx) >= stats.Milliwatt(mac.DefaultCSThresholdDBm)
}

// sensesAny reports whether rx detects any of the transmitters.
func sensesAny(b channel.Budget, txs []geom.Point, rx geom.Point) bool {
	for _, tx := range txs {
		if senses(b, tx, rx) {
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

// Fig12SpatialReuse is one topology of Figure 12: three overhearing
// APs; random transmissions are enabled at AP A, then the antennas of AP
// B that still sense an idle medium are enabled, then AP C's (§5.3.1).
// The same procedure at AP granularity gives the CAS count; the paper
// plots the CDF of MIDAS/CAS. Only o.Env is read; the zero value
// reproduces the paper run.
func Fig12SpatialReuse(o Opts, t int, root *rng.Source) Fig12Result {
	env := o.Env
	p := env.Params(channel.Default())
	src := root.SplitN("fig12", t)
	cfg := env.Topology(topology.DefaultConfig(topology.DAS))
	dep := topology.ThreeAPTestbed(cfg, src.Split("topo"))
	// §5.3.1 premise: the three APs overhear each other; choose a
	// floor plan satisfying it.
	b := channel.Budget{P: p}
	for i := 0; i < 64; i++ {
		b.Field = p.NewField(rng.SplitNSeed(src.Seed(), "field", i))
		if allPairsOverhear(dep, b) {
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
			if !sensesAny(b, active, pos) {
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
		if !sensesAny(b, casActive, dep.APs[ap]) {
			casActive = append(casActive, dep.APs[ap])
			cas += 4
		}
	}
	return Fig12Result{
		MIDASStreams: midas,
		CASStreams:   cas,
		Ratio:        float64(midas) / float64(cas),
	}
}

// DeadzoneResult is one deployment's coverage tally.
type DeadzoneResult struct {
	CASDeadspots int
	DASDeadspots int
	Spots        int
	// CASMap and DASMap are the sampled boolean deadzone grids (true =
	// dead), row-major with MapCols columns — Fig 13's map. Only
	// deployment 0 records them.
	CASMap, DASMap []bool
	MapCols        int
}

// minServiceSNRdB is the SNR below which a spot counts as dead (cannot
// sustain the lowest MCS with margin).
const minServiceSNRdB = 4.0

// Fig13Deadzones is one deployment of Figure 13 / §5.3.3: a 0.5 m
// measurement grid over the coverage area; a spot is dead when no AP
// antenna delivers a usable mean SNR. The figure averages over random
// DAS layouts (the CAS layout is fixed, as in the paper). Only o.Env is
// read; the zero value keeps the paper's channel and topology defaults.
func Fig13Deadzones(o Opts, d int, root *rng.Source) DeadzoneResult {
	env := o.Env
	p := env.Params(channel.Default())
	src := root.SplitN("fig13", d)
	var out DeadzoneResult
	casDep := topology.SingleAP(env.Topology(topology.DefaultConfig(topology.CAS)), src.Split("cas"))
	dasDep := topology.SingleAP(env.Topology(topology.DefaultConfig(topology.DAS)), src.Split("das"))
	b := channel.Budget{P: p, Field: p.NewField(rng.SplitSeed(src.Seed(), "field"))}
	r := env.Topology(topology.DefaultConfig(topology.CAS)).CoverageRadius
	rect := geom.NewRect(-r, -r, r, r)
	geom.Grid(rect, 0.5, func(pt geom.Point) {
		if pt.Dist(geom.Pt(0, 0)) > r {
			return
		}
		out.Spots++
		casDead := deadAt(b, casDep, pt)
		dasDead := deadAt(b, dasDep, pt)
		if casDead {
			out.CASDeadspots++
		}
		if dasDead {
			out.DASDeadspots++
		}
		if d == 0 {
			out.CASMap = append(out.CASMap, casDead)
			out.DASMap = append(out.DASMap, dasDead)
		}
	})
	if d == 0 {
		out.MapCols = int(math.Floor(2*r/0.5)) + 1
	}
	return out
}

// deadAt reports whether no antenna of the deployment delivers the
// minimum service SNR at pt (mean link budget through the walls).
func deadAt(b channel.Budget, dep *topology.Deployment, pt geom.Point) bool {
	noise := b.P.NoiseLinear()
	for _, a := range dep.Antennas {
		if stats.DB(b.Power(a.Pos, pt)/noise) >= minServiceSNRdB {
			return false
		}
	}
	return true
}

// HiddenTerminalResult is one deployment's §5.3.4 tally.
type HiddenTerminalResult struct {
	CASSpots, DASSpots, Spots int
}

// HiddenTerminals is one deployment of §5.3.4: two APs placed so they
// cannot (reliably) overhear each other; a 1 m grid spot is a
// hidden-terminal spot when both APs' transmissions reach it at
// decodable strength while the two transmitters cannot sense one
// another. DAS antennas are distributed at 50–75% of the CAS
// transmission range (§5.3.4), which both widens each AP's sensing
// footprint and evens out the delivered power — the two effects the
// paper credits for the reduction. Only o.Env is read; the zero value
// keeps the paper's channel and topology defaults.
func HiddenTerminals(o Opts, d int, root *rng.Source) HiddenTerminalResult {
	env := o.Env
	p := env.Params(channel.Default())
	const decodeDBm = -82.0 // conflict-relevant power, not payload decode
	src := root.SplitN("ht", d)
	var out HiddenTerminalResult
	cfg := env.Topology(topology.DefaultConfig(topology.DAS))
	cfg.DASInnerFrac = 0.5
	cfg.DASOuterFrac = 0.75
	apDist := 20.0 // near enough for the both-reach midzone to exist
	aps := []geom.Point{geom.Pt(0, 0), geom.Pt(apDist, 0)}
	casDep := topology.MultiAP(env.Topology(topology.DefaultConfig(topology.CAS)), aps, src.Split("cas"))
	dasDep := topology.MultiAP(cfg, aps, src.Split("das"))
	// §5.3.4 premise: the APs cannot overhear each other; choose a
	// floor plan satisfying it.
	b := channel.Budget{P: p}
	for i := 0; i < 64; i++ {
		b.Field = p.NewField(rng.SplitNSeed(src.Seed(), "field", i))
		if !senses(b, aps[0], aps[1]) {
			break
		}
	}

	casDeaf, dasDeaf := deafAntennas(b, casDep), deafAntennas(b, dasDep)
	rect := geom.NewRect(-10, -15, apDist+10, 15)
	geom.Grid(rect, 1.0, func(pt geom.Point) {
		out.Spots++
		if hiddenAt(b, casDep, casDeaf, pt, decodeDBm) {
			out.CASSpots++
		}
		if hiddenAt(b, dasDep, dasDeaf, pt, decodeDBm) {
			out.DASSpots++
		}
	})
	return out
}

// deafAntennas reports, per antenna of the two-AP deployment, whether it
// senses no antenna of the other AP: an MU transmission radiates from
// all of an AP's engaged antennas, so a serving antenna defers if it
// senses any of them — the "larger sensed region" the paper credits
// (§5.3.4).
func deafAntennas(b channel.Budget, dep *topology.Deployment) []bool {
	deaf := make([]bool, len(dep.Antennas))
	for i, a := range dep.Antennas {
		deaf[i] = !slices.ContainsFunc(dep.Antennas, func(o channel.Antenna) bool { return o.AP != a.AP && senses(b, o.Pos, a.Pos) })
	}
	return deaf
}

// hiddenAt reports whether pt is a hidden-terminal spot for the two-AP
// deployment: the strongest serving antenna of each AP reaches pt at
// decodable power, yet neither senses the other AP (deaf, from
// deafAntennas).
func hiddenAt(b channel.Budget, dep *topology.Deployment, deaf []bool, pt geom.Point, decodeDBm float64) bool {
	best := [2]int{-1, -1}
	bestP := [2]float64{math.Inf(-1), math.Inf(-1)}
	for i, a := range dep.Antennas {
		pw := stats.DBm(b.Power(a.Pos, pt))
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
	return deaf[best[0]] && deaf[best[1]]
}
