// Package topology generates the AP/antenna/client deployments evaluated in
// the MIDAS paper: co-located antenna systems (CAS) with half-wavelength
// arrays, distributed antenna systems (DAS) with antennas cabled 5–10 m
// from the AP, the 3-AP testbed (§5.4) and the 8-AP 60×60 m large-scale
// layout (§5.5), including the paper's placement constraints (60° sector
// rule, ≥5 m antenna separation, coverage containment).
package topology

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/rng"
)

// Mode distinguishes co-located from distributed antenna deployments.
type Mode int

const (
	// CAS co-locates all of an AP's antennas within half a wavelength.
	CAS Mode = iota
	// DAS distributes an AP's antennas over RF cable around the AP.
	DAS
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CAS:
		return "CAS"
	case DAS:
		return "DAS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// HalfWavelength is the CAS antenna spacing in metres at 5.24 GHz.
const HalfWavelength = 0.0286

// Config holds deployment generation parameters. The defaults mirror §5.1
// and §7 of the paper.
type Config struct {
	Mode            Mode
	AntennasPerAP   int
	ClientsPerAP    int
	CoverageRadius  float64 // nominal AP coverage range, metres
	DASInnerFrac    float64 // DAS antenna distance band, fraction of coverage
	DASOuterFrac    float64
	SectorRuleDeg   float64 // min angular separation of same-AP antennas (0 = off)
	MinAntennaSep   float64 // min distance between any two antennas (0 = off)
	ClientMinDist   float64 // keep clients at least this far from any antenna
	PlacementTrials int     // rejection-sampling budget per element
	// Region, when non-nil, constrains every antenna and client position
	// (used by the large-scale deployment).
	Region *geom.Rect
}

// DefaultConfig returns a single-AP configuration matching the paper's
// testbed: 4 antennas, 4 clients, DAS antennas at 5–10 m (≈50–75% of a
// ~13 m coverage radius), 60° sector rule.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:            mode,
		AntennasPerAP:   4,
		ClientsPerAP:    4,
		CoverageRadius:  13,
		DASInnerFrac:    0.4,
		DASOuterFrac:    0.75,
		SectorRuleDeg:   60,
		MinAntennaSep:   0,
		ClientMinDist:   0.5,
		PlacementTrials: 400,
	}
}

// Deployment is a concrete placement of APs, antennas and clients.
type Deployment struct {
	Mode     Mode
	Cfg      Config
	APs      []geom.Point
	Antennas []channel.Antenna
	Clients  []geom.Point
	// ClientAP[j] is the AP a client associates with (nearest AP).
	ClientAP []int
}

// AntennasOf returns the global antenna indices belonging to AP ap, in
// Local order.
func (d *Deployment) AntennasOf(ap int) []int {
	var idx []int
	for i, a := range d.Antennas {
		if a.AP == ap {
			idx = append(idx, i)
		}
	}
	return idx
}

// ClientsOf returns the client indices associated with AP ap.
func (d *Deployment) ClientsOf(ap int) []int {
	var idx []int
	for j, a := range d.ClientAP {
		if a == ap {
			idx = append(idx, j)
		}
	}
	return idx
}

// NumAPs returns the number of APs.
func (d *Deployment) NumAPs() int { return len(d.APs) }

// Correlated reports whether the channel model should correlate fading
// within AP antenna groups (true for CAS arrays).
func (d *Deployment) Correlated() bool { return d.Mode == CAS }

// Model builds a channel model for this deployment, through the shadow
// field p.ModelField(src.Seed()).
func (d *Deployment) Model(p channel.Params, src *rng.Source) *channel.Model {
	return channel.NewModel(channel.Budget{P: p, Field: p.ModelField(src.Seed())}, d.Antennas, d.Clients, d.Correlated(), src)
}

// SingleAP generates a one-AP deployment at the origin with cfg.
func SingleAP(cfg Config, src *rng.Source) *Deployment {
	return MultiAP(cfg, []geom.Point{geom.Pt(0, 0)}, src)
}

// MultiAP generates a deployment with APs at the given positions, each
// with cfg.AntennasPerAP antennas and cfg.ClientsPerAP clients placed
// uniformly within its coverage disc. Clients associate with the nearest
// AP by geometry.
func MultiAP(cfg Config, aps []geom.Point, src *rng.Source) *Deployment {
	d := &Deployment{Mode: cfg.Mode, Cfg: cfg, APs: aps}
	antSrc := src.Split("antennas")
	cliSrc := src.Split("clients")
	for ap, pos := range aps {
		d.placeAntennas(ap, pos, antSrc.SplitN("ap", ap))
	}
	for ap, pos := range aps {
		s := cliSrc.SplitN("ap", ap)
		for c := 0; c < cfg.ClientsPerAP; c++ {
			d.Clients = append(d.Clients, d.placeClient(pos, s))
		}
	}
	d.associate()
	return d
}

// placeAntennas adds AP ap's antennas. CAS antennas form a λ/2-spaced
// linear array at the AP; DAS antennas are sampled in the configured
// annulus subject to the sector rule and minimum-separation constraints.
func (d *Deployment) placeAntennas(ap int, pos geom.Point, src *rng.Source) {
	cfg := d.Cfg
	if cfg.Mode == CAS {
		for i := 0; i < cfg.AntennasPerAP; i++ {
			d.Antennas = append(d.Antennas, channel.Antenna{
				Pos:   geom.Pt(pos.X+float64(i)*HalfWavelength, pos.Y),
				AP:    ap,
				Local: i,
			})
		}
		return
	}
	inner := cfg.DASInnerFrac * cfg.CoverageRadius
	outer := cfg.DASOuterFrac * cfg.CoverageRadius
	sector := cfg.SectorRuleDeg * math.Pi / 180
	var placed []geom.Point
	for i := 0; i < cfg.AntennasPerAP; i++ {
		ok := false
		var cand geom.Point
		for trial := 0; trial < max(1, cfg.PlacementTrials); trial++ {
			x, y := src.PointInAnnulus(inner, outer)
			cand = geom.Pt(pos.X+x, pos.Y+y)
			if d.antennaOK(pos, cand, placed, sector) {
				ok = true
				break
			}
		}
		if !ok {
			// Rejection budget exhausted: restart this AP on an
			// evenly-spaced ring, which satisfies the sector rule for
			// up to floor(2π/sector) antennas by construction. Try many
			// phases to also satisfy the cross-AP separation rule.
			d.Antennas = d.Antennas[:len(d.Antennas)-i]
			r := (inner + outer) / 2
			ring := func(phase float64) []geom.Point {
				pts := make([]geom.Point, cfg.AntennasPerAP)
				for q := range pts {
					theta := phase + 2*math.Pi*float64(q)/float64(cfg.AntennasPerAP)
					pts[q] = geom.Pt(pos.X+r*math.Cos(theta), pos.Y+r*math.Sin(theta))
				}
				return pts
			}
			var pts []geom.Point
			for attempt := 0; attempt < 64; attempt++ {
				pts = ring(src.Uniform(0, 2*math.Pi))
				valid := true
				for q, p := range pts {
					if !d.antennaOK(pos, p, pts[:q], 0) {
						valid = false
						break
					}
				}
				if valid {
					break
				}
			}
			for q, p := range pts {
				d.Antennas = append(d.Antennas, channel.Antenna{Pos: p, AP: ap, Local: q})
			}
			return
		}
		placed = append(placed, cand)
		d.Antennas = append(d.Antennas, channel.Antenna{Pos: cand, AP: ap, Local: i})
	}
}

func (d *Deployment) antennaOK(apPos, cand geom.Point, placed []geom.Point, sector float64) bool {
	if d.Cfg.Region != nil && !d.Cfg.Region.Contains(cand) {
		return false
	}
	for _, p := range placed {
		if sector > 0 && geom.WithinSector(apPos, cand, p, sector) {
			return false
		}
	}
	if d.Cfg.MinAntennaSep > 0 {
		for _, a := range d.Antennas {
			if a.Pos.Dist(cand) < d.Cfg.MinAntennaSep {
				return false
			}
		}
		for _, p := range placed {
			if p.Dist(cand) < d.Cfg.MinAntennaSep {
				return false
			}
		}
	}
	return true
}

// placeClient samples a client position uniformly in the AP's coverage
// disc, at least ClientMinDist from every antenna.
func (d *Deployment) placeClient(apPos geom.Point, src *rng.Source) geom.Point {
	for trial := 0; trial < max(1, d.Cfg.PlacementTrials); trial++ {
		x, y := src.PointInDisc(d.Cfg.CoverageRadius)
		cand := geom.Pt(apPos.X+x, apPos.Y+y)
		ok := d.Cfg.Region == nil || d.Cfg.Region.Contains(cand)
		if ok && d.Cfg.ClientMinDist > 0 {
			for _, a := range d.Antennas {
				if a.Pos.Dist(cand) < d.Cfg.ClientMinDist {
					ok = false
					break
				}
			}
		}
		if ok {
			return cand
		}
	}
	x, y := src.PointInDisc(d.Cfg.CoverageRadius)
	return geom.Pt(apPos.X+x, apPos.Y+y)
}

// ReplaceClients re-draws every client position from src, keeping the
// APs, antennas and per-AP client counts fixed, and re-associates —
// the population-churn primitive used by sim.ClientChurn. The draw
// discipline matches MultiAP's (one child stream per AP), so a churned
// deployment is statistically identical to a freshly generated one with
// the same infrastructure.
func (d *Deployment) ReplaceClients(src *rng.Source) {
	d.Clients = d.Clients[:0]
	for ap, pos := range d.APs {
		s := src.SplitN("ap", ap)
		for c := 0; c < d.Cfg.ClientsPerAP; c++ {
			d.Clients = append(d.Clients, d.placeClient(pos, s))
		}
	}
	d.associate()
}

// associate assigns each client to the nearest AP.
func (d *Deployment) associate() {
	d.ClientAP = make([]int, len(d.Clients))
	for j, c := range d.Clients {
		best, bestD := 0, math.Inf(1)
		for ap, pos := range d.APs {
			if dist := pos.Dist(c); dist < bestD {
				best, bestD = ap, dist
			}
		}
		d.ClientAP[j] = best
	}
}

// ThreeAPTestbed generates the §5.4 testbed: three APs, inter-AP distance
// ≈15 m (equilateral triangle), each with cfg antennas and clients.
func ThreeAPTestbed(cfg Config, src *rng.Source) *Deployment {
	const side = 15.0
	h := side * math.Sqrt(3) / 2
	aps := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(side, 0),
		geom.Pt(side/2, h),
	}
	return MultiAP(cfg, aps, src)
}

// LargeScaleConfig parameterises the §5.5 8-AP simulation.
type LargeScaleConfig struct {
	Config
	Region      geom.Rect // deployment region (60×60 m in the paper)
	NumAPs      int
	MaxOverhear int     // no CAS AP may overhear more than this many others
	CSRangeM    float64 // carrier-sense range used for the overhear rule
	Trials      int     // rejection budget for AP placement
}

// DefaultLargeScale returns the paper's 8-AP 60×60 m configuration: APs
// placed so none overhears more than 3 others, DAS antennas within the
// AP's coverage, no two antennas within 5 m.
func DefaultLargeScale(mode Mode) LargeScaleConfig {
	cfg := DefaultConfig(mode)
	if mode == DAS {
		// §5.5: no two (distributed) antennas within 5 m. Co-located
		// arrays are λ/2-spaced by definition.
		cfg.MinAntennaSep = 5
	}
	cfg.PlacementTrials = 1500
	return LargeScaleConfig{
		Config:      cfg,
		Region:      geom.Square(52),
		NumAPs:      8,
		MaxOverhear: 3,
		CSRangeM:    18,
		Trials:      4000,
	}
}

// LargeScale generates an 8-AP (configurable) deployment satisfying the
// §5.5 constraints. It returns an error if a compliant AP placement can
// not be found within the trial budget.
func LargeScale(cfg LargeScaleConfig, src *rng.Source) (*Deployment, error) {
	inner := cfg.Config
	region := cfg.Region
	inner.Region = &region
	// Antenna placement is rejection-sampled per AP; in crowded corners a
	// single pass can exhaust its budget and fall back to a ring that
	// violates the global ≥MinAntennaSep rule. Retry whole deployments —
	// and, if a given AP layout proves unsatisfiable, fresh AP layouts —
	// until the constraint holds globally.
	const (
		apLayouts = 16
		attempts  = 32
	)
	var d *Deployment
	found := false
placement:
	for layout := 0; layout < apLayouts; layout++ {
		aps, err := placeAPs(cfg, src.SplitN("aps", layout))
		if err != nil {
			continue
		}
		for attempt := 0; attempt < attempts; attempt++ {
			d = MultiAP(inner, aps, src.SplitN("attempt", layout*attempts+attempt))
			if cfg.MinAntennaSep <= 0 || antennaSepOK(d, cfg.MinAntennaSep) {
				found = true
				break placement
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("topology: could not satisfy %v m antenna separation in %d layouts",
			cfg.MinAntennaSep, apLayouts)
	}
	for i := range d.Antennas {
		d.Antennas[i].Pos = cfg.Region.Clamp(d.Antennas[i].Pos)
	}
	for j := range d.Clients {
		d.Clients[j] = cfg.Region.Clamp(d.Clients[j])
	}
	d.associate()
	return d, nil
}

// antennaSepOK reports whether all antenna pairs respect the minimum
// separation.
func antennaSepOK(d *Deployment, sep float64) bool {
	for i := 0; i < len(d.Antennas); i++ {
		for j := i + 1; j < len(d.Antennas); j++ {
			if d.Antennas[i].Pos.Dist(d.Antennas[j].Pos) < sep {
				return false
			}
		}
	}
	return true
}

// placeAPs rejection-samples AP positions so that no AP is within CS range
// of more than MaxOverhear others, APs keep enough mutual distance that
// their antenna annuli are jointly satisfiable, and each AP sits far
// enough from the region border for its antenna annulus to fit inside.
func placeAPs(cfg LargeScaleConfig, src *rng.Source) ([]geom.Point, error) {
	var aps []geom.Point
	overhears := func(cand geom.Point, aps []geom.Point) int {
		n := 0
		for _, p := range aps {
			if p.Dist(cand) <= cfg.CSRangeM {
				n++
			}
		}
		return n
	}
	outer := cfg.DASOuterFrac * cfg.CoverageRadius
	inset := geom.NewRect(cfg.Region.X0+outer, cfg.Region.Y0+outer,
		cfg.Region.X1-outer, cfg.Region.Y1-outer)
	minAPSep := cfg.MinAntennaSep * 2
	for len(aps) < cfg.NumAPs {
		placedOne := false
		for trial := 0; trial < max(1, cfg.Trials); trial++ {
			cand := geom.Pt(
				src.Uniform(inset.X0, inset.X1),
				src.Uniform(inset.Y0, inset.Y1),
			)
			if overhears(cand, aps) > cfg.MaxOverhear {
				continue
			}
			tooClose := false
			for _, p := range aps {
				if p.Dist(cand) < minAPSep {
					tooClose = true
					break
				}
			}
			if tooClose {
				continue
			}
			// Also ensure the candidate does not push an existing AP
			// over the limit.
			ok := true
			for _, p := range aps {
				if p.Dist(cand) <= cfg.CSRangeM && overhears(p, append(aps, cand))-1 > cfg.MaxOverhear {
					ok = false
					break
				}
			}
			if ok {
				aps = append(aps, cand)
				placedOne = true
				break
			}
		}
		if !placedOne {
			return nil, fmt.Errorf("topology: cannot place AP %d within %d trials", len(aps), cfg.Trials)
		}
	}
	return aps, nil
}

// Validate checks a deployment against its own configuration constraints,
// returning a descriptive error for the first violation. Used by tests
// and the midas-topo tool.
func (d *Deployment) Validate() error {
	cfg := d.Cfg
	if len(d.Antennas) != len(d.APs)*cfg.AntennasPerAP {
		return fmt.Errorf("topology: %d antennas for %d APs × %d",
			len(d.Antennas), len(d.APs), cfg.AntennasPerAP)
	}
	if len(d.ClientAP) != len(d.Clients) {
		return fmt.Errorf("topology: association table size mismatch")
	}
	if cfg.Mode == DAS {
		sector := cfg.SectorRuleDeg * math.Pi / 180
		for ap := range d.APs {
			idx := d.AntennasOf(ap)
			for a := 0; a < len(idx); a++ {
				for b := a + 1; b < len(idx); b++ {
					pa, pb := d.Antennas[idx[a]].Pos, d.Antennas[idx[b]].Pos
					if sector > 0 && geom.WithinSector(d.APs[ap], pa, pb, sector*0.999) {
						return fmt.Errorf("topology: AP %d antennas %d,%d violate %v° sector rule",
							ap, a, b, cfg.SectorRuleDeg)
					}
				}
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
