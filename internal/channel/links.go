package channel

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Budget is the static large-scale link budget every MIDAS mechanism
// reads a link's power through: path loss through the shadow field's
// walls at the full per-antenna power. A nil Field is free space.
type Budget struct {
	P     Params
	Field *ShadowField
}

// Power returns the mean receive power (linear mW) at to from one
// antenna at from. It is symmetric bit for bit: distance, walls and
// residual ignore the direction.
func (b Budget) Power(from, to geom.Point) float64 {
	return b.power(from, to, b.Field.Shadow(from, to))
}

func (b Budget) power(from, to geom.Point, shadow float64) float64 {
	return b.P.PowerAtPoint(from, to, b.P.TxPowerDBm) * shadow
}

// ModelField returns the shadow field of the channel model built from a
// source with seed modelSeed (topology.Deployment.Model).
func (p Params) ModelField(modelSeed int64) *ShadowField {
	return p.NewField(rng.SplitSeed(modelSeed, "shadow"))
}

// Links is one network's link table over a Budget, built by its channel
// model and read by its medium (mac.Air), after ns-3's PropagationCache:
// positions are interned as small integer sites, and each unordered site
// pair's shadow factor and power are computed on first read. Links{Budget:
// b} is an empty table. It is not safe for concurrent use.
type Links struct {
	Budget
	pos []geom.Point // by site
	// pairs is the lower triangle: pair (s, t ≤ s) at s(s+1)/2 + t. A
	// zero value (factors and powers are positive) is not computed yet.
	pairs []linkPair
}

type linkPair struct{ shadow, power float64 }

// Site interns a position and returns its site id. Sites are few and
// interned while a network is built, so a scan finds them.
func (l *Links) Site(p geom.Point) int {
	if s := slices.Index(l.pos, p); s >= 0 {
		return s
	}
	return l.add(p)
}

func (l *Links) add(p geom.Point) int {
	s := len(l.pos)
	l.pos = append(l.pos, p)
	l.pairs = append(l.pairs, make([]linkPair, s+1)...)
	return s
}

// Sites returns the number of interned sites.
func (l *Links) Sites() int { return len(l.pos) }

// Shadow returns the shadow factor between sites s and t.
func (l *Links) Shadow(s, t int) float64 {
	p, a, b := l.pair(s, t)
	if p.shadow == 0 {
		p.shadow = l.Field.Shadow(a, b)
	}
	return p.shadow
}

// Power returns Budget.Power between sites s and t.
func (l *Links) Power(s, t int) float64 {
	p, a, b := l.pair(s, t)
	if p.power == 0 {
		p.power = l.power(a, b, l.Shadow(s, t))
	}
	return p.power
}

// pair returns the entry of sites s and t and their positions.
func (l *Links) pair(s, t int) (*linkPair, geom.Point, geom.Point) {
	if s < t {
		s, t = t, s
	}
	return &l.pairs[s*(s+1)/2+t], l.pos[s], l.pos[t]
}
