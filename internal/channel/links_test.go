package channel

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
)

// TestLinksMatchBudget checks the link table and Budget.Power against
// the path-loss-times-shadow product computed afresh, bit for bit, for
// every ordered pair of random positions (a site paired with itself
// included), read twice, through a walled and a free-space budget.
// Half the positions are interned only after the first pairs were
// read, and a repeated position must map to its first site.
func TestLinksMatchBudget(t *testing.T) {
	p := Default()
	r := rand.New(rand.NewPCG(3, 5))
	var pts []geom.Point
	for i := 0; i < 12; i++ {
		pts = append(pts, geom.Pt(r.Float64()*50, r.Float64()*40))
	}
	for _, f := range []*ShadowField{p.NewField(9), nil} {
		b := Budget{P: p, Field: f}
		l := &Links{Budget: b}
		check := func(pts []geom.Point) {
			t.Helper()
			for _, x := range pts {
				for _, y := range pts {
					s, u := l.Site(x), l.Site(y)
					shadow := f.Shadow(x, y)
					direct := p.PowerAtPoint(x, y, p.TxPowerDBm) * shadow
					for _, c := range []struct {
						what      string
						got, want float64
					}{
						{"Links.Power", l.Power(s, u), direct},
						{"Links.Shadow", l.Shadow(s, u), shadow},
						{"Budget.Power", b.Power(x, y), direct},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Errorf("%s(%v, %v) = %v, direct %v", c.what, x, y, c.got, c.want)
						}
					}
				}
			}
		}
		for round := 0; round < 2; round++ {
			check(pts[:6])
			check(pts)
		}
		if s := l.Site(pts[3]); s != 3 || l.Sites() != len(pts) {
			t.Errorf("repeated position interned as site %d of %d, want 3 of %d", s, l.Sites(), len(pts))
		}
	}
}
