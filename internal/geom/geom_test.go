package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -1)
	if got := p.Add(q); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if n := Pt(-3, 4).Norm(); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestAngleTo(t *testing.T) {
	cases := []struct {
		from, to Point
		want     float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(1, 1), Pt(2, 2), math.Pi / 4},
	}
	for _, tc := range cases {
		if got := tc.from.AngleTo(tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("AngleTo(%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestAngularSeparation(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, math.Pi / 2, math.Pi / 2},
		{-math.Pi + 0.1, math.Pi - 0.1, 0.2}, // wraps around
		{0, 2 * math.Pi, 0},
		{0.1, 2*math.Pi - 0.1, 0.2},
	}
	for _, tc := range cases {
		if got := AngularSeparation(tc.a, tc.b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("AngularSeparation(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestWithinSector(t *testing.T) {
	o := Pt(0, 0)
	sixty := math.Pi / 3
	if !WithinSector(o, Pt(1, 0), Pt(1, 0.5), sixty) {
		t.Error("close bearings should be within 60° sector")
	}
	if WithinSector(o, Pt(1, 0), Pt(0, 1), sixty) {
		t.Error("90°-apart bearings should not be within 60° sector")
	}
}

func TestRect(t *testing.T) {
	r := NewRect(4, 3, 0, 0) // reversed corners normalise
	if r != (Rect{0, 0, 4, 3}) {
		t.Fatalf("NewRect = %+v", r)
	}
	if !r.Contains(Pt(2, 1.5)) || r.Contains(Pt(5, 1)) {
		t.Error("Contains wrong")
	}
	if r.Width() != 4 || r.Height() != 3 {
		t.Errorf("dims wrong: %v %v", r.Width(), r.Height())
	}
	if got := r.Clamp(Pt(-1, 10)); got != Pt(0, 3) {
		t.Errorf("Clamp = %v", got)
	}
	if s := Square(60); s != (Rect{0, 0, 60, 60}) {
		t.Errorf("Square = %+v", s)
	}
}

func TestGrid(t *testing.T) {
	r := Square(1)
	n := Grid(r, 0.5, func(p Point) {
		if !r.Contains(p) {
			t.Errorf("grid point %v outside rect", p)
		}
	})
	if n != 9 { // 3x3 lattice: 0, .5, 1
		t.Errorf("grid count = %d, want 9", n)
	}
}

func TestGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero spacing")
		}
	}()
	Grid(Square(1), 0, func(Point) {})
}

func TestMinDist(t *testing.T) {
	if d := MinDist([]Point{Pt(0, 0)}); !math.IsInf(d, 1) {
		t.Errorf("single-point MinDist = %v", d)
	}
	pts := []Point{Pt(0, 0), Pt(0, 3), Pt(10, 0)}
	if d := MinDist(pts); d != 3 {
		t.Errorf("MinDist = %v, want 3", d)
	}
}

func TestNearest(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 5), Pt(2, 2)}
	i, d := Nearest(Pt(2.1, 2), pts)
	if i != 2 {
		t.Errorf("Nearest idx = %d", i)
	}
	if math.Abs(d-0.1) > 1e-12 {
		t.Errorf("Nearest dist = %v", d)
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(0, 2), Pt(2, 2)})
	if c != Pt(1, 1) {
		t.Errorf("Centroid = %v", c)
	}
}

// Property: distance is a metric — symmetric, zero on identity,
// triangle inequality.
func TestDistMetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound magnitudes to avoid overflow-induced weirdness.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		if a.Dist(a) != 0 {
			return false
		}
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AngularSeparation is always in [0, π] and symmetric.
func TestAngularSeparationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := r.Float64()*40 - 20
		b := r.Float64()*40 - 20
		s := AngularSeparation(a, b)
		if s < 0 || s > math.Pi+1e-12 {
			t.Fatalf("separation out of range: %v", s)
		}
		if math.Abs(s-AngularSeparation(b, a)) > 1e-9 {
			t.Fatalf("not symmetric at %v,%v", a, b)
		}
	}
}
