// Package geom provides the 2-D geometry primitives used by the MIDAS
// topology generators and coverage-map experiments: points, distances,
// angular sectors and measurement grids.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in metres on the deployment plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Norm returns the distance from the origin.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// AngleTo returns the bearing from p to q in radians in (-π, π].
func (p Point) AngleTo(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// AngularSeparation returns the absolute angular separation of bearings
// a and b (radians), folded into [0, π].
func AngularSeparation(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d < 0 {
		d += 2 * math.Pi
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// WithinSector reports whether, viewed from origin, points a and b fall
// within an angular sector narrower than width radians. The MIDAS antenna
// deployment rule (§5.3.1) forbids two antennas of one AP within a
// 60-degree sector of the AP.
func WithinSector(origin, a, b Point, width float64) bool {
	return AngularSeparation(origin.AngleTo(a), origin.AngleTo(b)) < width
}

// Rect is an axis-aligned rectangle [X0,X1] × [Y0,Y1].
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// NewRect returns the rectangle with the given corners, normalising order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// Square returns the square [0,side] × [0,side].
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Clamp returns p constrained to lie within r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.X0, math.Min(r.X1, p.X)),
		Y: math.Max(r.Y0, math.Min(r.Y1, p.Y)),
	}
}

// Grid enumerates measurement spots over rect with the given spacing in
// metres, calling f for each spot. The paper's deadzone maps use 0.5 m
// spacing; the hidden-terminal study uses 1 m (§5.3.3–5.3.4).
func Grid(rect Rect, spacing float64, f func(Point)) int {
	if spacing <= 0 {
		panic("geom: non-positive grid spacing")
	}
	n := 0
	for y := rect.Y0; y <= rect.Y1+1e-9; y += spacing {
		for x := rect.X0; x <= rect.X1+1e-9; x += spacing {
			f(Point{x, y})
			n++
		}
	}
	return n
}

// MinDist returns the smallest pairwise distance among pts, or +Inf for
// fewer than two points. Used to enforce the ≥5 m antenna-separation rule
// in the 8-AP deployment (§5.5).
func MinDist(pts []Point) float64 {
	min := math.Inf(1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < min {
				min = d
			}
		}
	}
	return min
}

// Nearest returns the index of the point in pts closest to p, and the
// distance. It panics on an empty slice.
func Nearest(p Point, pts []Point) (int, float64) {
	if len(pts) == 0 {
		panic("geom: Nearest on empty slice")
	}
	best, bestD := 0, pts[0].Dist(p)
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Dist(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// Centroid returns the mean of pts. It panics on an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty slice")
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
