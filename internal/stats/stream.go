// Streaming replicate statistics: Student-t confidence intervals on the
// Welford Summary, the P² single-quantile estimator and a fixed-bucket CDF sketch. Together they let the
// scenario engine aggregate any number of replicate runs online —
// memory stays bounded by the result schema, never by replicates ×
// samples — while the exact whole-sample path (Sample/CDF) remains for
// single-replicate golden runs.

package stats

import (
	"fmt"
	"math"
	"sort"
)

// tCrit95 holds two-sided 95% Student-t critical values for 1–30
// degrees of freedom (standard table values).
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// zCrit95 is the normal-approximation limit of the t distribution.
const zCrit95 = 1.960

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: exact table values for df <= 30, a linear
// interpolation in 1/df between the df=30 and asymptotic values beyond
// (error < 0.002 there), and 0 for df < 1 (no interval exists).
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		// t(df) - t(inf) decays like 1/df: anchor at df=30.
		t30 := tCrit95[len(tCrit95)-1]
		return zCrit95 + (t30-zCrit95)*30/float64(df)
	}
}

// CI95 returns the half-width of the two-sided 95% Student-t confidence
// interval on the mean: t_{0.975, n-1} · s/√n. It is 0 for fewer than
// two observations (no spread information exists).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return TCritical95(s.n-1) * s.Std() / math.Sqrt(float64(s.n))
}

// P2Quantile estimates a single quantile of a stream in O(1) memory
// using the P² algorithm (Jain & Chlamtac 1985): five markers track the
// min, max, the target quantile and its two flanking quantiles, and are
// nudged by parabolic interpolation as observations arrive. Until five
// observations have been seen the estimate is the exact order
// statistic. Non-finite observations are ignored (see NaNs).
//
// The estimate is always within [min, max] of the observed data; its
// error against the exact quantile depends on the input distribution
// and is not worst-case bounded — use Sample when an exact order
// statistic matters.
type P2Quantile struct {
	q    float64
	n    int
	nans int
	// h are marker heights, pos their current positions (1-based ranks),
	// want their desired positions.
	h    [5]float64
	pos  [5]int
	want [5]float64
	inc  [5]float64
}

// NewP2Quantile returns an estimator for the q-quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	if !(q > 0 && q < 1) {
		panic(fmt.Sprintf("stats: P² quantile %v out of (0,1)", q))
	}
	p := &P2Quantile{q: q}
	p.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// N returns the number of (finite) observations recorded.
func (p *P2Quantile) N() int { return p.n }

// NaNs returns the number of non-finite observations ignored by Add.
func (p *P2Quantile) NaNs() int { return p.nans }

// Add records one observation. NaN and ±Inf are counted separately and
// do not perturb the estimate.
func (p *P2Quantile) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		p.nans++
		return
	}
	if p.n < 5 {
		p.h[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.h[:])
			for i := range p.pos {
				p.pos[i] = i + 1
				p.want[i] = 1 + 4*p.inc[i]
			}
		}
		return
	}

	// Find the cell k with h[k] <= x < h[k+1], stretching the extremes.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	p.n++
	for i := range p.want {
		p.want[i] = 1 + float64(p.n-1)*p.inc[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - float64(p.pos[i])
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			h := p.parabolic(i, s)
			if p.h[i-1] < h && h < p.h[i+1] {
				p.h[i] = h
			} else {
				p.h[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

func (p *P2Quantile) parabolic(i, s int) float64 {
	fs := float64(s)
	qi, qm, qp := p.h[i], p.h[i-1], p.h[i+1]
	ni, nm, np := float64(p.pos[i]), float64(p.pos[i-1]), float64(p.pos[i+1])
	return qi + fs/(np-nm)*((ni-nm+fs)*(qp-qi)/(np-ni)+(np-ni-fs)*(qi-qm)/(ni-nm))
}

func (p *P2Quantile) linear(i, s int) float64 {
	return p.h[i] + float64(s)*(p.h[i+s]-p.h[i])/float64(p.pos[i+s]-p.pos[i])
}

// Value returns the current quantile estimate: the exact order
// statistic (smallest x with F(x) >= q) while fewer than five
// observations have been seen, the P² center-marker height after.
// With no observations it returns NaN.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	if p.n < 5 {
		xs := append([]float64(nil), p.h[:p.n]...)
		sort.Float64s(xs)
		r := int(math.Ceil(p.q * float64(p.n)))
		if r < 1 {
			r = 1
		}
		return xs[r-1]
	}
	return p.h[2]
}
