// Package stats provides small statistical helpers used throughout the
// MIDAS simulator: empirical CDFs, percentiles, streaming summaries,
// histograms and dB/linear conversions.
//
// All types are deterministic and allocation-conscious; none of them are
// safe for concurrent mutation unless stated otherwise.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty is returned by reductions over empty sample sets.
var ErrEmpty = errors.New("stats: empty sample set")

// DB converts a linear power ratio to decibels.
// DB(0) returns -Inf, matching the mathematical limit.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// Linear converts decibels to a linear power ratio.
func Linear(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBm converts a power in milliwatts to dBm.
func DBm(milliwatt float64) float64 { return DB(milliwatt) }

// Milliwatt converts dBm to milliwatts.
func Milliwatt(dbm float64) float64 { return Linear(dbm) }

// Summary accumulates count, mean, variance (Welford), min and max of a
// stream of float64 observations without storing them.
type Summary struct {
	n        int
	nans     int
	mean, m2 float64
	min, max float64
}

// Add records one observation. Non-finite observations (NaN, ±Inf) are
// counted separately (see NaNs) and do not perturb the statistics — a
// single bad replicate value must not poison a whole aggregation, and
// one ±Inf would turn the running mean/variance into NaN on the next
// finite observation.
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.nans++
		return
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// NaNs returns the number of non-finite observations rejected by Add.
func (s *Summary) NaNs() int { return s.nans }

// Mean returns the running mean, or 0 if no observations were recorded.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 if none).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if none).
func (s *Summary) Max() float64 { return s.max }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Sample is a growable collection of observations supporting quantile
// queries. The zero value is ready to use.
type Sample struct {
	xs     []float64
	nans   int
	sorted bool
}

// NewSample returns a Sample pre-seeded with xs (the slice is copied).
func NewSample(xs ...float64) *Sample {
	s := &Sample{xs: make([]float64, 0, len(xs))}
	s.AddAll(xs)
	return s
}

// Add appends one observation. NaN is rejected (counted via NaNs, never
// stored): a NaN in the sample would make it unsortable and poison
// every quantile.
func (s *Sample) Add(x float64) {
	if math.IsNaN(x) {
		s.nans++
		return
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends every observation in xs, rejecting NaNs like Add.
func (s *Sample) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// NaNs returns the number of NaN observations rejected by Add/AddAll.
func (s *Sample) NaNs() int { return s.nans }

// Values returns the observations in ascending order. The returned slice
// is owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7 estimator, as in R and NumPy).
func (s *Sample) Quantile(q float64) (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	// NaN compares false against both bounds, so test it explicitly —
	// otherwise it would flow into the index arithmetic below.
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	s.sort()
	if len(s.xs) == 1 {
		return s.xs[0], nil
	}
	h := q * float64(len(s.xs)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s.xs[lo], nil
	}
	frac := h - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac, nil
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() (float64, error) { return s.Quantile(0.5) }

// MustMedian is Median but panics on an empty sample; convenient in
// experiment code where emptiness is a programming error.
func (s *Sample) MustMedian() float64 {
	m, err := s.Median()
	if err != nil {
		panic(err)
	}
	return m
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs)), nil
}

// CDF is an empirical cumulative distribution function: a sorted list of
// (x, F(x)) points suitable for plotting or quantile lookup.
type CDF struct {
	X []float64 // ascending sample values
	F []float64 // cumulative probability at X[i], in (0, 1]
}

// ECDF builds the empirical CDF of the sample.
func (s *Sample) ECDF() *CDF {
	s.sort()
	n := len(s.xs)
	c := &CDF{X: make([]float64, n), F: make([]float64, n)}
	copy(c.X, s.xs)
	for i := range c.F {
		c.F[i] = float64(i+1) / float64(n)
	}
	return c
}

// At returns F(x) — the fraction of mass at or below x. F(NaN) is NaN.
func (c *CDF) At(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	// First index with X[i] > x; F is the count of values <= x.
	i := sort.SearchFloat64s(c.X, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return c.F[i-1]
}

// Quantile returns the smallest x with F(x) >= q. An empty CDF or a NaN
// q returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.X) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.F, q)
	if i >= len(c.X) {
		i = len(c.X) - 1
	}
	return c.X[i]
}

// Table renders the CDF downsampled to at most points rows, as
// tab-separated "x\tF" lines. Useful for regenerating paper figures as
// text series.
func (c *CDF) Table(points int) string {
	var b strings.Builder
	n := len(c.X)
	if n == 0 {
		return ""
	}
	if points <= 0 || points > n {
		points = n
	}
	for i := 0; i < points; i++ {
		// A single-row table shows the maximum (F=1); guard before the
		// division, which a one-point CDF would otherwise hit as /0.
		j := n - 1
		if points > 1 {
			j = i * (n - 1) / (points - 1)
		}
		fmt.Fprintf(&b, "%.4g\t%.4f\n", c.X[j], c.F[j])
	}
	return b.String()
}

// Ratio divides a by b element-wise over paired samples, returning the
// per-pair ratios; used for e.g. MIDAS/CAS stream-count ratios (Fig 12).
func Ratio(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("stats: ratio length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		if b[i] == 0 {
			return nil, fmt.Errorf("stats: ratio divide by zero at %d", i)
		}
		out[i] = a[i] / b[i]
	}
	return out, nil
}

// MedianGain returns (median(a)/median(b) - 1), the fractional median gain
// of sample a over sample b. Both samples must be non-empty.
func MedianGain(a, b *Sample) (float64, error) {
	ma, err := a.Median()
	if err != nil {
		return 0, err
	}
	mb, err := b.Median()
	if err != nil {
		return 0, err
	}
	if mb == 0 {
		return 0, errors.New("stats: zero baseline median")
	}
	return ma/mb - 1, nil
}
