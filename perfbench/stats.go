package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (the "type 7" definition
// used by numpy and R's default). xs need not be sorted; it is not
// modified. An empty sample has no quantile.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("quantile of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is quantile(xs, 0.5).
func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// mean is the arithmetic mean; an empty sample has none.
func mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("mean of an empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// beyond counts the samples of an n-sample that lie strictly above the
// q-quantile position of quantile's interpolation: the ranks past
// floor(q·(n-1)).
func beyond(q float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// minBeyond is how many samples must lie past a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailQuantiles are the tail percentiles reported, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile picks the highest of tailQuantiles with at least
// minBeyond samples past it in an n-sample; ok is false when not even
// the median qualifies.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if beyond(q, n) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// describe renders a sample as its size, median and highest tail
// percentile with at least minBeyond samples past it.
func describe(name, unit string, xs []float64) string {
	out := fmt.Sprintf("%s: n=%d", name, len(xs))
	if m, err := median(xs); err == nil {
		out += fmt.Sprintf(" p50=%.4g%s", m, unit)
	}
	if q, ok := tailQuantile(len(xs)); ok && q > 0.5 {
		v, _ := quantile(xs, q)
		out += fmt.Sprintf(" p%g=%.4g%s", 100*q, v, unit)
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
