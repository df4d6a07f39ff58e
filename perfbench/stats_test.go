package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.99, 3.97},
	} {
		got, err := quantile(xs, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Errorf("quantile of an empty sample succeeded")
	}
}

func TestBeyondCountsSamplesPastTheQuantile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{
		{0.99, 1000, 10},
		{0.99, 1600, 16},
		{0.99, 991, 10},
		{0.99, 900, 9},
		{0.999, 1000, 1},
		{0.5, 21, 10},
		{0.5, 1, 0},
		{0.99, 0, 0},
	} {
		if got := beyond(c.q, c.n); got != c.want {
			t.Errorf("beyond(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
	// The count matches the sample: with values 1..n, exactly beyond()
	// of them exceed the interpolated quantile.
	for _, n := range []int{900, 991, 1000, 1601} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, _ := quantile(xs, 0.99)
		past := 0
		for _, x := range xs {
			if x > v {
				past++
			}
		}
		if past != beyond(0.99, n) {
			t.Errorf("n=%d: %d samples exceed p99=%v, beyond() says %d", n, past, v, beyond(0.99, n))
		}
	}
}

func TestTailQuantileAppliesTheTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.99, true},
		{900, 0.95, true},
		{200, 0.95, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}
