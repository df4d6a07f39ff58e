package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzStreamingVsExact cross-checks the streaming accumulators against
// exact whole-sample computation on arbitrary input series (8 fuzzed
// bytes decode to one float64 observation). Documented tolerances,
// which double as the layer's accuracy contract (see README
// "Statistics & replication"):
//
//   - Welford mean vs the exact sum: within 1e-9·(1+max|x|)·n — both
//     accumulate one rounding error per observation, so any violation
//     is an algorithmic bug, not noise.
//   - Welford variance vs the exact two-pass sum of squared deviations:
//     within 1e-9·(1+max|x|)²·n on the same reasoning.
//   - P² quantiles: exactly the order statistic below five
//     observations, always inside the exact [min, max] after (the P²
//     markers clamp to observed extremes; mid-marker error is
//     distribution-dependent and deliberately not asserted here — see
//     TestP2QuantileAccuracy for the distributional check).
//   - NaN observations are rejected by every accumulator: counts only
//     reflect finite input.
func FuzzStreamingVsExact(f *testing.F) {
	f.Add([]byte("MIDAS replicated statistics: streaming-vs-exact seed corpus."))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})         // NaN then a tiny denormal
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xf0?")) // 1.0, 1.0 (all-equal)
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxVals = 2048
		var xs []float64
		nans := 0
		for i := 0; i+8 <= len(data) && len(xs) < maxVals; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i : i+8]))
			switch {
			case math.IsNaN(v):
				nans++
				xs = append(xs, v) // fed to accumulators, must be dropped
			case math.IsInf(v, 0):
				// ±Inf makes the exact reference itself meaningless; the
				// ingestion guards are covered by unit tests.
				continue
			default:
				// Clamp magnitude so the exact reference sums cannot
				// overflow; Mod keeps the value's low-order structure.
				if math.Abs(v) > 1e12 {
					v = math.Mod(v, 1e12)
				}
				xs = append(xs, v)
			}
		}

		var sum Summary
		for _, x := range xs {
			sum.Add(x)
		}
		finite := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) {
				finite = append(finite, x)
			}
		}
		if sum.N() != len(finite) || sum.NaNs() != nans {
			t.Fatalf("Welford counts n=%d nans=%d, want %d and %d", sum.N(), sum.NaNs(), len(finite), nans)
		}
		if len(finite) == 0 {
			return
		}

		maxAbs := 0.0
		exactSum := 0.0
		for _, x := range finite {
			exactSum += x
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		n := float64(len(finite))
		exactMean := exactSum / n
		tol := 1e-9 * (1 + maxAbs) * n
		if d := math.Abs(sum.Mean() - exactMean); d > tol {
			t.Errorf("Welford mean %v vs exact %v (Δ %v > tol %v)", sum.Mean(), exactMean, d, tol)
		}
		if len(finite) >= 2 {
			ss := 0.0
			for _, x := range finite {
				d := x - exactMean
				ss += d * d
			}
			exactVar := ss / (n - 1)
			vtol := 1e-9 * (1 + maxAbs) * (1 + maxAbs) * n
			if d := math.Abs(sum.Var() - exactVar); d > vtol {
				t.Errorf("Welford var %v vs two-pass %v (Δ %v > tol %v)", sum.Var(), exactVar, d, vtol)
			}
		}

		sorted := append([]float64(nil), finite...)
		sort.Float64s(sorted)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		exactQ := func(q float64) float64 {
			r := int(math.Ceil(q * n))
			if r < 1 {
				r = 1
			}
			return sorted[r-1]
		}

		for _, q := range []float64{0.1, 0.5, 0.9} {
			p := NewP2Quantile(q)
			for _, x := range xs {
				p.Add(x)
			}
			if p.N() != len(finite) {
				t.Fatalf("P² n=%d, want %d", p.N(), len(finite))
			}
			got := p.Value()
			if len(finite) < 5 {
				if want := exactQ(q); got != want {
					t.Errorf("P² q=%v with n=%d: %v, want exact order statistic %v", q, len(finite), got, want)
				}
				continue
			}
			if math.IsNaN(got) || got < lo || got > hi {
				t.Errorf("P² q=%v: estimate %v escapes the observed range [%v, %v]", q, got, lo, hi)
			}
		}
	})
}
