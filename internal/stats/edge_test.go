package stats

import (
	"math"
	"testing"
)

// TestSampleEdgeCases table-drives the whole-sample reductions through
// the degenerate inputs the replication layer can feed them: empty
// series, a single point, all-equal values, and NaN observations.
func TestSampleEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		xs         []float64
		wantN      int
		wantNaNs   int
		wantErr    bool    // from Mean/Median/Quantile
		wantMedian float64 // when !wantErr
	}{
		{"empty", nil, 0, 0, true, 0},
		{"single point", []float64{3.5}, 1, 0, false, 3.5},
		{"all equal", []float64{2, 2, 2, 2}, 4, 0, false, 2},
		{"all NaN", []float64{math.NaN(), math.NaN()}, 0, 2, true, 0},
		{"NaN among values", []float64{1, math.NaN(), 3}, 2, 1, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSample(tc.xs...)
			if s.N() != tc.wantN || s.NaNs() != tc.wantNaNs {
				t.Fatalf("N=%d NaNs=%d, want %d and %d", s.N(), s.NaNs(), tc.wantN, tc.wantNaNs)
			}
			med, err := s.Median()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Median() = %v, want error", med)
				}
				if _, err := s.Mean(); err == nil {
					t.Error("Mean() on empty must error")
				}
				if _, err := s.Quantile(0.5); err == nil {
					t.Error("Quantile() on empty must error")
				}
				// ECDF of an empty sample degrades gracefully end to end.
				c := s.ECDF()
				if got := c.Table(10); got != "" {
					t.Errorf("empty ECDF table = %q", got)
				}
				if got := c.At(1); got != 0 {
					t.Errorf("empty ECDF At = %v, want 0", got)
				}
				if got := c.Quantile(0.5); !math.IsNaN(got) {
					t.Errorf("empty ECDF quantile = %v, want NaN", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if med != tc.wantMedian {
				t.Errorf("median = %v, want %v", med, tc.wantMedian)
			}
			for _, q := range []float64{0, 1} {
				if v, err := s.Quantile(q); err != nil || math.IsNaN(v) {
					t.Errorf("Quantile(%v) = %v, %v", q, v, err)
				}
			}
		})
	}
}

// TestQuantileRejectsNaNQ pins the guard on the quantile argument
// itself: NaN compares false against both bounds, so an explicit check
// must reject it before the index arithmetic.
func TestQuantileRejectsNaNQ(t *testing.T) {
	s := NewSample(1, 2, 3)
	if v, err := s.Quantile(math.NaN()); err == nil {
		t.Errorf("Sample.Quantile(NaN) = %v, want error", v)
	}
	c := s.ECDF()
	if got := c.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("CDF.Quantile(NaN) = %v, want NaN", got)
	}
	if got := c.At(math.NaN()); !math.IsNaN(got) {
		t.Errorf("CDF.At(NaN) = %v, want NaN", got)
	}
}

// TestSummaryNaNRejection verifies the Welford accumulator drops
// non-finite observations without poisoning the running statistics (a
// single ±Inf would otherwise NaN the mean on the next finite Add).
func TestSummaryNaNRejection(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	s.Add(3)
	if s.N() != 2 || s.NaNs() != 3 {
		t.Fatalf("N=%d NaNs=%d, want 2 and 3", s.N(), s.NaNs())
	}
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Errorf("stats poisoned: %v", s.String())
	}
	// Merge carries the rejection count.
	var o Summary
	o.Add(math.NaN())
	s.Merge(o)
	if s.NaNs() != 4 || s.N() != 2 {
		t.Errorf("merge lost NaN tally: N=%d NaNs=%d", s.N(), s.NaNs())
	}
}

// TestMedianGainEdgeCases covers the remaining whole-sample helpers on
// empty input.
func TestMedianGainEdgeCases(t *testing.T) {
	empty := NewSample()
	full := NewSample(1, 2)
	if _, err := MedianGain(empty, full); err == nil {
		t.Error("MedianGain(empty, ...) must error")
	}
	if _, err := MedianGain(full, empty); err == nil {
		t.Error("MedianGain(..., empty) must error")
	}
	if _, err := MedianGain(full, NewSample(0, 0)); err == nil {
		t.Error("MedianGain with zero baseline must error")
	}
	if _, err := Ratio([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Ratio length mismatch must error")
	}
	if _, err := Ratio([]float64{1}, []float64{0}); err == nil {
		t.Error("Ratio divide-by-zero must error")
	}
}
