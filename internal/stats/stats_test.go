package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 3, 10, 20, 60} {
		if got := DB(Linear(db)); !almost(got, db, 1e-9) {
			t.Errorf("DB(Linear(%v)) = %v", db, got)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	if got := DB(100); !almost(got, 20, 1e-12) {
		t.Errorf("DB(100) = %v, want 20", got)
	}
	if got := Linear(3); !almost(got, 1.9952623, 1e-6) {
		t.Errorf("Linear(3) = %v", got)
	}
	if !math.IsInf(DB(0), -1) {
		t.Errorf("DB(0) should be -Inf, got %v", DB(0))
	}
}

func TestDBmMilliwatt(t *testing.T) {
	if got := DBm(1); !almost(got, 0, 1e-12) {
		t.Errorf("DBm(1mW) = %v, want 0", got)
	}
	if got := Milliwatt(30); !almost(got, 1000, 1e-9) {
		t.Errorf("Milliwatt(30dBm) = %v, want 1000", got)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almost(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Var() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Errorf("zero Summary should be all-zero: %s", s.String())
	}
	s.Add(42)
	if s.Var() != 0 {
		t.Errorf("single-sample variance should be 0, got %v", s.Var())
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Errorf("min/max after one add: %v %v", s.Min(), s.Max())
	}
}

func TestSampleQuantile(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5)
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := s.Quantile(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	s := NewSample(10, 20)
	got, _ := s.Quantile(0.5)
	if !almost(got, 15, 1e-12) {
		t.Errorf("interp median = %v, want 15", got)
	}
	got, _ = s.Quantile(0.75)
	if !almost(got, 17.5, 1e-12) {
		t.Errorf("q75 = %v, want 17.5", got)
	}
}

func TestSampleErrors(t *testing.T) {
	var s Sample
	if _, err := s.Quantile(0.5); err != ErrEmpty {
		t.Errorf("empty quantile err = %v", err)
	}
	if _, err := s.Mean(); err != ErrEmpty {
		t.Errorf("empty mean err = %v", err)
	}
	s.Add(1)
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("expected range error for q=1.5")
	}
}

func TestECDF(t *testing.T) {
	s := NewSample(3, 1, 2)
	c := s.ECDF()
	if len(c.X) != 3 {
		t.Fatalf("len = %d", len(c.X))
	}
	if !sort.Float64sAreSorted(c.X) {
		t.Error("ECDF X not sorted")
	}
	if c.F[2] != 1 {
		t.Errorf("F[last] = %v", c.F[2])
	}
	if got := c.At(2); !almost(got, 2.0/3.0, 1e-12) {
		t.Errorf("At(2) = %v", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(99); got != 1 {
		t.Errorf("At(99) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("CDF quantile(0.5) = %v, want 2", got)
	}
}

func TestCDFTable(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	tab := s.ECDF().Table(5)
	if tab == "" {
		t.Fatal("empty table")
	}
	lines := 0
	for _, ch := range tab {
		if ch == '\n' {
			lines++
		}
	}
	if lines != 5 {
		t.Errorf("table rows = %d, want 5", lines)
	}
}

// TestCDFTableSinglePoint pins the n=1 edge: a one-observation series
// (e.g. a 1-topology scenario run through the text sink) must render
// one row, not divide by zero.
func TestCDFTableSinglePoint(t *testing.T) {
	got := NewSample(7.5).ECDF().Table(20)
	if got != "7.5\t1.0000\n" {
		t.Errorf("one-point table = %q, want %q", got, "7.5\t1.0000\n")
	}
	if got := NewSample(1, 2, 3).ECDF().Table(1); got != "3\t1.0000\n" {
		t.Errorf("one-row table = %q, want the maximum row", got)
	}
}

func TestRatio(t *testing.T) {
	r, err := Ratio([]float64{2, 9}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 2 || r[1] != 3 {
		t.Errorf("ratio = %v", r)
	}
	if _, err := Ratio([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := Ratio([]float64{1}, []float64{0}); err == nil {
		t.Error("expected divide-by-zero error")
	}
}

func TestMedianGain(t *testing.T) {
	a := NewSample(2, 3, 4) // median 3
	b := NewSample(1, 2, 3) // median 2
	g, err := MedianGain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(g, 0.5, 1e-12) {
		t.Errorf("gain = %v, want 0.5", g)
	}
}

// Property: quantile is monotone non-decreasing in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%50) + 1
		s := &Sample{}
		for i := 0; i < m; i++ {
			s.Add(r.NormFloat64() * 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := s.Quantile(q)
			if err != nil || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		min, _ := s.Quantile(0)
		max, _ := s.Quantile(1)
		vals := s.Values()
		return min == vals[0] && max == vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ECDF.At is a valid CDF — nondecreasing, 0 below min, 1 at max.
func TestECDFProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%40) + 1
		s := &Sample{}
		for i := 0; i < m; i++ {
			s.Add(r.Float64() * 100)
		}
		c := s.ECDF()
		prev := 0.0
		for x := -10.0; x <= 110; x += 3 {
			fx := c.At(x)
			if fx < prev || fx < 0 || fx > 1 {
				return false
			}
			prev = fx
		}
		return c.At(c.X[len(c.X)-1]) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Summary mean/var agree with direct two-pass computation.
func TestSummaryMatchesTwoPass(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%60) + 2
		xs := make([]float64, m)
		var s Summary
		for i := range xs {
			xs[i] = r.NormFloat64()*5 + 3
			s.Add(xs[i])
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(m)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return almost(s.Mean(), mean, 1e-9) && almost(s.Var(), ss/float64(m-1), 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleAddAllAndN(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1, 2})
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if m := s.MustMedian(); m != 2 {
		t.Errorf("median = %v", m)
	}
	mean, err := s.Mean()
	if err != nil || mean != 2 {
		t.Errorf("mean = %v, %v", mean, err)
	}
}

func TestMustMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(&Sample{}).MustMedian()
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	if str := s.String(); str == "" {
		t.Error("empty String()")
	}
}

func TestCDFQuantileEdges(t *testing.T) {
	var empty CDF
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
	c := NewSample(1, 2, 3).ECDF()
	if got := c.Quantile(2); got != 3 {
		t.Errorf("q beyond 1 should clamp to max, got %v", got)
	}
}

func TestMedianGainErrors(t *testing.T) {
	if _, err := MedianGain(&Sample{}, NewSample(1)); err == nil {
		t.Error("empty a should error")
	}
	if _, err := MedianGain(NewSample(1), &Sample{}); err == nil {
		t.Error("empty b should error")
	}
	if _, err := MedianGain(NewSample(1), NewSample(0)); err == nil {
		t.Error("zero baseline should error")
	}
}
