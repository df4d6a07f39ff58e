package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {-1, 0},
		{1, 12.706}, {2, 4.303}, {10, 2.228}, {30, 2.042},
	}
	for _, tc := range cases {
		if got := TCritical95(tc.df); got != tc.want {
			t.Errorf("TCritical95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	// Beyond the table: monotone decreasing toward the normal limit,
	// and close to standard table values at the anchors.
	approx := []struct {
		df   int
		want float64
	}{{40, 2.021}, {60, 2.000}, {120, 1.980}}
	for _, tc := range approx {
		if got := TCritical95(tc.df); math.Abs(got-tc.want) > 0.005 {
			t.Errorf("TCritical95(%d) = %v, want ≈%v", tc.df, got, tc.want)
		}
	}
	if got := TCritical95(1 << 20); math.Abs(got-zCrit95) > 1e-3 {
		t.Errorf("TCritical95(large) = %v, want ≈%v", got, zCrit95)
	}
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		got := TCritical95(df)
		if got > prev {
			t.Fatalf("TCritical95 not monotone at df=%d: %v > %v", df, got, prev)
		}
		prev = got
	}
}

func TestSummaryCI95(t *testing.T) {
	var s Summary
	if s.CI95() != 0 {
		t.Errorf("empty CI95 = %v, want 0", s.CI95())
	}
	s.Add(5)
	if s.CI95() != 0 {
		t.Errorf("n=1 CI95 = %v, want 0", s.CI95())
	}
	// n=2, values 1 and 3: mean 2, std sqrt(2), CI = 12.706·sqrt(2)/sqrt(2).
	var p Summary
	p.Add(1)
	p.Add(3)
	want := 12.706 * math.Sqrt2 / math.Sqrt2
	if got := p.CI95(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestSummaryMerge(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rnd.NormFloat64()*3 + 7
	}
	var whole Summary
	for _, x := range xs {
		whole.Add(x)
	}
	// Merge in uneven chunks; statistics must match the single pass to
	// rounding error.
	var merged Summary
	for lo := 0; lo < len(xs); {
		hi := lo + 1 + rnd.Intn(64)
		if hi > len(xs) {
			hi = len(xs)
		}
		var part Summary
		for _, x := range xs[lo:hi] {
			part.Add(x)
		}
		merged.Merge(part)
		lo = hi
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge lost counts/extremes: %v vs %v", merged.String(), whole.String())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-12 || math.Abs(merged.Var()-whole.Var()) > 1e-10 {
		t.Errorf("merge drifted: mean %v vs %v, var %v vs %v",
			merged.Mean(), whole.Mean(), merged.Var(), whole.Var())
	}

	// Merging into/from empties.
	var empty, target Summary
	target.Merge(empty)
	if target.N() != 0 {
		t.Error("merging an empty summary must be a no-op")
	}
	target.Merge(whole)
	if target.N() != whole.N() || target.Mean() != whole.Mean() {
		t.Error("merging into an empty summary must copy")
	}
}

func TestP2QuantileSmallSamplesExact(t *testing.T) {
	// Below five observations the estimate is the exact order statistic.
	p := NewP2Quantile(0.5)
	if !math.IsNaN(p.Value()) {
		t.Errorf("empty P² value = %v, want NaN", p.Value())
	}
	p.Add(9)
	if p.Value() != 9 {
		t.Errorf("n=1 value = %v, want 9", p.Value())
	}
	p.Add(1)
	p.Add(5)
	if p.Value() != 5 { // rank ceil(0.5·3)=2 of {1,5,9}
		t.Errorf("n=3 median = %v, want 5", p.Value())
	}
}

func TestP2QuantileAccuracy(t *testing.T) {
	for _, q := range []float64{0.1, 0.5, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			p := NewP2Quantile(q)
			xs := make([]float64, 5000)
			for i := range xs {
				xs[i] = rnd.NormFloat64()
			}
			for _, x := range xs {
				p.Add(x)
			}
			sort.Float64s(xs)
			exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
			// On a well-behaved unimodal distribution the P² estimate
			// tracks the exact quantile closely; 0.05 is ~4× the typical
			// observed error at n=5000 and catches any algorithmic break.
			if math.Abs(p.Value()-exact) > 0.05 {
				t.Errorf("q=%v seed=%d: P² %v vs exact %v", q, seed, p.Value(), exact)
			}
			if p.N() != len(xs) {
				t.Errorf("N = %d, want %d", p.N(), len(xs))
			}
		}
	}
}

func TestP2QuantileRejectsNonFinite(t *testing.T) {
	p := NewP2Quantile(0.5)
	for _, x := range []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)} {
		p.Add(x)
	}
	if p.N() != 3 || p.NaNs() != 3 {
		t.Errorf("n=%d nans=%d, want 3 and 3", p.N(), p.NaNs())
	}
	if p.Value() != 2 {
		t.Errorf("median = %v, want 2", p.Value())
	}
}
