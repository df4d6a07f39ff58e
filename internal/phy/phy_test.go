package phy

import (
	"math"
	"math/cmplx"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/rng"
)

func TestSelectMCS(t *testing.T) {
	cases := []struct {
		sinr float64
		want int
		ok   bool
	}{
		{-5, 0, false},
		{2, 0, true},
		{5, 1, true},
		{10, 2, true},
		{19, 5, true},
		{40, 9, true},
	}
	for _, tc := range cases {
		m, ok := Select(tc.sinr)
		if ok != tc.ok {
			t.Errorf("Select(%v) ok = %v", tc.sinr, ok)
			continue
		}
		if ok && m.Index != tc.want {
			t.Errorf("Select(%v) = MCS%d, want MCS%d", tc.sinr, m.Index, tc.want)
		}
	}
}

func TestMCSTableMonotone(t *testing.T) {
	for i := 1; i < len(Table); i++ {
		if Table[i].MinSINRdB <= Table[i-1].MinSINRdB {
			t.Errorf("MCS thresholds not increasing at %d", i)
		}
		if Table[i].BitsPerSymbol <= Table[i-1].BitsPerSymbol {
			t.Errorf("MCS rates not increasing at %d", i)
		}
		if Table[i].Index != i {
			t.Errorf("MCS index mismatch at %d", i)
		}
	}
}

func TestShannonRate(t *testing.T) {
	if got := ShannonRate(3); math.Abs(got-2) > 1e-12 {
		t.Errorf("ShannonRate(3) = %v, want 2", got)
	}
	if got := ShannonRate(0); got != 0 {
		t.Errorf("ShannonRate(0) = %v", got)
	}
}

func TestAirtime(t *testing.T) {
	m := Table[7] // 64-QAM 5/6
	d, err := Airtime(1500, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= VHTPreamble {
		t.Errorf("airtime %v should exceed preamble", d)
	}
	// More streams → shorter airtime.
	d4, err := Airtime(1500, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d4 >= d {
		t.Errorf("4-stream airtime %v should beat 1-stream %v", d4, d)
	}
	// Longer payload → longer airtime.
	dBig, _ := Airtime(15000, m, 1)
	if dBig <= d {
		t.Errorf("larger payload should take longer: %v vs %v", dBig, d)
	}
}

func TestAirtimeErrors(t *testing.T) {
	if _, err := Airtime(100, Table[0], 0); err == nil {
		t.Error("nss=0 should error")
	}
	if _, err := Airtime(100, MCS{}, 1); err == nil {
		t.Error("zero-rate MCS should error")
	}
}

func TestAirtimeSymbolQuantised(t *testing.T) {
	m := Table[0]
	d, _ := Airtime(10, m, 1)
	if (d-VHTPreamble)%SymbolDuration != 0 {
		t.Errorf("airtime %v not symbol-aligned", d)
	}
	if d < VHTPreamble+SymbolDuration {
		t.Errorf("airtime %v too short", d)
	}
}

func mkH(s *rng.Source, r, c int) *matrix.Mat {
	h := matrix.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			h.Set(i, j, s.ComplexCircular(1))
		}
	}
	return h
}

func TestFeedbackCloseToTruth(t *testing.T) {
	s := rng.New(1)
	h := mkH(s, 4, 4)
	fb := DefaultSounding().Feedback(h, s)
	if fb.Rows() != 4 || fb.Cols() != 4 {
		t.Fatal("bad shape")
	}
	// Relative error should be small but nonzero.
	errNorm := fb.Sub(h).FrobeniusNorm() / h.FrobeniusNorm()
	if errNorm == 0 {
		t.Error("feedback should be lossy")
	}
	if errNorm > 0.25 {
		t.Errorf("feedback error %v too large", errNorm)
	}
}

func TestFeedbackDeterministic(t *testing.T) {
	h := mkH(rng.New(2), 2, 4)
	a := DefaultSounding().Feedback(h, rng.New(5))
	b := DefaultSounding().Feedback(h, rng.New(5))
	if !a.Equalish(b, 0) {
		t.Error("same source should give same feedback")
	}
}

func TestFeedbackPerfectWhenConfigured(t *testing.T) {
	h := mkH(rng.New(3), 3, 3)
	s := Sounding{EstimationSNRdB: math.Inf(1), PhaseBits: 0, MagBits: 0}
	fb := s.Feedback(h, rng.New(1))
	if !fb.Equalish(h, 1e-15) {
		t.Error("infinite SNR + no quantisation should be lossless")
	}
}

func TestQuantizeGridProperties(t *testing.T) {
	s := DefaultSounding()
	// Quantisation is idempotent.
	v := complex(0.3, -0.7)
	q1 := s.quantize(v)
	q2 := s.quantize(q1)
	if cmplx.Abs(q1-q2) > 1e-9 {
		t.Errorf("quantize not idempotent: %v vs %v", q1, q2)
	}
	if s.quantize(0) != 0 {
		t.Error("quantize(0) should be 0")
	}
	// Coarser quantisers are lossier on average.
	coarse := Sounding{EstimationSNRdB: math.Inf(1), PhaseBits: 2, MagBits: 2}
	fine := Sounding{EstimationSNRdB: math.Inf(1), PhaseBits: 10, MagBits: 10}
	src := rng.New(7)
	var coarseErr, fineErr float64
	for i := 0; i < 500; i++ {
		z := src.ComplexCircular(1)
		coarseErr += cmplx.Abs(coarse.quantize(z) - z)
		fineErr += cmplx.Abs(fine.quantize(z) - z)
	}
	if coarseErr <= fineErr {
		t.Errorf("coarse quantiser error %v should exceed fine %v", coarseErr, fineErr)
	}
}

// TestQuantizerTablesMatchFormula checks every tabulated level, and one
// level past each end of each table, against the formula bit for bit.
func TestQuantizerTablesMatchFormula(t *testing.T) {
	stepDB := 48.0 / float64(uint64(1)<<uint(magTableBits))
	if magTable.half < 500 || len(magTable.vals) != 2*magTable.half+1 {
		t.Fatalf("magnitude table holds %d levels around ±%d, want ±200 dB", len(magTable.vals), magTable.half)
	}
	for k := -magTable.half - 1; k <= magTable.half+1; k++ {
		db := float64(k) * stepDB
		want := math.Pow(10, db/20)
		if got := magTable.at(float64(k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("magnitude level %d = %v, formula %v", k, got, want)
		}
	}
	steps := float64(uint64(1) << uint(phaseTableBits))
	if 2*phaseTable.half != int(steps) {
		t.Fatalf("phase table spans ±%d, want ±%v", phaseTable.half, steps/2)
	}
	for j := -phaseTable.half - 1; j <= phaseTable.half+1; j++ {
		ph := float64(j) / steps * 2 * math.Pi
		sin, cos := math.Sincos(ph)
		got := phaseTable.at(float64(j))
		if math.Float64bits(got[0]) != math.Float64bits(sin) || math.Float64bits(got[1]) != math.Float64bits(cos) {
			t.Errorf("phase level %d = %v, formula (%v, %v)", j, got, sin, cos)
		}
	}
}

// TestQuantizeMatchesFormula pins quantize, tables included, to the
// direct magnitude/phase formula bit for bit at the default widths and
// at widths without a table, over entries from 1e-12 to 1e12 in
// magnitude (past the magnitude table's ±200 dB).
func TestQuantizeMatchesFormula(t *testing.T) {
	direct := func(s Sounding, v complex128) complex128 {
		if v == 0 {
			return 0
		}
		mag, ph := cmplx.Abs(v), cmplx.Phase(v)
		if s.PhaseBits > 0 {
			steps := float64(uint64(1) << uint(s.PhaseBits))
			ph = math.Round(ph/(2*math.Pi)*steps) / steps * 2 * math.Pi
		}
		if s.MagBits > 0 {
			stepDB := 48.0 / float64(uint64(1)<<uint(s.MagBits))
			db := 20 * math.Log10(mag)
			db = math.Round(db/stepDB) * stepDB
			mag = math.Pow(10, db/20)
		}
		return cmplx.Rect(mag, ph)
	}
	negZero := math.Copysign(0, -1)
	// Phases ±π (the phase table's ends), −0 and just below 0 (level
	// −0), and magnitudes far past the magnitude table.
	edges := []complex128{complex(-1, 0), complex(-1, negZero), complex(1, negZero), complex(1, -1e-9),
		complex(0, 1e-300), complex(1e300, 0)}
	src := rng.New(17)
	for _, bits := range [][2]int{{9, 7}, {0, 7}, {9, 0}, {0, 0}, {2, 2}, {10, 10}, {9, 10}, {2, 7}} {
		s := Sounding{PhaseBits: bits[0], MagBits: bits[1]}
		for i := 0; i < 2000; i++ {
			v := src.ComplexCircular(1) * complex(math.Pow(10, 24*src.Float64()-12), 0)
			if i < len(edges) {
				v = edges[i]
			}
			got, want := s.quantize(v), direct(s, v)
			if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
				t.Fatalf("widths %v: quantize(%v) = %v, formula %v", bits, v, got, want)
			}
		}
	}
}

func TestSoundingDegradesWithLowSNR(t *testing.T) {
	h := mkH(rng.New(11), 4, 4)
	relErr := func(estSNR float64) float64 {
		s := Sounding{EstimationSNRdB: estSNR, PhaseBits: 0, MagBits: 0}
		sum := 0.0
		for i := 0; i < 50; i++ {
			fb := s.Feedback(h, rng.New(int64(i)))
			sum += fb.Sub(h).FrobeniusNorm() / h.FrobeniusNorm()
		}
		return sum / 50
	}
	if lo, hi := relErr(30), relErr(10); lo >= hi {
		t.Errorf("estimation error at 30dB (%v) should beat 10dB (%v)", lo, hi)
	}
}

func TestAirtimeRealistic(t *testing.T) {
	// A 1500-byte frame at MCS7 single stream ≈ 40us preamble + ~11 symbols.
	d, _ := Airtime(1500, Table[7], 1)
	if d < 60*time.Microsecond || d > 150*time.Microsecond {
		t.Errorf("airtime %v outside plausible range", d)
	}
}
