package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomMat(s *rng.Source, r, c int) *Mat {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, s.ComplexCircular(1))
		}
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 3+4i)
	if m.At(1, 2) != 3+4i {
		t.Errorf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 3+4i {
		t.Errorf("Row = %v", row)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 3)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong: %v", m)
	}
}

func TestIdentityMul(t *testing.T) {
	s := rng.New(1)
	a := randomMat(s, 4, 4)
	i4 := Identity(4)
	if !a.Mul(i4).Equalish(a, 1e-12) || !i4.Mul(a).Equalish(a, 1e-12) {
		t.Error("identity multiplication failed")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if !a.Mul(b).Equalish(want, 1e-12) {
		t.Errorf("Mul = %v", a.Mul(b))
	}
}

func TestMulComplex(t *testing.T) {
	a := FromRows([][]complex128{{1i}})
	b := FromRows([][]complex128{{1i}})
	if got := a.Mul(b).At(0, 0); got != -1 {
		t.Errorf("i*i = %v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	got := a.MulVec([]complex128{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}})
	b := FromRows([][]complex128{{10, 20}})
	if got := a.Add(b); got.At(0, 1) != 22 {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got.At(0, 0) != 9 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2i); got.At(0, 0) != 2i {
		t.Errorf("Scale = %v", got)
	}
}

func TestHermitian(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 2i}})
	h := a.Hermitian()
	if h.At(0, 0) != 1-1i || h.At(1, 0) != 2 || h.At(0, 1) != 3 || h.At(1, 1) != 4+2i {
		t.Errorf("Hermitian = %v", h)
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]complex128{{3, 4}, {0, 0}})
	if got := a.FrobeniusNorm(); got != 5 {
		t.Errorf("Frobenius = %v", got)
	}
	if got := a.RowPower(0); got != 25 {
		t.Errorf("RowPower = %v", got)
	}
	if got := a.ColPower(1); got != 16 {
		t.Errorf("ColPower = %v", got)
	}
	row, p := a.MaxRowPower()
	if row != 0 || p != 25 {
		t.Errorf("MaxRowPower = %d,%v", row, p)
	}
}

func TestScaleColNormalizeCols(t *testing.T) {
	a := FromRows([][]complex128{{3, 1}, {4, 0}})
	a.ScaleCol(0, 0.5)
	if a.At(0, 0) != 1.5 || a.At(1, 0) != 2 {
		t.Errorf("ScaleCol = %v", a)
	}
	a.NormalizeCols()
	for j := 0; j < 2; j++ {
		if math.Abs(a.ColPower(j)-1) > 1e-12 {
			t.Errorf("col %d power = %v", j, a.ColPower(j))
		}
	}
	// Zero column stays zero.
	z := New(2, 1)
	z.NormalizeCols()
	if z.ColPower(0) != 0 {
		t.Error("zero column should be untouched")
	}
}

func TestInverseKnown(t *testing.T) {
	a := FromRows([][]complex128{{4, 7}, {2, 6}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]complex128{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.Equalish(want, 1e-12) {
		t.Errorf("Inverse = %v", inv)
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	z := New(3, 3)
	if _, err := z.Inverse(); err != ErrSingular {
		t.Errorf("zero matrix err = %v", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err != ErrShape {
		t.Error("expected ErrShape")
	}
}

func TestInverseRandomProperty(t *testing.T) {
	s := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(6)
		a := randomMat(s, n, n)
		inv, err := a.Inverse()
		if err != nil {
			continue // singular random draw, astronomically unlikely
		}
		if !a.Mul(inv).Equalish(Identity(n), 1e-8) {
			t.Fatalf("A·A⁻¹ != I for n=%d", n)
		}
		if !inv.Mul(a).Equalish(Identity(n), 1e-8) {
			t.Fatalf("A⁻¹·A != I for n=%d", n)
		}
	}
}

func TestPseudoInverseWide(t *testing.T) {
	// Wide full-rank matrix: H·H† = I.
	s := rng.New(7)
	for trial := 0; trial < 30; trial++ {
		r := 2 + s.Intn(3)
		c := r + s.Intn(3) + 1 // c > r
		h := randomMat(s, r, c)
		pinv, err := h.PseudoInverse()
		if err != nil {
			t.Fatal(err)
		}
		if pinv.Rows() != c || pinv.Cols() != r {
			t.Fatalf("pinv shape %dx%d", pinv.Rows(), pinv.Cols())
		}
		if !h.Mul(pinv).Equalish(Identity(r), 1e-8) {
			t.Fatal("H·H† != I for wide H")
		}
	}
}

func TestPseudoInverseTall(t *testing.T) {
	s := rng.New(8)
	h := randomMat(s, 5, 3)
	pinv, err := h.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	if !pinv.Mul(h).Equalish(Identity(3), 1e-8) {
		t.Error("H†·H != I for tall H")
	}
}

func TestPseudoInverseSquareMatchesInverse(t *testing.T) {
	s := rng.New(9)
	a := randomMat(s, 4, 4)
	pinv, err := a.PseudoInverse()
	if err != nil {
		t.Fatal(err)
	}
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !pinv.Equalish(inv, 1e-7) {
		t.Error("square pseudoinverse != inverse")
	}
}

// Property: Moore–Penrose conditions H·H†·H = H and H†·H·H† = H†.
func TestPenroseConditionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := rng.New(seed)
		r := 1 + s.Intn(4)
		c := r + s.Intn(4)
		h := randomMat(s, r, c)
		pinv, err := h.PseudoInverse()
		if err != nil {
			return true // skip singular draws
		}
		c1 := h.Mul(pinv).Mul(h).Equalish(h, 1e-7)
		c2 := pinv.Mul(h).Mul(pinv).Equalish(pinv, 1e-7)
		return c1 && c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDiagOffDiag(t *testing.T) {
	a := FromRows([][]complex128{{1, 5}, {0.25, 2}})
	if got := a.OffDiagMax(); got != 5 {
		t.Errorf("OffDiagMax = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]complex128{{1}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone is shallow")
	}
}

func TestEqualishShapes(t *testing.T) {
	if New(1, 2).Equalish(New(2, 1), 1) {
		t.Error("different shapes must not be Equalish")
	}
}

func TestStringSmoke(t *testing.T) {
	if s := FromRows([][]complex128{{1 + 2i}}).String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkMul4x4(b *testing.B) {
	s := rng.New(1)
	x := randomMat(s, 4, 4)
	y := randomMat(s, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

// benchMulInto covers the destination-passing multiply at the shapes the
// DES exercises: square 4×4/8×8 and the rectangular 4×8 channel times its
// 8×4 precoder.
func benchMulInto(b *testing.B, r, k, c int) {
	b.Helper()
	s := rng.New(1)
	x := randomMat(s, r, k)
	y := randomMat(s, k, c)
	var dst Mat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(&dst, x, y)
	}
}

func BenchmarkMulInto4x4(b *testing.B)   { benchMulInto(b, 4, 4, 4) }
func BenchmarkMulInto8x8(b *testing.B)   { benchMulInto(b, 8, 8, 8) }
func BenchmarkMulInto4x8x4(b *testing.B) { benchMulInto(b, 4, 8, 4) }

func BenchmarkMulVec8(b *testing.B) {
	s := rng.New(1)
	m := randomMat(s, 8, 8)
	x := make([]complex128, 8)
	for i := range x {
		x[i] = s.ComplexCircular(1)
	}
	dst := make([]complex128, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulVecInto(dst, m, x)
	}
}

func benchGram(b *testing.B, r, c int) {
	b.Helper()
	s := rng.New(1)
	m := randomMat(s, r, c)
	var dst Mat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GramInto(&dst, m)
	}
}

func BenchmarkGram4x4(b *testing.B) { benchGram(b, 4, 4) }
func BenchmarkGram8x8(b *testing.B) { benchGram(b, 8, 8) }
func BenchmarkGram4x8(b *testing.B) { benchGram(b, 4, 8) }

func BenchmarkPseudoInverse4x4(b *testing.B) {
	s := rng.New(1)
	h := randomMat(s, 4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.PseudoInverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPseudoInverseInto(b *testing.B, r, c int) {
	b.Helper()
	s := rng.New(1)
	h := randomMat(s, r, c)
	var dst Mat
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := PseudoInverseInto(&dst, h, &ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPseudoInverseInto4x4(b *testing.B) { benchPseudoInverseInto(b, 4, 4) }
func BenchmarkPseudoInverseInto8x8(b *testing.B) { benchPseudoInverseInto(b, 8, 8) }
func BenchmarkPseudoInverseInto4x8(b *testing.B) { benchPseudoInverseInto(b, 4, 8) }
