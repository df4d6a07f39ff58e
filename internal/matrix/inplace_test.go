package matrix

import (
	"testing"

	"repro/internal/rng"
)

// identical reports bitwise equality of two matrices — the *Into kernels
// promise bit-identical results, not merely close ones.
func identical(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %d×%d, want %d×%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: entry (%d,%d) = %v, want %v (bitwise)", name, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestIntoKernelsBitExact(t *testing.T) {
	s := rng.New(7)
	shapes := []struct{ r, c int }{{2, 2}, {4, 4}, {4, 8}, {8, 4}, {8, 8}, {3, 5}}
	var ws Workspace
	for _, sh := range shapes {
		m := randomMat(s, sh.r, sh.c)
		sq := randomMat(s, sh.r, sh.r) // left-compatible square factor

		identical(t, "MulInto", MulInto(&Mat{}, sq, m), sq.Mul(m))
		identical(t, "GramInto", GramInto(&Mat{}, m), m.Mul(m.Hermitian()))
		identical(t, "GramTInto", GramTInto(&Mat{}, m), m.Hermitian().Mul(m))

		g := randomMat(s, sh.r, sh.c)
		identical(t, "MulHermInto", MulHermInto(&Mat{}, m, g), m.Hermitian().Mul(g))
		gr := randomMat(s, sh.r, sh.c)
		identical(t, "MulByHermInto", MulByHermInto(&Mat{}, gr, m), gr.Mul(m.Hermitian()))

		// PseudoInverseInto covers both the wide and tall branch via the
		// shape list.
		want, err := m.PseudoInverse()
		if err != nil {
			t.Fatalf("PseudoInverse(%d×%d): %v", sh.r, sh.c, err)
		}
		got := &Mat{}
		if err := PseudoInverseInto(got, m, &ws); err != nil {
			t.Fatalf("PseudoInverseInto(%d×%d): %v", sh.r, sh.c, err)
		}
		identical(t, "PseudoInverseInto", got, want)
	}
}

func TestMulVecInto(t *testing.T) {
	s := rng.New(9)
	m := randomMat(s, 4, 6)
	x := make([]complex128, 6)
	for i := range x {
		x[i] = s.ComplexCircular(1)
	}
	want := m.MulVec(x)
	got := MulVecInto(make([]complex128, 4), m, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInverseIntoBitExact(t *testing.T) {
	s := rng.New(11)
	var ws Workspace
	for _, n := range []int{1, 2, 4, 8} {
		m := randomMat(s, n, n)
		want, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		got := &Mat{}
		if err := InverseInto(got, m, &ws); err != nil {
			t.Fatal(err)
		}
		identical(t, "InverseInto", got, want)
	}
	if err := InverseInto(&Mat{}, New(3, 3), &ws); err != ErrSingular {
		t.Errorf("InverseInto(zero) = %v, want ErrSingular", err)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	mark := ws.Mark()
	a := ws.Take(4, 4)
	a.Set(0, 0, 3)
	ws.Release(mark)
	// A released slot comes back zeroed at any smaller-or-equal size.
	b := ws.Take(2, 8)
	if b.Rows() != 2 || b.Cols() != 8 {
		t.Fatalf("Take shape %d×%d", b.Rows(), b.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 8; j++ {
			if b.At(i, j) != 0 {
				t.Fatal("reused scratch not zeroed")
			}
		}
	}
	ws.Release(mark)
}

func TestWorkspaceZeroAlloc(t *testing.T) {
	var ws Workspace
	s := rng.New(19)
	m := randomMat(s, 8, 8)
	dst := &Mat{}
	// Warm up sizes once, then the checkout loop must be allocation-free.
	if err := PseudoInverseInto(dst, m, &ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := PseudoInverseInto(dst, m, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PseudoInverseInto allocates %v per run, want 0", allocs)
	}
}

func TestReuseAndCopyFrom(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 5)
	m.Reuse(2, 2)
	if m.At(1, 1) != 0 {
		t.Error("Reuse did not zero")
	}
	src := FromRows([][]complex128{{1, 2, 3}, {4, 5, 6}})
	m.CopyFrom(src)
	identical(t, "CopyFrom", m, src)
	// Growing past capacity still works.
	m.Reuse(10, 10)
	if m.Rows() != 10 || m.Cols() != 10 {
		t.Error("Reuse grow failed")
	}
}
