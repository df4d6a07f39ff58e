// Destination-passing kernels for the precoding hot path. Every TXOP of
// the DES recomputes a ZFBF/power-balanced precoder; the value-returning
// API in matrix.go allocates a fresh matrix per operation, which dominates
// the per-core cost of small (4×4–8×8) problems. The *Into variants below
// write into caller-owned storage instead, and the fused kernels (Gram,
// MulHerm) skip the intermediate Hermitian entirely.
//
// Bit-exactness contract: each *Into kernel performs the same floating-
// point operations in the same order as the value-returning composition it
// replaces (e.g. GramInto(dst, m) ≡ m.Mul(m.Hermitian()), including the
// zero-entry skip), so figure-level outputs are unchanged to the last bit.
//
// Aliasing: unless documented otherwise, dst must not alias any input.
package matrix

import (
	"fmt"
	"math/cmplx"
)

// abs2 is the squared modulus |v|² — cheaper than cmplx.Abs and order-
// preserving, so it can stand in for it in magnitude comparisons.
func abs2(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// Reuse reshapes m to r×c, reusing the backing array when it has capacity
// and zeroing all entries. It returns m for chaining. A zero-value Mat is
// a valid target. This is the growth primitive behind Workspace: in steady
// state (shapes no larger than previously seen) it does not allocate.
func (m *Mat) Reuse(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", r, c))
	}
	n := r * c
	if cap(m.a) < n {
		m.a = make([]complex128, n)
	} else {
		m.a = m.a[:n]
		for i := range m.a {
			m.a[i] = 0
		}
	}
	m.r, m.c = r, c
	return m
}

// CopyFrom reshapes m to src's shape (reusing backing storage when
// possible) and copies src's entries. Returns m for chaining.
func (m *Mat) CopyFrom(src *Mat) *Mat {
	n := src.r * src.c
	if cap(m.a) < n {
		m.a = make([]complex128, n)
	} else {
		m.a = m.a[:n]
	}
	m.r, m.c = src.r, src.c
	copy(m.a, src.a)
	return m
}

// SetIdentity reshapes m to n×n and sets it to the identity.
func (m *Mat) SetIdentity(n int) *Mat {
	m.Reuse(n, n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 1
	}
	return m
}

// MulInto computes dst = a·b. dst is reshaped to a.Rows()×b.Cols() and
// must not alias a or b. Bit-identical to a.Mul(b).
func MulInto(dst, a, b *Mat) *Mat {
	if a.c != b.r {
		panic(ErrShape)
	}
	dst.Reuse(a.r, b.c)
	for i := 0; i < a.r; i++ {
		outBase := i * b.c
		for k := 0; k < a.c; k++ {
			aik := a.a[i*a.c+k]
			if aik == 0 {
				continue
			}
			base := k * b.c
			for j := 0; j < b.c; j++ {
				dst.a[outBase+j] += aik * b.a[base+j]
			}
		}
	}
	return dst
}

// MulVecInto computes dst = m·x for a column vector x of length m.Cols(),
// writing into dst (which must have length m.Rows() and not alias x).
// Bit-identical to m.MulVec(x).
func MulVecInto(dst []complex128, m *Mat, x []complex128) []complex128 {
	if len(x) != m.c || len(dst) != m.r {
		panic(ErrShape)
	}
	for i := 0; i < m.r; i++ {
		var s complex128
		base := i * m.c
		for j := 0; j < m.c; j++ {
			s += m.a[base+j] * x[j]
		}
		dst[i] = s
	}
	return dst
}

// GramInto computes the Gram matrix dst = m·mᴴ (Rows×Rows) without
// materialising the Hermitian. Bit-identical to m.Mul(m.Hermitian()).
func GramInto(dst, m *Mat) *Mat {
	r, c := m.r, m.c
	if r == 4 && c == 4 {
		return gram4(dst, m)
	}
	dst.Reuse(r, r)
	for i := 0; i < r; i++ {
		out := dst.a[i*r : i*r+r]
		mrow := m.a[i*c : i*c+c]
		for k := 0; k < c; k++ {
			mik := mrow[k]
			if mik == 0 {
				continue
			}
			// Hermitian row k is conj of m's column k (stride-c walk).
			jk := k
			for j := 0; j < r; j++ {
				out[j] += mik * cmplx.Conj(m.a[jk])
				jk += c
			}
		}
	}
	return dst
}

// GramTInto computes dst = mᴴ·m (Cols×Cols) without materialising the
// Hermitian. Bit-identical to m.Hermitian().Mul(m).
func GramTInto(dst, m *Mat) *Mat {
	dst.Reuse(m.c, m.c)
	for i := 0; i < m.c; i++ {
		outBase := i * m.c
		for k := 0; k < m.r; k++ {
			// Hermitian entry (i,k) is conj of m's (k,i).
			hik := cmplx.Conj(m.a[k*m.c+i])
			if hik == 0 {
				continue
			}
			base := k * m.c
			for j := 0; j < m.c; j++ {
				dst.a[outBase+j] += hik * m.a[base+j]
			}
		}
	}
	return dst
}

// MulHermInto computes dst = mᴴ·g without materialising mᴴ.
// Bit-identical to m.Hermitian().Mul(g).
func MulHermInto(dst, m, g *Mat) *Mat {
	if m.r != g.r {
		panic(ErrShape)
	}
	gc := g.c
	if m.r == 4 && m.c == 4 && gc == 4 {
		return mulHerm4(dst, m, g)
	}
	dst.Reuse(m.c, gc)
	for i := 0; i < m.c; i++ {
		out := dst.a[i*gc : i*gc+gc]
		ki := i
		for k := 0; k < m.r; k++ {
			hik := cmplx.Conj(m.a[ki])
			ki += m.c
			if hik == 0 {
				continue
			}
			grow := g.a[k*gc : k*gc+gc]
			for j, gv := range grow {
				out[j] += hik * gv
			}
		}
	}
	return dst
}

// MulByHermInto computes dst = g·mᴴ without materialising mᴴ.
// Bit-identical to g.Mul(m.Hermitian()).
func MulByHermInto(dst, g, m *Mat) *Mat {
	if g.c != m.c {
		panic(ErrShape)
	}
	dst.Reuse(g.r, m.r)
	for i := 0; i < g.r; i++ {
		outBase := i * m.r
		for k := 0; k < g.c; k++ {
			gik := g.a[i*g.c+k]
			if gik == 0 {
				continue
			}
			// Hermitian row k is conj of m's column k.
			for j := 0; j < m.r; j++ {
				dst.a[outBase+j] += gik * cmplx.Conj(m.a[j*m.c+k])
			}
		}
	}
	return dst
}

// InverseInto computes dst = src⁻¹ by the same Gauss–Jordan elimination
// with partial pivoting as Inverse (bit-identical results), scratching in
// ws instead of allocating. dst must not alias src.
func InverseInto(dst, src *Mat, ws *Workspace) error {
	if src.r != src.c {
		return ErrShape
	}
	n := src.r
	mark := ws.Mark()
	defer ws.Release(mark)
	a := ws.TakeCopy(src)
	dst.SetIdentity(n)
	if n == 4 {
		return inverse4(dst, a)
	}
	const tol = 1e-13
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return ErrSingular
	}
	tolScale2 := tol * scale
	tolScale2 *= tolScale2
	for col := 0; col < n; col++ {
		// Pivot comparisons use squared magnitudes (|x|² = re²+im²) in
		// place of Inverse's cmplx.Abs: strictly monotone in |x|, so the
		// chosen pivot — and hence every arithmetic result — matches
		// unless two candidates agree to within rounding error, which the
		// equivalence tests would surface.
		p := col
		best := abs2(a.a[col*n+col])
		for row := col + 1; row < n; row++ {
			if v := abs2(a.a[row*n+col]); v > best {
				p, best = row, v
			}
		}
		if best <= tolScale2 {
			return ErrSingular
		}
		if p != col {
			a.swapRows(p, col)
			dst.swapRows(p, col)
		}
		acol := a.a[col*n : col*n+n]
		dcol := dst.a[col*n : col*n+n]
		piv := acol[col]
		for j := 0; j < n; j++ {
			acol[j] /= piv
			dcol[j] /= piv
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			arow := a.a[row*n : row*n+n]
			f := arow[col]
			if f == 0 {
				continue
			}
			drow := dst.a[row*n : row*n+n]
			for j := 0; j < n; j++ {
				arow[j] -= f * acol[j]
				drow[j] -= f * dcol[j]
			}
		}
	}
	return nil
}

// PseudoInverseInto computes dst = src† (Moore–Penrose pseudoinverse of a
// full-rank matrix), scratching in ws. For a wide matrix it computes the
// right inverse srcᴴ(src·srcᴴ)⁻¹; for a tall one, the left inverse
// (srcᴴ·src)⁻¹srcᴴ. The Gram products and the Gauss–Jordan inversion
// replay PseudoInverse's arithmetic exactly, so results are bit-identical.
// dst must not alias src.
func PseudoInverseInto(dst, src *Mat, ws *Workspace) error {
	mark := ws.Mark()
	if src.r <= src.c {
		gram := GramInto(ws.takeDirty(), src) // src·srcᴴ, r×r
		g := ws.takeDirty()
		if err := InverseInto(g, gram, ws); err != nil {
			ws.Release(mark)
			return fmt.Errorf("pseudoinverse: %w", err)
		}
		MulHermInto(dst, src, g) // srcᴴ·(src·srcᴴ)⁻¹
		ws.Release(mark)
		return nil
	}
	gram := GramTInto(ws.takeDirty(), src) // srcᴴ·src, c×c
	g := ws.takeDirty()
	if err := InverseInto(g, gram, ws); err != nil {
		ws.Release(mark)
		return fmt.Errorf("pseudoinverse: %w", err)
	}
	MulByHermInto(dst, g, src) // (srcᴴ·src)⁻¹·srcᴴ
	ws.Release(mark)
	return nil
}

// Workspace is a reusable scratch arena for the *Into kernels. Take hands
// out scratch matrices in stack order; Mark/Release scope them so nested
// kernels (PseudoInverseInto calling InverseInto) compose. Each slot owns
// backing storage that grows to the largest shape it has held, so a
// workspace reused across same-sized problems performs no allocations in
// steady state. A Workspace is not safe for concurrent use.
type Workspace struct {
	mats []*Mat
	top  int
}

// Mark returns the current stack position for a later Release.
func (w *Workspace) Mark() int { return w.top }

// Release pops every matrix taken since the matching Mark. The popped
// matrices' storage stays with the workspace for reuse; the caller must
// not retain pointers to them past the Release.
func (w *Workspace) Release(mark int) {
	if mark < 0 || mark > w.top {
		panic("matrix: bad workspace mark")
	}
	w.top = mark
}

// Take returns an r×c zeroed scratch matrix owned by the workspace, valid
// until the enclosing Release.
func (w *Workspace) Take(r, c int) *Mat {
	if w.top == len(w.mats) {
		w.mats = append(w.mats, &Mat{})
	}
	m := w.mats[w.top]
	w.top++
	return m.Reuse(r, c)
}

// takeDirty is Take without the zero fill, for kernels that fully
// initialise their destination (MulInto, GramInto, InverseInto, … all
// reshape dst themselves).
func (w *Workspace) takeDirty() *Mat {
	if w.top == len(w.mats) {
		w.mats = append(w.mats, &Mat{})
	}
	m := w.mats[w.top]
	w.top++
	return m
}

// TakeCopy returns a workspace copy of src (no intermediate zeroing).
func (w *Workspace) TakeCopy(src *Mat) *Mat {
	if w.top == len(w.mats) {
		w.mats = append(w.mats, &Mat{})
	}
	m := w.mats[w.top]
	w.top++
	return m.CopyFrom(src)
}
