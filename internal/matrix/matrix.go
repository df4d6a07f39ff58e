// Package matrix implements the dense complex-valued linear algebra needed
// by MU-MIMO precoding: multiplication, Hermitian transpose, inversion with
// partial pivoting, the Moore–Penrose pseudoinverse (the closed-form ZFBF
// precoder, §3.1.1 of the MIDAS paper), and norms.
//
// Matrices are dense, row-major, and sized at construction. The package is
// stdlib-only and deterministic.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// ErrSingular is returned when inverting a (numerically) singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// ErrShape is returned for dimension mismatches.
var ErrShape = errors.New("matrix: dimension mismatch")

// Mat is a dense complex matrix with row-major storage.
type Mat struct {
	r, c int
	a    []complex128
}

// New returns an r×c zero matrix.
func New(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", r, c))
	}
	return &Mat{r: r, c: c, a: make([]complex128, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Mat {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows on empty data")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.c {
			panic("matrix: ragged rows")
		}
		copy(m.a[i*m.c:(i+1)*m.c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.r }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.c }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) complex128 { return m.a[i*m.c+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v complex128) { m.a[i*m.c+j] = v }

// Row returns a copy of row i.
func (m *Mat) Row(i int) []complex128 {
	out := make([]complex128, m.c)
	copy(out, m.a[i*m.c:(i+1)*m.c])
	return out
}

// Raw exposes the row-major backing slice (entry (i,j) is Raw()[i*Cols()+j]).
// It is intended for allocation-free kernels that need direct indexing;
// mutating it mutates the matrix.
func (m *Mat) Raw() []complex128 { return m.a }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	n := New(m.r, m.c)
	copy(n.a, m.a)
	return n
}

// Equalish reports whether m and n have the same shape and all entries
// within tol of each other (by complex modulus of the difference).
func (m *Mat) Equalish(n *Mat, tol float64) bool {
	if m.r != n.r || m.c != n.c {
		return false
	}
	for i := range m.a {
		if cmplx.Abs(m.a[i]-n.a[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			if j > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, "%.4g%+.4gi", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Add returns m + n.
func (m *Mat) Add(n *Mat) *Mat {
	m.mustSameShape(n)
	out := New(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] + n.a[i]
	}
	return out
}

// Sub returns m - n.
func (m *Mat) Sub(n *Mat) *Mat {
	m.mustSameShape(n)
	out := New(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] - n.a[i]
	}
	return out
}

func (m *Mat) mustSameShape(n *Mat) {
	if m.r != n.r || m.c != n.c {
		panic(ErrShape)
	}
}

// Scale returns k*m.
func (m *Mat) Scale(k complex128) *Mat {
	out := New(m.r, m.c)
	for i := range m.a {
		out.a[i] = k * m.a[i]
	}
	return out
}

// Mul returns the matrix product m·n. It panics unless m.Cols() == n.Rows().
func (m *Mat) Mul(n *Mat) *Mat {
	if m.c != n.r {
		panic(ErrShape)
	}
	out := New(m.r, n.c)
	for i := 0; i < m.r; i++ {
		for k := 0; k < m.c; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			base := k * n.c
			outBase := i * n.c
			for j := 0; j < n.c; j++ {
				out.a[outBase+j] += mik * n.a[base+j]
			}
		}
	}
	return out
}

// MulVec returns m·x for a column vector x of length m.Cols().
func (m *Mat) MulVec(x []complex128) []complex128 {
	if len(x) != m.c {
		panic(ErrShape)
	}
	out := make([]complex128, m.r)
	for i := 0; i < m.r; i++ {
		var s complex128
		base := i * m.c
		for j := 0; j < m.c; j++ {
			s += m.a[base+j] * x[j]
		}
		out[i] = s
	}
	return out
}

// Hermitian returns the conjugate transpose mᴴ.
func (m *Mat) Hermitian() *Mat {
	out := New(m.c, m.r)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// FrobeniusNorm returns sqrt(Σ|a_ij|²).
func (m *Mat) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.a {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// RowPower returns Σ_j |a_ij|² for row i — the transmit power loading of
// antenna i when the matrix is a precoder (rows = antennas).
func (m *Mat) RowPower(i int) float64 {
	s := 0.0
	for _, v := range m.a[i*m.c : (i+1)*m.c] {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// ColPower returns Σ_i |a_ij|² for column j — the total power assigned to
// stream j when the matrix is a precoder (columns = streams).
func (m *Mat) ColPower(j int) float64 {
	s := 0.0
	for ij := j; ij < len(m.a); ij += m.c {
		v := m.a[ij]
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// MaxRowPower returns the largest row power and its row index.
func (m *Mat) MaxRowPower() (row int, power float64) {
	power = math.Inf(-1)
	for i := 0; i < m.r; i++ {
		if p := m.RowPower(i); p > power {
			row, power = i, p
		}
	}
	return row, power
}

// ScaleCol multiplies column j in place by the real factor w.
func (m *Mat) ScaleCol(j int, w float64) {
	for ij := j; ij < len(m.a); ij += m.c {
		m.a[ij] *= complex(w, 0)
	}
}

// ScaleCol2 multiplies column j in place by w1 and then by w2 as two
// successive multiplications per element — bit-identical to
// ScaleCol(j, w1); ScaleCol(j, w2) but in a single pass.
func (m *Mat) ScaleCol2(j int, w1, w2 float64) {
	c1, c2 := complex(w1, 0), complex(w2, 0)
	for ij := j; ij < len(m.a); ij += m.c {
		v := m.a[ij] * c1
		m.a[ij] = v * c2
	}
}

// NormalizeCols scales every column to unit L2 norm (zero columns are left
// untouched). Returns the receiver for chaining.
func (m *Mat) NormalizeCols() *Mat {
	for j := 0; j < m.c; j++ {
		p := m.ColPower(j)
		if p > 0 {
			m.ScaleCol(j, 1/math.Sqrt(p))
		}
	}
	return m
}

// Inverse returns m⁻¹ computed by Gauss–Jordan elimination with partial
// pivoting. It returns ErrSingular when a pivot is smaller than tol times
// the largest row magnitude.
func (m *Mat) Inverse() (*Mat, error) {
	if m.r != m.c {
		return nil, ErrShape
	}
	n := m.r
	// Augmented [A | I] worked in place.
	a := m.Clone()
	inv := Identity(n)
	const tol = 1e-13
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return nil, ErrSingular
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest |a[row][col]| for row >= col.
		p := col
		best := cmplx.Abs(a.At(col, col))
		for row := col + 1; row < n; row++ {
			if v := cmplx.Abs(a.At(row, col)); v > best {
				p, best = row, v
			}
		}
		if best <= tol*scale {
			return nil, ErrSingular
		}
		if p != col {
			a.swapRows(p, col)
			inv.swapRows(p, col)
		}
		// Normalise pivot row.
		piv := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/piv)
			inv.Set(col, j, inv.At(col, j)/piv)
		}
		// Eliminate other rows.
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			f := a.At(row, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(row, j, a.At(row, j)-f*a.At(col, j))
				inv.Set(row, j, inv.At(row, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func (m *Mat) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.a[i*m.c : (i+1)*m.c]
	rj := m.a[j*m.c : (j+1)*m.c]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// PseudoInverse returns the Moore–Penrose pseudoinverse H† of a full-rank
// matrix. For a wide matrix (r <= c, the usual MU-MIMO downlink case with
// clients <= antennas) it computes the right inverse Hᴴ(HHᴴ)⁻¹; for a tall
// matrix, the left inverse (HᴴH)⁻¹Hᴴ.
func (m *Mat) PseudoInverse() (*Mat, error) {
	h := m.Hermitian()
	if m.r <= m.c {
		g, err := m.Mul(h).Inverse() // (H Hᴴ)⁻¹, r×r
		if err != nil {
			return nil, fmt.Errorf("pseudoinverse: %w", err)
		}
		return h.Mul(g), nil
	}
	g, err := h.Mul(m).Inverse() // (Hᴴ H)⁻¹, c×c
	if err != nil {
		return nil, fmt.Errorf("pseudoinverse: %w", err)
	}
	return g.Mul(h), nil
}

// OffDiagMax returns the largest |a_ij| with i != j — used to verify the
// zero-interference property of ZFBF (the SINR matrix must be diagonal).
func (m *Mat) OffDiagMax() float64 {
	max := 0.0
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			if i == j {
				continue
			}
			if v := cmplx.Abs(m.At(i, j)); v > max {
				max = v
			}
		}
	}
	return max
}
