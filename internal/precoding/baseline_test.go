// This file is an independent oracle for the live Solver: a frozen copy
// of the allocating linear-algebra path that shipped before the in-place
// kernels and the Solver workspace. Each function is a verbatim
// transcription of that code — the same operations in the same order,
// via the matrix package's public accessors — and shares no code with
// Solver, so TestBaselineMatchesLive catches a live-path change that
// moves a single bit. It is deliberately NOT maintained for speed.
package precoding

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/matrix"
)

// baseMul is the pre-workspace matrix.Mul: allocate, then accumulate rows.
func baseMul(m, n *matrix.Mat) *matrix.Mat {
	if m.Cols() != n.Rows() {
		panic(matrix.ErrShape)
	}
	out := matrix.New(m.Rows(), n.Cols())
	ma, na, oa := m.Raw(), n.Raw(), out.Raw()
	mc, nc := m.Cols(), n.Cols()
	for i := 0; i < m.Rows(); i++ {
		for k := 0; k < mc; k++ {
			mik := ma[i*mc+k]
			if mik == 0 {
				continue
			}
			base := k * nc
			outBase := i * nc
			for j := 0; j < nc; j++ {
				oa[outBase+j] += mik * na[base+j]
			}
		}
	}
	return out
}

// baseHermitian is the pre-workspace matrix.Hermitian.
func baseHermitian(m *matrix.Mat) *matrix.Mat {
	out := matrix.New(m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

func baseSwapRows(m *matrix.Mat, i, j int) {
	if i == j {
		return
	}
	c := m.Cols()
	a := m.Raw()
	ri := a[i*c : (i+1)*c]
	rj := a[j*c : (j+1)*c]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// baseInverse is the pre-workspace matrix.Inverse: Gauss–Jordan on a fresh clone
// against a fresh identity, pivot comparisons through cmplx.Abs.
func baseInverse(m *matrix.Mat) (*matrix.Mat, error) {
	if m.Rows() != m.Cols() {
		return nil, matrix.ErrShape
	}
	n := m.Rows()
	a := m.Clone()
	inv := matrix.Identity(n)
	const tol = 1e-13
	scale := a.FrobeniusNorm()
	if scale == 0 {
		return nil, matrix.ErrSingular
	}
	for col := 0; col < n; col++ {
		p := col
		best := cmplx.Abs(a.At(col, col))
		for row := col + 1; row < n; row++ {
			if v := cmplx.Abs(a.At(row, col)); v > best {
				p, best = row, v
			}
		}
		if best <= tol*scale {
			return nil, matrix.ErrSingular
		}
		if p != col {
			baseSwapRows(a, p, col)
			baseSwapRows(inv, p, col)
		}
		piv := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/piv)
			inv.Set(col, j, inv.At(col, j)/piv)
		}
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

// basePseudoInverse is the pre-workspace matrix.PseudoInverse: materialised
// Hermitian, allocating product, Gauss–Jordan inverse, allocating product.
func basePseudoInverse(m *matrix.Mat) (*matrix.Mat, error) {
	h := baseHermitian(m)
	if m.Rows() <= m.Cols() {
		g, err := baseInverse(baseMul(m, h))
		if err != nil {
			return nil, fmt.Errorf("pseudoinverse: %w", err)
		}
		return baseMul(h, g), nil
	}
	g, err := baseInverse(baseMul(h, m))
	if err != nil {
		return nil, fmt.Errorf("pseudoinverse: %w", err)
	}
	return baseMul(g, h), nil
}

func baseColPower(m *matrix.Mat, j int) float64 {
	s := 0.0
	for i := 0; i < m.Rows(); i++ {
		v := m.At(i, j)
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

func baseScaleCol(m *matrix.Mat, j int, w float64) {
	for i := 0; i < m.Rows(); i++ {
		m.Set(i, j, m.At(i, j)*complex(w, 0))
	}
}

func baseNormalizeCols(m *matrix.Mat) {
	for j := 0; j < m.Cols(); j++ {
		p := baseColPower(m, j)
		if p > 0 {
			baseScaleCol(m, j, 1/math.Sqrt(p))
		}
	}
}

func baseRowPower(m *matrix.Mat, i int) float64 {
	s := 0.0
	for j := 0; j < m.Cols(); j++ {
		v := m.At(i, j)
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

func baseMaxRowPower(m *matrix.Mat) (row int, power float64) {
	power = math.Inf(-1)
	for i := 0; i < m.Rows(); i++ {
		if p := baseRowPower(m, i); p > power {
			row, power = i, p
		}
	}
	return row, power
}

// baselineZFBF is the pre-workspace ZFBF.
func baselineZFBF(p Problem) (*matrix.Mat, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	v, err := basePseudoInverse(p.H)
	if err != nil {
		return nil, fmt.Errorf("precoding: ZFBF: %w", err)
	}
	baseNormalizeCols(v)
	streamPower := float64(p.H.Cols()) * p.PerAntennaPower / float64(v.Cols())
	for j := 0; j < v.Cols(); j++ {
		baseScaleCol(v, j, math.Sqrt(streamPower))
	}
	return v, nil
}

// baselineNaiveScaled is the pre-workspace NaiveScaled.
func baselineNaiveScaled(p Problem) (*matrix.Mat, error) {
	v, err := baselineZFBF(p)
	if err != nil {
		return nil, err
	}
	_, worst := baseMaxRowPower(v)
	if worst > p.PerAntennaPower {
		scale := math.Sqrt(p.PerAntennaPower / worst)
		for j := 0; j < v.Cols(); j++ {
			baseScaleCol(v, j, scale)
		}
	}
	return v, nil
}

const basePowerFloor = 1e-4

// baselinePowerBalanced is the pre-workspace PowerBalanced: fresh
// slices per round, stream SNRs through a full allocating matrix product,
// reverse water-filling with per-call slices, a closure-based bisection
// objective and sort.Slice.
func baselinePowerBalanced(p Problem) (*matrix.Mat, int, error) {
	v, err := baselineZFBF(p)
	if err != nil {
		return nil, 0, err
	}
	nT, nC := v.Rows(), v.Cols()
	weights := make([]float64, nC)
	for j := range weights {
		weights[j] = 1
	}
	const tol = 1e-12
	iters := 0
	for ; iters < nT+1; iters++ {
		k, worst := baseMaxRowPower(v)
		if worst <= p.PerAntennaPower*(1+tol) {
			break
		}
		rho := baseStreamSNRs(p.H, v, p.Noise)
		row := make([]float64, nC)
		for j := 0; j < nC; j++ {
			e := v.At(k, j)
			row[j] = real(e)*real(e) + imag(e)*imag(e)
		}
		w, err := baseReverseWaterfill(row, rho, p.PerAntennaPower)
		if err != nil {
			return nil, 0, fmt.Errorf("precoding: row %d: %w", k, err)
		}
		for j := 0; j < nC; j++ {
			if w[j] < 1 {
				baseScaleCol(v, j, w[j])
				weights[j] *= w[j]
			}
		}
	}
	if _, worst := baseMaxRowPower(v); worst > p.PerAntennaPower*(1+1e-6) {
		return nil, 0, fmt.Errorf("precoding: power balancing did not converge (row power %v > %v)",
			worst, p.PerAntennaPower)
	}
	return v, iters, nil
}

func baseStreamSNRs(h, v *matrix.Mat, noise float64) []float64 {
	a := baseMul(h, v)
	out := make([]float64, a.Cols())
	for j := range out {
		e := a.At(j, j)
		out[j] = (real(e)*real(e) + imag(e)*imag(e)) / noise
	}
	return out
}

func baseReverseWaterfill(row, rho []float64, budget float64) ([]float64, error) {
	n := len(row)
	if len(rho) != n {
		return nil, errors.New("reverse waterfill: length mismatch")
	}
	have := 0.0
	for _, r := range row {
		have += r
	}
	need := have - budget
	w := make([]float64, n)
	for j := range w {
		w[j] = 1
	}
	if need <= 0 {
		return w, nil
	}
	type stream struct {
		t, cap float64
		idx    int
	}
	ss := make([]stream, n)
	maxRed := 0.0
	for j := range ss {
		r := rho[j]
		if r <= 0 || math.IsNaN(r) {
			ss[j] = stream{t: math.Inf(1), cap: (1 - basePowerFloor) * row[j], idx: j}
		} else {
			ss[j] = stream{t: (1 + 1/r) * row[j], cap: (1 - basePowerFloor) * row[j], idx: j}
		}
		maxRed += ss[j].cap
	}
	if need > maxRed {
		return nil, fmt.Errorf("reverse waterfill: need %v exceeds reducible power %v", need, maxRed)
	}
	total := func(mu float64) float64 {
		s := 0.0
		for _, st := range ss {
			red := st.t - mu
			if red <= 0 {
				continue
			}
			if red > st.cap {
				red = st.cap
			}
			s += red
		}
		return s
	}
	lo, hi := 0.0, 0.0
	for _, st := range ss {
		if !math.IsInf(st.t, 1) && st.t > hi {
			hi = st.t
		}
	}
	if hi == 0 {
		hi = 1
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if total(mid) > need {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-15*(1+hi) {
			break
		}
	}
	mu := hi
	red := make([]float64, n)
	got := 0.0
	for _, st := range ss {
		r := st.t - mu
		if r <= 0 {
			continue
		}
		if r > st.cap {
			r = st.cap
		}
		red[st.idx] = r
		got += r
	}
	if residual := need - got; residual > 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return ss[order[a]].t > ss[order[b]].t })
		for _, j := range order {
			if residual <= 0 {
				break
			}
			room := ss[j].cap - red[ss[j].idx]
			take := math.Min(room, residual)
			red[ss[j].idx] += take
			residual -= take
		}
		if residual > 1e-9*need {
			return nil, fmt.Errorf("reverse waterfill: could not place residual %v", residual)
		}
	}
	for j := range w {
		if row[j] <= 0 {
			continue
		}
		frac := 1 - red[j]/row[j]
		if frac < basePowerFloor {
			frac = basePowerFloor
		}
		if frac > 1 {
			frac = 1
		}
		w[j] = math.Sqrt(frac)
	}
	return w, nil
}

// baselineSINRMatrix is the pre-workspace SINRMatrix.
func baselineSINRMatrix(h, v *matrix.Mat, noise float64) *matrix.Mat {
	a := baseMul(h, v)
	n := a.Rows()
	s := matrix.New(a.Cols(), n)
	for j := 0; j < n; j++ {
		for i := 0; i < a.Cols(); i++ {
			e := a.At(j, i)
			s.Set(i, j, complex((real(e)*real(e)+imag(e)*imag(e))/noise, 0))
		}
	}
	return s
}

// baselineSumRate is the pre-workspace SumRate (via the allocating
// SINR-matrix path).
func baselineSumRate(h, v *matrix.Mat, noise float64) float64 {
	s := baselineSINRMatrix(h, v, noise)
	n := h.Rows()
	sum := 0.0
	for j := 0; j < n; j++ {
		interf := 0.0
		for i := 0; i < n; i++ {
			if i != j {
				interf += real(s.At(i, j))
			}
		}
		sum += math.Log2(1 + real(s.At(j, j))/(1+interf))
	}
	return sum
}
