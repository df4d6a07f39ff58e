package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/geom"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestPathLossMonotone(t *testing.T) {
	p := Default()
	prev := p.PathLossDB(1)
	for d := 2.0; d <= 100; d *= 1.5 {
		pl := p.PathLossDB(d)
		if pl <= prev {
			t.Fatalf("path loss not increasing at d=%v", d)
		}
		prev = pl
	}
}

func TestPathLossClampBelow1m(t *testing.T) {
	p := Default()
	if p.PathLossDB(0.1) != p.PathLossDB(1) {
		t.Error("path loss below 1 m should clamp to reference")
	}
}

func TestPathLossSlope(t *testing.T) {
	p := Default()
	// 10x distance should add 10*n dB.
	got := p.PathLossDB(10) - p.PathLossDB(1)
	if math.Abs(got-10*p.PathLossExp) > 1e-9 {
		t.Errorf("decade slope = %v, want %v", got, 10*p.PathLossExp)
	}
}

func TestLinearHelpers(t *testing.T) {
	p := Default()
	if math.Abs(p.TxPowerLinear()-stats.Milliwatt(p.TxPowerDBm)) > 1e-9 {
		t.Errorf("TxPowerLinear = %v", p.TxPowerLinear())
	}
	if p.NoiseLinear() <= 0 {
		t.Error("noise must be positive")
	}
}

// testModel builds a model through the field topology.Deployment.Model
// derives.
func testModel(p Params, antennas []Antenna, clients []geom.Point, correlated bool, src *rng.Source) *Model {
	return NewModel(Budget{P: p, Field: p.ModelField(src.Seed())}, antennas, clients, correlated, src)
}

func mkModel(correlated bool, seed int64) *Model {
	p := Default()
	antennas := []Antenna{
		{Pos: geom.Pt(0, 0), AP: 0, Local: 0},
		{Pos: geom.Pt(0.03, 0), AP: 0, Local: 1},
		{Pos: geom.Pt(0.06, 0), AP: 0, Local: 2},
		{Pos: geom.Pt(0.09, 0), AP: 0, Local: 3},
	}
	clients := []geom.Point{geom.Pt(8, 0), geom.Pt(0, 10), geom.Pt(-6, -6)}
	return testModel(p, antennas, clients, correlated, rng.New(seed))
}

func TestModelShapes(t *testing.T) {
	m := mkModel(false, 1)
	if m.NumAntennas() != 4 || m.NumClients() != 3 {
		t.Fatalf("shape %d,%d", m.NumAntennas(), m.NumClients())
	}
	h := m.Matrix(nil, nil)
	if h.Rows() != 3 || h.Cols() != 4 {
		t.Fatalf("H is %dx%d", h.Rows(), h.Cols())
	}
	sub := m.Matrix([]int{0, 2}, []int{1})
	if sub.Rows() != 2 || sub.Cols() != 1 {
		t.Fatalf("sub H is %dx%d", sub.Rows(), sub.Cols())
	}
	if sub.At(0, 0) != h.At(0, 1) || sub.At(1, 0) != h.At(2, 1) {
		t.Error("submatrix entries do not match full matrix")
	}
}

func TestModelDeterminism(t *testing.T) {
	a := mkModel(true, 42)
	b := mkModel(true, 42)
	ha, hb := a.Matrix(nil, nil), b.Matrix(nil, nil)
	if !ha.Equalish(hb, 0) {
		t.Error("same seed should give identical channels")
	}
}

func TestFadingMeanPowerMatchesPathLoss(t *testing.T) {
	// Average |h|² over many resamples should approach path loss ×
	// shadowing for each link.
	m := mkModel(false, 7)
	const iters = 4000
	sum := 0.0
	for i := 0; i < iters; i++ {
		g := m.Gain(0, 0)
		sum += real(g)*real(g) + imag(g)*imag(g)
		m.redraw()
	}
	got := sum / iters
	d := geom.Pt(8, 0).Dist(geom.Pt(0, 0))
	want := stats.Linear(-m.p.PathLossDB(d)) * m.links.Field.Shadow(geom.Pt(0, 0), geom.Pt(8, 0))
	if math.Abs(got/want-1) > 0.1 {
		t.Errorf("mean |h|² = %v, want ~%v", got, want)
	}
}

// TestCachedLinkValuesMatchDirect pins Gain, Matrix and MeanRxPower,
// which read values cached at construction, bit for bit to the direct
// path-loss-and-shadowing expressions, for correlated (CAS) and
// independent (DAS) models and after the fading evolves.
func TestCachedLinkValuesMatchDirect(t *testing.T) {
	for _, correlated := range []bool{true, false} {
		m := mkModel(correlated, 23)
		p := Default()
		check := func(stage string) {
			h := m.Matrix(nil, nil)
			for j, c := range m.clients {
				for k, a := range m.antennas {
					d := a.Pos.Dist(c)
					shadow := m.links.Field.Shadow(a.Pos, c)
					pl := stats.Linear(-p.PathLossDB(d)) * shadow
					gain := complex(math.Sqrt(pl), 0) * m.row(j)[k]
					mean := p.TxPowerLinear() * stats.Linear(-p.PathLossDB(d)) * shadow
					for what, pair := range map[string][2]complex128{
						"Gain":   {m.Gain(j, k), gain},
						"Matrix": {h.At(j, k), gain},
					} {
						if !sameBits(pair[0], pair[1]) {
							t.Fatalf("correlated=%v %s: %s(%d,%d) = %v, direct %v", correlated, stage, what, j, k, pair[0], pair[1])
						}
					}
					if got := m.MeanRxPower(j, k); math.Float64bits(got) != math.Float64bits(mean) {
						t.Fatalf("correlated=%v %s: MeanRxPower(%d,%d) = %v, direct %v", correlated, stage, j, k, got, mean)
					}
				}
			}
		}
		check("initial")
		for i := 0; i < 3; i++ {
			m.Evolve()
		}
		check("after Evolve")
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func TestCorrelationCASVsDAS(t *testing.T) {
	// Adjacent co-located antennas should show high fading correlation;
	// uncorrelated mode should show near-zero.
	corrOf := func(correlated bool) float64 {
		m := mkModel(correlated, 11)
		const n = 6000
		var sum complex128
		var p0, p1 float64
		for i := 0; i < n; i++ {
			f0, f1 := m.row(0)[0], m.row(0)[1]
			sum += f0 * cmplx.Conj(f1)
			p0 += real(f0)*real(f0) + imag(f0)*imag(f0)
			p1 += real(f1)*real(f1) + imag(f1)*imag(f1)
			m.redraw()
		}
		return cmplx.Abs(sum) / math.Sqrt(p0*p1)
	}
	cas := corrOf(true)
	das := corrOf(false)
	if cas < 0.45 {
		t.Errorf("CAS adjacent-antenna correlation = %v, want ≈0.6", cas)
	}
	if das > 0.1 {
		t.Errorf("DAS correlation = %v, want ≈0", das)
	}
}

func TestEvolvePreservesPowerAndDecorrelates(t *testing.T) {
	m := mkModel(false, 13)
	g0 := m.Gain(0, 0)
	// Single step with small Doppler keeps the channel close.
	m.Evolve()
	g1 := m.Gain(0, 0)
	if cmplx.Abs(g1-g0) > cmplx.Abs(g0) {
		t.Log("large single-step change is possible but unusual")
	}
	// Many steps keep unit fading power and decorrelate: correlate the
	// fading before and after 2000 steps over several trials, reading it
	// through Gain.
	var num complex128
	var den, power float64
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		m2 := mkModel(false, int64(100+trial))
		a := fadingAt(m2, 0, 0)
		for i := 0; i < 2000; i++ {
			m2.Evolve()
		}
		b := fadingAt(m2, 0, 0)
		num += a * cmplx.Conj(b)
		den += cmplx.Abs(a) * cmplx.Abs(b)
		for j := range m2.clients {
			for k := range m2.antennas {
				power += sqAbs(fadingAt(m2, j, k))
			}
		}
	}
	if corr := cmplx.Abs(num) / den; corr > 0.35 {
		t.Errorf("long-run fading correlation = %v, want small", corr)
	}
	// 480 independent unit-mean exponential powers: σ of the mean ≈ 0.046.
	if mean := power / (trials * 12); math.Abs(mean-1) > 0.23 {
		t.Errorf("mean fading power after 2000 steps = %v, want 1", mean)
	}
}

// fadingAt reads the normalised fading of link (j, k) through Gain.
func fadingAt(m *Model, j, k int) complex128 {
	return m.Gain(j, k) / complex(m.amp[m.link(j, k)], 0)
}

func sqAbs(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

func TestEvolveNoopWithZeroDoppler(t *testing.T) {
	p := Default()
	p.Doppler = 0
	m := testModel(p, []Antenna{{Pos: geom.Pt(0, 0)}}, []geom.Point{geom.Pt(5, 0)}, false, rng.New(3))
	before := m.Gain(0, 0)
	m.Evolve()
	if m.Gain(0, 0) != before {
		t.Error("Evolve with Doppler=0 must not change the channel")
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	p := Default()
	antennas := []Antenna{{Pos: geom.Pt(0, 0)}}
	clients := []geom.Point{geom.Pt(3, 0), geom.Pt(30, 0)}
	// Average over fading to compare reliably.
	var near, far stats.Summary
	m := testModel(p, antennas, clients, false, rng.New(17))
	for i := 0; i < 500; i++ {
		near.Add(m.SNRdB(0, 0))
		far.Add(m.SNRdB(1, 0))
		m.redraw()
	}
	if near.Mean() <= far.Mean() {
		t.Errorf("near SNR %v should exceed far SNR %v", near.Mean(), far.Mean())
	}
}

func TestMeanRxPowerIsFadingFree(t *testing.T) {
	m := mkModel(false, 23)
	a := m.MeanRxPower(0, 0)
	m.redraw()
	if b := m.MeanRxPower(0, 0); a != b {
		t.Error("MeanRxPower must not depend on fading state")
	}
	if a <= 0 {
		t.Error("MeanRxPower must be positive")
	}
}

func TestPowerAtPoint(t *testing.T) {
	p := Default()
	near := p.PowerAtPoint(geom.Pt(0, 0), geom.Pt(5, 0), 20)
	far := p.PowerAtPoint(geom.Pt(0, 0), geom.Pt(50, 0), 20)
	if near <= far {
		t.Error("power should fall with distance")
	}
	// 20 dBm at 1 m with RefLossDB loss.
	got := p.PowerAtPoint(geom.Pt(0, 0), geom.Pt(1, 0), 20)
	want := stats.Milliwatt(20 - p.RefLossDB)
	if math.Abs(got/want-1) > 1e-9 {
		t.Errorf("PowerAtPoint(1m) = %v, want %v", got, want)
	}
}

func TestCholeskyExpCorr(t *testing.T) {
	l := choleskyExpCorr(0.6, 4)
	// Reconstruct R = L·Lᵀ and compare with ρ^{|i-k|}.
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			s := 0.0
			for q := 0; q < 4; q++ {
				s += l[i][q] * l[k][q]
			}
			d := i - k
			if d < 0 {
				d = -d
			}
			want := math.Pow(0.6, float64(d))
			if math.Abs(s-want) > 1e-12 {
				t.Fatalf("R[%d][%d] = %v, want %v", i, k, s, want)
			}
		}
	}
}

// Calibration test (the targets documented on Params): with the default parameters, a client
// at enterprise-office distances sees a usable median SNR.
func TestCalibrationMedianSNR(t *testing.T) {
	p := Default()
	src := rng.New(31)
	snrs := stats.NewSample()
	for topo := 0; topo < 200; topo++ {
		ts := src.SplitN("topo", topo)
		x, y := ts.PointInDisc(12) // client within 12 m of the AP
		m := testModel(p,
			[]Antenna{{Pos: geom.Pt(0, 0)}},
			[]geom.Point{geom.Pt(x, y)}, false, ts)
		snrs.Add(m.SNRdB(0, 0))
	}
	med := snrs.MustMedian()
	// The figure-relevant quantity (Fig 7) maps each client to its BEST
	// antenna and sits several dB above this single-random-antenna
	// median, so the band here is wide.
	if med < 6 || med > 25 {
		t.Errorf("calibration: median CAS SISO SNR = %v dB, want 6–25", med)
	}
}

// TestCorrelatedDrawMatchesPerRowConstruction pins the fading draws bit
// for bit to a reference built the long way: groups by AP and factors
// built on every row, and the n-step jump written out, drawing a stale
// row's innovation when it is read. The antennas interleave their APs
// and the groups differ in size, one AP has a single antenna, and two
// groups share a size. Reads go through Gain and MatrixInto, touch rows
// in varying orders and subsets, and leave rows stale for 1 to 40 steps.
func TestCorrelatedDrawMatchesPerRowConstruction(t *testing.T) {
	aps := []int{2, 0, 2, 1, 0, 2, 3, 0, 2, 4, 4}
	var ants []Antenna
	for k, ap := range aps {
		ants = append(ants, Antenna{Pos: geom.Pt(float64(3*k), float64(ap)), AP: ap})
	}
	clients := []geom.Point{geom.Pt(4, 4), geom.Pt(20, -3), geom.Pt(9, 12)}
	p := Default()
	m := testModel(p, ants, clients, true, rng.New(21))

	ref := rng.New(21).Split("channel")
	refRow := func() []complex128 {
		f := make([]complex128, len(ants))
		for k := range f {
			f[k] = ref.ComplexCircular(1)
		}
		groups := map[int][]int{}
		for idx, a := range ants {
			groups[a.AP] = append(groups[a.AP], idx)
		}
		for _, idxs := range groups {
			if len(idxs) < 2 {
				continue
			}
			l := choleskyExpCorr(p.CASCorrelation, len(idxs))
			raw := make([]complex128, len(idxs))
			for i, idx := range idxs {
				raw[i] = f[idx]
			}
			for i, idx := range idxs {
				var s complex128
				for q := 0; q <= i; q++ {
					s += complex(l[i][q], 0) * raw[q]
				}
				f[idx] = s
			}
		}
		return f
	}
	want := make([][]complex128, len(clients))
	for j := range want {
		want[j] = refRow()
	}
	same := func(stage string, j int) {
		t.Helper()
		for k := range want[j] {
			g, w := m.row(j)[k], want[j][k]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: fading[%d][%d] = %v, per-row construction %v", stage, j, k, g, w)
			}
		}
	}
	for j := range want {
		same("initial", j)
	}

	a := p.Doppler
	step, synced := 0, make([]int, len(clients))
	allAnts := identityIndex(len(ants))
	var dst matrix.Mat
	for i, op := range []struct {
		evolve int
		read   []int
	}{
		{1, []int{2}}, {3, []int{0, 2}}, {1, []int{1, 0, 2}}, {40, []int{1}},
		{0, []int{1}}, {2, []int{2, 0, 1}}, {7, []int{0}}, {1, []int{2, 1}},
	} {
		for e := 0; e < op.evolve; e++ {
			m.Evolve()
		}
		step += op.evolve
		if i%2 == 0 {
			m.MatrixInto(&dst, op.read, allAnts)
		} else {
			for _, j := range op.read {
				m.Gain(j, len(ants)-1)
			}
		}
		for _, j := range op.read {
			if n := step - synced[j]; n > 0 {
				logKeep2N := float64(n) * math.Log1p(-a*a)
				keepN, scale := math.Exp(logKeep2N/2), math.Sqrt(-math.Expm1(logKeep2N))
				w := refRow()
				for k, f := range want[j] {
					want[j][k] = complex(keepN*real(f)+scale*real(w[k]), keepN*imag(f)+scale*imag(w[k]))
				}
				synced[j] = step
			}
			same(fmt.Sprintf("op %d", i), j)
		}
	}
}

// stepAll is the whole-network stepper the per-row fading clocks
// replaced, kept as their oracle: every row takes one Gauss–Markov step,
// drawing its innovation in row order. It leaves the rows' clocks alone,
// so a model stepped only by stepAll never catches up on a read.
func stepAll(m *Model) {
	a := m.p.Doppler
	keep := complex(math.Sqrt(1-a*a), 0)
	innov := make([]complex128, len(m.antennas))
	for j := range m.clients {
		m.drawFadingRow(innov)
		f := m.row(j)
		for k := range f {
			f[k] = keep*f[k] + complex(a, 0)*innov[k]
		}
	}
}

// TestFadingClockMatchesStepper compares the fading clocks' n-step jump
// with n steps of the oracle stepper, for CAS and DAS models: from fresh
// fading f_0, both must give unit power, lag correlation E[f_n·f_0*] =
// keepⁿ, innovation power E|f_n − keepⁿ·f_0|² = 1 − keep²ⁿ, and within an
// AP the correlation ρ^|i−k| (CAS) or 0 (DAS). Each bound is five
// standard errors for the sample count, counting one sample per client
// row and trial (a row's antennas are correlated under CAS) and taking
// the per-sample variance as 1, which bounds each statistic here.
func TestFadingClockMatchesStepper(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 400
	}
	p := Default()
	keep := math.Sqrt(1 - p.Doppler*p.Doppler)
	for _, correlated := range []bool{true, false} {
		rho := 0.0
		if correlated {
			rho = p.CASCorrelation
		}
		for _, n := range []int{1, 2, 7, 40, 400} {
			keepN := math.Pow(keep, float64(n))
			for _, stepper := range []bool{false, true} {
				m := mkModel(correlated, int64(1000+n))
				nc, na := m.NumClients(), m.NumAntennas()
				f0 := make([]complex128, nc*na)
				fn := make([]complex128, na)
				var power, innov float64
				var lag complex128
				within := make([]complex128, na) // by antenna distance |i−k|
				for trial := 0; trial < trials; trial++ {
					m.redraw()
					copy(f0, m.fading)
					for i := 0; i < n; i++ {
						if stepper {
							stepAll(m)
						} else {
							m.Evolve()
						}
					}
					for j := 0; j < nc; j++ {
						for k := range fn {
							fn[k] = fadingAt(m, j, k)
						}
						for k, f := range fn {
							g := f0[j*na+k]
							power += sqAbs(f)
							lag += f * cmplx.Conj(g)
							innov += sqAbs(f - complex(keepN, 0)*g)
							for q := k + 1; q < na; q++ {
								within[q-k] += f * cmplx.Conj(fn[q])
							}
						}
					}
				}
				samples := float64(trials * nc)
				tol := 5 / math.Sqrt(samples)
				entries := samples * float64(na)
				name := fmt.Sprintf("correlated=%v n=%d stepper=%v", correlated, n, stepper)
				if got := power / entries; math.Abs(got-1) > tol {
					t.Errorf("%s: mean power %v, want 1 ± %v", name, got, tol)
				}
				if got := lag / complex(entries, 0); cmplx.Abs(got-complex(keepN, 0)) > tol {
					t.Errorf("%s: lag correlation %v, want %v ± %v", name, got, keepN, tol)
				}
				if got, want := innov/entries, 1-keepN*keepN; math.Abs(got/want-1) > tol {
					t.Errorf("%s: innovation power %v, want %v ± %v relative", name, got, want, tol)
				}
				for d := 1; d < na; d++ {
					got := within[d] / complex(samples*float64(na-d), 0)
					if want := math.Pow(rho, float64(d)); cmplx.Abs(got-complex(want, 0)) > tol {
						t.Errorf("%s: antenna correlation at distance %d = %v, want %v ± %v", name, d, got, want, tol)
					}
				}
			}
		}
	}
}

// TestModelZeroAlloc pins that a TXOP's channel reads allocate nothing:
// once the model exists, Evolve and a 4×4 MatrixInto into a kept matrix,
// catching stale rows up, allocate 0.
func TestModelZeroAlloc(t *testing.T) {
	var ants []Antenna
	for k := 0; k < 12; k++ {
		ants = append(ants, Antenna{Pos: geom.Pt(float64(4*(k/4))+0.03*float64(k%4), 0), AP: k / 4, Local: k % 4})
	}
	var clients []geom.Point
	for j := 0; j < 12; j++ {
		clients = append(clients, geom.Pt(float64(j), 6))
	}
	m := testModel(Default(), ants, clients, true, rng.New(5))
	var dst matrix.Mat
	sets := [][]int{{0, 3, 5, 9}, {1, 2, 7, 11}, {4, 6, 8, 10}}
	m.MatrixInto(&dst, sets[0], sets[1])
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		m.Evolve()
		m.MatrixInto(&dst, sets[i%3], sets[(i+1)%3])
		i++
	})
	if allocs != 0 {
		t.Errorf("Evolve + 4×4 MatrixInto allocated %v times, want 0", allocs)
	}
}
