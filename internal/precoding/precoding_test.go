package precoding

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/topology"
)

// randomProblem builds a well-conditioned random MU-MIMO instance with
// unit-scale channel entries.
func randomProblem(s *rng.Source, clients, antennas int) Problem {
	h := matrix.New(clients, antennas)
	for i := 0; i < clients; i++ {
		for j := 0; j < antennas; j++ {
			h.Set(i, j, s.ComplexCircular(1))
		}
	}
	return Problem{H: h, PerAntennaPower: 1, Noise: 0.01}
}

// dasProblem builds a problem from an actual DAS deployment, exercising
// the realistic (tiny) gain scales and topology imbalance.
func dasProblem(seed int64, mode topology.Mode) Problem {
	d := topology.SingleAP(topology.DefaultConfig(mode), rng.New(seed))
	m := d.Model(channel.Default(), rng.New(seed+1000))
	return Problem{
		H:               m.Matrix(nil, nil),
		PerAntennaPower: channel.Default().TxPowerLinear(),
		Noise:           channel.Default().NoiseLinear(),
	}
}

func TestValidate(t *testing.T) {
	s := rng.New(1)
	good := randomProblem(s, 3, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.H = nil
	if bad.Validate() == nil {
		t.Error("nil H should fail")
	}
	bad = good
	bad.PerAntennaPower = 0
	if bad.Validate() == nil {
		t.Error("zero power should fail")
	}
	bad = good
	bad.Noise = -1
	if bad.Validate() == nil {
		t.Error("negative noise should fail")
	}
	tall := randomProblem(s, 5, 3)
	if tall.Validate() == nil {
		t.Error("more clients than antennas should fail")
	}
}

func TestZFBFNullsInterference(t *testing.T) {
	s := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(s, 2+s.Intn(3), 4)
		v, err := ZFBF(p)
		if err != nil {
			t.Fatal(err)
		}
		if r := ZFResidual(p.H, v); r > 1e-8 {
			t.Fatalf("ZF residual = %v", r)
		}
	}
}

func TestZFBFTotalPower(t *testing.T) {
	s := rng.New(3)
	p := randomProblem(s, 4, 4)
	v, err := ZFBF(p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for k := 0; k < v.Rows(); k++ {
		total += v.RowPower(k)
	}
	want := p.totalPower()
	if math.Abs(total-want) > 1e-9*want {
		t.Errorf("total power = %v, want %v", total, want)
	}
	// Equal power per stream.
	for j := 0; j < v.Cols(); j++ {
		if got := v.ColPower(j); math.Abs(got-want/4) > 1e-9*want {
			t.Errorf("stream %d power = %v, want %v", j, got, want/4)
		}
	}
}

func TestNaiveScaledMeetsConstraint(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := dasProblem(seed, topology.DAS)
		v, err := NaiveScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		if viol := MaxRowPowerViolation(v, p.PerAntennaPower*(1+1e-9)); viol > 0 {
			t.Errorf("seed %d: naive violates constraint by %v", seed, viol)
		}
		if r := ZFResidual(p.H, v); r > 1e-8 {
			t.Errorf("seed %d: naive broke ZF property: %v", seed, r)
		}
	}
}

func TestNaiveScaledWorstAntennaTight(t *testing.T) {
	// When ZFBF violates the constraint, the naive scaling leaves the
	// worst antenna exactly at P.
	for seed := int64(0); seed < 20; seed++ {
		p := dasProblem(seed, topology.DAS)
		raw, _ := ZFBF(p)
		_, rawWorst := raw.MaxRowPower()
		if rawWorst <= p.PerAntennaPower {
			continue
		}
		v, _ := NaiveScaled(p)
		_, worst := v.MaxRowPower()
		if math.Abs(worst-p.PerAntennaPower) > 1e-6*p.PerAntennaPower {
			t.Errorf("seed %d: worst row power %v, want %v", seed, worst, p.PerAntennaPower)
		}
	}
}

func TestPowerBalancedInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, mode := range []topology.Mode{topology.CAS, topology.DAS} {
			p := dasProblem(seed, mode)
			res, err := PowerBalanced(p)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			v := res.V
			// (1) Per-antenna constraint satisfied.
			if viol := MaxRowPowerViolation(v, p.PerAntennaPower*(1+1e-6)); viol > 0 {
				t.Errorf("seed %d %v: violates per-antenna power by %v", seed, mode, viol)
			}
			// (2) Interference-free property retained.
			if r := ZFResidual(p.H, v); r > 1e-7 {
				t.Errorf("seed %d %v: ZF residual %v", seed, mode, r)
			}
			// (3) Converged within |T| rounds.
			if res.Iterations > p.H.Cols() {
				t.Errorf("seed %d %v: %d iterations > |T|", seed, mode, res.Iterations)
			}
			// (4) Weights in (0, 1].
			for j, w := range res.Weights {
				if w <= 0 || w > 1+1e-12 {
					t.Errorf("seed %d %v: weight[%d] = %v", seed, mode, j, w)
				}
			}
			// (5) No stream fully silenced.
			for j := 0; j < v.Cols(); j++ {
				if v.ColPower(j) == 0 {
					t.Errorf("seed %d %v: stream %d has zero power", seed, mode, j)
				}
			}
		}
	}
}

func TestPowerBalancedBeatsNaive(t *testing.T) {
	// The contribution claim: on DAS topologies, power-balanced precoding
	// should (almost always) achieve a higher sum rate than the naive
	// global scaling, markedly so in the median.
	wins, total := 0, 0
	var gainSum float64
	for seed := int64(0); seed < 60; seed++ {
		p := dasProblem(seed, topology.DAS)
		naive, err1 := NaiveScaled(p)
		bal, err2 := PowerBalanced(p)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: %v %v", seed, err1, err2)
		}
		rn := SumRate(p.H, naive, p.Noise)
		rb := SumRate(p.H, bal.V, p.Noise)
		if rb >= rn-1e-9 {
			wins++
		}
		gainSum += rb - rn
		total++
	}
	if wins < total*95/100 {
		t.Errorf("power-balanced beats naive in only %d/%d topologies", wins, total)
	}
	if gainSum <= 0 {
		t.Errorf("mean gain %v should be positive", gainSum/float64(total))
	}
}

func TestPowerBalancedNoopWhenFeasible(t *testing.T) {
	// If equal-power ZFBF already satisfies the per-antenna constraint,
	// PowerBalanced must not change anything. With an orthonormal channel
	// (H = I) the ZFBF precoder is diagonal and every antenna carries
	// exactly P, so the instance is feasible with zero slack.
	p := Problem{H: matrix.Identity(4), PerAntennaPower: 1, Noise: 0.01}
	res, err := PowerBalanced(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", res.Iterations)
	}
	for _, w := range res.Weights {
		if w != 1 {
			t.Errorf("weights should all be 1, got %v", res.Weights)
		}
	}
}

func TestReverseWaterfillBudgetMet(t *testing.T) {
	row := []float64{4, 1, 0.5, 0.1}
	rho := []float64{100, 50, 20, 10}
	budget := 2.0
	w, err := reverseWaterfill(row, rho, budget)
	if err != nil {
		t.Fatal(err)
	}
	after := 0.0
	for j := range row {
		after += w[j] * w[j] * row[j]
	}
	if after > budget*(1+1e-9) {
		t.Errorf("row power after reduction = %v > budget %v", after, budget)
	}
	for j, wj := range w {
		if wj <= 0 || wj > 1 {
			t.Errorf("w[%d] = %v out of (0,1]", j, wj)
		}
	}
}

func TestReverseWaterfillTakesFromLargeEntries(t *testing.T) {
	// With equal SNRs, the KKT solution reduces large precoding entries
	// more (absolute reduction grows with entry size).
	row := []float64{4, 0.2}
	rho := []float64{50, 50}
	w, err := reverseWaterfill(row, rho, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	red0 := (1 - w[0]*w[0]) * row[0]
	red1 := (1 - w[1]*w[1]) * row[1]
	if red0 <= red1 {
		t.Errorf("large entry reduced by %v, small by %v — want large > small", red0, red1)
	}
}

func TestReverseWaterfillNoReductionNeeded(t *testing.T) {
	w, err := reverseWaterfill([]float64{0.1, 0.2}, []float64{10, 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, wj := range w {
		if wj != 1 {
			t.Errorf("no reduction needed but w = %v", w)
		}
	}
}

func TestReverseWaterfillImpossibleBudget(t *testing.T) {
	// Budget smaller than the power floor allows.
	_, err := reverseWaterfill([]float64{1, 1}, []float64{10, 10}, 1e-9)
	if err == nil {
		t.Error("expected error for unreachable budget")
	}
}

func TestReverseWaterfillDeadStream(t *testing.T) {
	// A zero-SNR stream should absorb reductions first.
	row := []float64{1, 1}
	rho := []float64{0, 100}
	w, err := reverseWaterfill(row, rho, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] > w[1] {
		t.Errorf("dead stream kept more power: w = %v", w)
	}
}

func TestSINRMatrixDiagonalForZF(t *testing.T) {
	s := rng.New(7)
	p := randomProblem(s, 4, 4)
	v, _ := ZFBF(p)
	sm := SINRMatrix(p.H, v, p.Noise)
	diagMin := math.Inf(1)
	for j := 0; j < 4; j++ {
		if d := real(sm.At(j, j)); d < diagMin {
			diagMin = d
		}
	}
	if off := sm.OffDiagMax(); off > 1e-12*diagMin {
		t.Errorf("SINR matrix not diagonal: offmax %v vs diagmin %v", off, diagMin)
	}
}

func TestStreamSINRsWithInterference(t *testing.T) {
	// Hand-crafted: identity channel, non-ZF precoder with known leakage.
	h := matrix.Identity(2)
	v := matrix.FromRows([][]complex128{{1, 0.5}, {0, 1}})
	// Client 0 receives stream0 power 1, stream1 power 0.25;
	// client 1 receives stream1 power 1, stream0 power 0.
	noise := 1.0
	sinrs := StreamSINRs(h, v, noise)
	want0 := 1.0 / (1 + 0.25)
	if math.Abs(sinrs[0]-want0) > 1e-12 {
		t.Errorf("sinr0 = %v, want %v", sinrs[0], want0)
	}
	if math.Abs(sinrs[1]-1) > 1e-12 {
		t.Errorf("sinr1 = %v, want 1", sinrs[1])
	}
}

func TestSumRateMatchesManual(t *testing.T) {
	h := matrix.Identity(2)
	v := matrix.Identity(2).Scale(2) // each stream power 4, SNR 4
	got := SumRate(h, v, 1)
	want := 2 * math.Log2(5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SumRate = %v, want %v", got, want)
	}
	rates := RatePerStream(h, v, 1)
	if len(rates) != 2 || math.Abs(rates[0]-math.Log2(5)) > 1e-12 {
		t.Errorf("RatePerStream = %v", rates)
	}
}

func TestOptimalZFFeasibleAndBeatsNaive(t *testing.T) {
	opts := DefaultOptimalOptions()
	for seed := int64(0); seed < 15; seed++ {
		p := dasProblem(seed, topology.DAS)
		res, err := OptimalZF(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if viol := MaxRowPowerViolation(res.V, p.PerAntennaPower*(1+1e-6)); viol > 0 {
			t.Errorf("seed %d: optimal violates constraint by %v", seed, viol)
		}
		if r := ZFResidual(p.H, res.V); r > 1e-7 {
			t.Errorf("seed %d: optimal broke ZF: %v", seed, r)
		}
		naive, _ := NaiveScaled(p)
		rOpt := SumRate(p.H, res.V, p.Noise)
		rNaive := SumRate(p.H, naive, p.Noise)
		if rOpt < rNaive-1e-6 {
			t.Errorf("seed %d: optimal %v below naive %v", seed, rOpt, rNaive)
		}
	}
}

func TestPowerBalancedNearOptimal(t *testing.T) {
	// Fig 11 claim: MIDAS precoding within ≈99% of the numerical optimum
	// (trace-based). Allow a small tolerance band in the aggregate.
	var balSum, optSum float64
	opts := DefaultOptimalOptions()
	for seed := int64(100); seed < 120; seed++ {
		p := dasProblem(seed, topology.DAS)
		bal, err := PowerBalanced(p)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalZF(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		balSum += SumRate(p.H, bal.V, p.Noise)
		optSum += SumRate(p.H, opt.V, p.Noise)
	}
	if ratio := balSum / optSum; ratio < 0.93 {
		t.Errorf("power-balanced/optimal aggregate rate ratio = %v, want ≥0.93", ratio)
	}
}

// Property test: on random instances, PowerBalanced always produces a
// feasible, interference-free precoder with monotone weights.
func TestPowerBalancedProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := rng.New(seed)
		n := 2 + s.Intn(3)
		p := randomProblem(s, n, n)
		res, err := PowerBalanced(p)
		if err != nil {
			return false
		}
		if MaxRowPowerViolation(res.V, p.PerAntennaPower*(1+1e-6)) > 0 {
			return false
		}
		return ZFResidual(p.H, res.V) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The headline Fig 3 shape: the naive baseline loses far more capacity
// (vs unconstrained ZFBF) on DAS than on CAS topologies.
func TestNaiveLossLargerOnDAS(t *testing.T) {
	loss := func(mode topology.Mode) float64 {
		sum := 0.0
		for seed := int64(0); seed < 40; seed++ {
			p := dasProblem(seed, mode)
			ideal, _ := ZFBF(p)
			naive, _ := NaiveScaled(p)
			sum += SumRate(p.H, ideal, p.Noise) - SumRate(p.H, naive, p.Noise)
		}
		return sum / 40
	}
	casLoss, dasLoss := loss(topology.CAS), loss(topology.DAS)
	if dasLoss <= casLoss {
		t.Errorf("naive scaling loss: DAS %v should exceed CAS %v", dasLoss, casLoss)
	}
}

// BenchmarkPowerBalanced4x4 measures the steady-state hot path — a
// long-lived Solver, as every sim.Station and runner worker holds one.
// Seed 8 matches internal/bench.BenchProblem4x4, the problem perfbench's
// precoding.solve_ns layer times; it runs two reverse-water-filling
// rounds.
func BenchmarkPowerBalanced4x4(b *testing.B) {
	p := dasProblem(8, topology.DAS)
	s := NewSolver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PowerBalanced(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerBalancedAlloc4x4 measures the allocating convenience
// wrapper (fresh Solver + cloned result per call).
func BenchmarkPowerBalancedAlloc4x4(b *testing.B) {
	p := dasProblem(8, topology.DAS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PowerBalanced(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerBalanced8x8 covers the large-scale (8-antenna) shape.
func BenchmarkPowerBalanced8x8(b *testing.B) {
	s8 := rng.New(99)
	p := randomProblem(s8, 8, 8)
	p.PerAntennaPower = channel.Default().TxPowerLinear()
	p.Noise = channel.Default().NoiseLinear()
	s := NewSolver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PowerBalanced(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSINRMatrix4x4 measures the per-TXOP rate-accounting kernel.
func BenchmarkSINRMatrix4x4(b *testing.B) {
	p := dasProblem(8, topology.DAS)
	s := NewSolver()
	v, _, err := s.PowerBalanced(p)
	if err != nil {
		b.Fatal(err)
	}
	v = v.Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SINRMatrix(p.H, v, p.Noise)
	}
}

func BenchmarkOptimalZF4x4(b *testing.B) {
	p := dasProblem(1, topology.DAS)
	opts := DefaultOptimalOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalZF(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}
