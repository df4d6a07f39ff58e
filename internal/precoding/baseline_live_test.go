package precoding

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/topology"
)

// shapedProblems covers the shapes that bypass the 4×4 unrolled fast
// paths (generic streamSNRsInto, totalAt, gram/inverse loops), so the
// frozen baseline pins those code paths too — TestSolverBitExact alone
// cannot, because both of its sides now share the Solver implementation.
func shapedProblems() []Problem {
	src := rng.New(77)
	var out []Problem
	for _, sh := range []struct{ c, a int }{{8, 8}, {4, 8}, {3, 5}, {6, 6}, {2, 2}} {
		for rep := 0; rep < 6; rep++ {
			h := matrix.New(sh.c, sh.a)
			for i := 0; i < sh.c; i++ {
				for j := 0; j < sh.a; j++ {
					h.Set(i, j, src.ComplexCircular(1))
				}
			}
			out = append(out, Problem{H: h, PerAntennaPower: 1, Noise: 0.01})
		}
	}
	return out
}

// TestBaselineMatchesLive pins the live Solver to the independent oracle
// in baseline_test.go: the precoders, their iteration counts and the sum
// rate must agree bit for bit. TestSolverBitExact cannot do this, because
// both of its sides share the Solver.
func TestBaselineMatchesLive(t *testing.T) {
	probs := make([]Problem, 0, 60)
	for seed := int64(1); seed <= 30; seed++ {
		probs = append(probs, dasProblem(seed, topology.DAS))
	}
	probs = append(probs, shapedProblems()...)
	for pi, p := range probs {
		seed := int64(pi)
		want, err := PowerBalanced(p)
		base, baseIters, baseErr := baselinePowerBalanced(p)
		if (err == nil) != (baseErr == nil) {
			t.Fatalf("seed %d: live err %v, baseline err %v", seed, err, baseErr)
		}
		if err != nil {
			continue
		}
		if baseIters != want.Iterations {
			t.Fatalf("seed %d: baseline iters %d, live %d", seed, baseIters, want.Iterations)
		}
		if base.Rows() != want.V.Rows() || base.Cols() != want.V.Cols() {
			t.Fatalf("seed %d: shape mismatch", seed)
		}
		for i := 0; i < base.Rows(); i++ {
			for j := 0; j < base.Cols(); j++ {
				if base.At(i, j) != want.V.At(i, j) {
					t.Fatalf("seed %d: (%d,%d) baseline %v, live %v", seed, i, j, base.At(i, j), want.V.At(i, j))
				}
			}
		}
		if br, lr := baselineSumRate(p.H, base, p.Noise), SumRate(p.H, want.V, p.Noise); br != lr {
			t.Fatalf("seed %d: baseline SumRate %v, live %v", seed, br, lr)
		}
		nv, err := NaiveScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := baselineNaiveScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bn.Equalish(nv, 0) {
			t.Fatalf("seed %d: NaiveScaled differs", seed)
		}
	}
}
