package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

func findSeries(t *testing.T, res Result, label string) []float64 {
	t.Helper()
	for _, s := range res.Series {
		if s.Label == label {
			return s.Values
		}
	}
	t.Fatalf("result has no series %q (have %d series)", label, len(res.Series))
	return nil
}

func wantSeries(t *testing.T, res Result, label string, want []float64) {
	t.Helper()
	got := findSeries(t, res, label)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("series %q differs from the direct call:\n got %v\nwant %v", label, got, want)
	}
}

// TestSweepExpansionThroughEngine verifies a swept spec produces one
// labelled result block per point, each bit-identical to running that
// point alone.
func TestSweepExpansionThroughEngine(t *testing.T) {
	ctx := context.Background()
	swept, err := RunByName(ctx, "fig8-office-a", Spec{Topologies: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The default spec sweeps size over {2,4}; check the size=2 block
	// against a direct single-point run.
	direct := stats.NewSample()
	root := rng.New(defaultSeed)
	for topo := 0; topo < 3; topo++ {
		rec, err := sim.FigCapacityCDF(sim.OfficeA, sim.Opts{Antennas: 2, Clients: 2}, topo, root)
		if err != nil {
			t.Fatal(err)
		}
		direct.Add(rec[0])
	}
	wantSeries(t, swept, "[size=2] CAS capacity", direct.Values())
	if len(swept.Series) != 4 {
		t.Errorf("2-point sweep with 2 series per point should merge to 4 series, got %d", len(swept.Series))
	}
}

// TestEngineParallelismInvariance runs a swept scenario at parallelism
// 1 and 8 (outer engine pool and inner experiment pool both) and
// requires identical results — the determinism contract the golden
// suite leans on.
func TestEngineParallelismInvariance(t *testing.T) {
	ctx := context.Background()
	results := map[int]Result{}
	for _, par := range []int{1, 8} {
		res, err := RunByName(ctx, "fig9-office-b", Spec{Topologies: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		results[par] = res
	}
	if !reflect.DeepEqual(results[1], results[8]) {
		t.Errorf("results differ across parallelism:\np=1 %+v\np=8 %+v", results[1], results[8])
	}
}

// TestReplicateSeedDerivation verifies the per-replicate seed contract:
// replicate 0 runs the base seed unchanged (so a replicated run's first
// replicate is bit-identical to the unreplicated run) and replicate
// r >= 1 derives its seed from rng.New(seed).SplitN("replicate", r).
func TestReplicateSeedDerivation(t *testing.T) {
	s := Spec{Topologies: 1, Seed: 5, Antennas: 1, Clients: 1, Replicates: 3}
	specs := s.replicateSpecs()
	if len(specs) != 3 {
		t.Fatalf("3 replicates expanded to %d specs", len(specs))
	}
	if specs[0].Seed != 5 {
		t.Errorf("replicate 0 seed = %d, want the base seed 5", specs[0].Seed)
	}
	root := rng.New(5)
	for r := 1; r < 3; r++ {
		want := root.SplitN("replicate", r).Seed()
		if specs[r].Seed != want {
			t.Errorf("replicate %d seed = %d, want the split-derived %d", r, specs[r].Seed, want)
		}
		if specs[r].Seed == 5+int64(r) {
			t.Errorf("replicate %d landed on the consecutive seed %d — split derivation must decorrelate from user-picked seed+r streams", r, specs[r].Seed)
		}
	}
	for r, q := range specs {
		if q.Replicates != 1 || q.Sweep != nil {
			t.Errorf("replicate %d spec must be concrete: %+v", r, q)
		}
	}
}

// TestScalarOverrideCancelsDefaultSweep verifies that an explicit
// scalar override of a field the scenario's *default* sweep controls
// wins: the inherited sweep key is dropped rather than silently
// overwriting the override. A sweep supplied by the override itself
// still stands.
func TestScalarOverrideCancelsDefaultSweep(t *testing.T) {
	sc, _ := Get("fig8-office-a") // default sweep: size over {2,4}
	spec, err := Resolve(sc, Spec{Topologies: 2, Antennas: 8})
	if err != nil {
		t.Fatal(err)
	}
	if spec.sweepHas("size") {
		t.Errorf("explicit antennas=8 must cancel the default size sweep, got sweep %v", spec.Sweep)
	}
	if spec.Antennas != 8 {
		t.Errorf("antennas = %d, want the explicit 8", spec.Antennas)
	}

	// Untouched fields keep the default sweep.
	spec, err = Resolve(sc, Spec{Topologies: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !spec.sweepHas("size") {
		t.Error("default sweep must survive when its field is not overridden")
	}

	// An override-supplied sweep is never dropped.
	spec, err = Resolve(sc, Spec{Topologies: 2, Sweep: map[string][]float64{"size": {2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !spec.sweepHas("size") {
		t.Error("override-supplied sweep must stand")
	}
}

// TestIgnoredKnobsAreRejected verifies that overriding a knob a
// scenario declares it does not consume is a Resolve error — never a
// silent no-op run — while re-submitting default values (as the golden
// replay does with fully resolved specs) stays legal.
func TestIgnoredKnobsAreRejected(t *testing.T) {
	ctx := context.Background()
	reject := []struct {
		name      string
		overrides Spec
		wantKnob  string
	}{
		{"fig13-deadzones", Spec{Topologies: 1, Clients: 8}, "clients"},
		{"fig12-spatial-reuse", Spec{Topologies: 1, Antennas: 8}, "antennas"},
		{"fig12-spatial-reuse", Spec{Topologies: 1, Sweep: map[string][]float64{"size": {2, 4}}}, "clients"},
		{"fig3-naive-scaling-drop", Spec{Topologies: 1, Venue: &Venue{Width: 80, Height: 80}}, "venue region"},
		{"ext-placement", Spec{Topologies: 1, Shadowing: &Shadowing{SigmaDB: f64(9)}}, "shadowing"},
		{"ablation-correlation", Spec{Topologies: 1, Venue: &Venue{CoverageRadius: 20}}, "coverage_radius"},
	}
	for _, tc := range reject {
		_, err := RunByName(ctx, tc.name, tc.overrides)
		if err == nil {
			t.Errorf("%s accepted an override of its ignored %s knob", tc.name, tc.wantKnob)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantKnob) {
			t.Errorf("%s: error %q does not name the ignored knob %q", tc.name, err, tc.wantKnob)
		}
	}

	// A fully resolved spec re-submitted as overrides must pass the
	// knob check (its counts equal the defaults).
	sc, _ := Get("fig13-deadzones")
	spec, err := Resolve(sc, Spec{Topologies: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(sc, spec); err != nil {
		t.Errorf("re-resolving a resolved spec must succeed, got %v", err)
	}
}

// TestScenarioErrorCancelsSweep is the engine-level cancellation
// contract: when one expanded run of a sweep fails, outstanding runs
// are cancelled (far fewer than all runs start) and the lowest-index
// failure surfaces.
func TestScenarioErrorCancelsSweep(t *testing.T) {
	const failFrom = 3 // sweep seeds 1,2 succeed; 3.. fail
	seeds := make([]float64, 64)
	for i := range seeds {
		seeds[i] = float64(i + 1)
	}
	var started atomic.Int32
	sc := &scenarioFunc[int64]{
		name: "test-failing-scenario",
		defaults: Spec{
			Topologies: 1, Seed: 1, Antennas: 1, Clients: 1,
			Replicates: 1, Parallelism: 2,
			Sweep: map[string][]float64{"seed": seeds},
		},
		topology: func(_ sim.Opts, _ int, root *rng.Source) (int64, error) {
			started.Add(1)
			seed := root.Seed()
			if seed >= failFrom {
				return 0, fmt.Errorf("shard with seed %d exploded", seed)
			}
			return seed, nil
		},
		fold: func(recs []int64, r *Result) {
			r.AddMetric("ok", float64(recs[0]), "", "")
		},
	}
	_, err := Run(context.Background(), sc, Spec{})
	if err == nil {
		t.Fatal("engine must surface the run error")
	}
	var te *runner.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T) is not a runner.TaskError", err, err)
	}
	if te.Index != failFrom-1 {
		t.Errorf("surfaced error index %d, want the lowest failing run %d", te.Index, failFrom-1)
	}
	if n := started.Load(); n >= 64 {
		t.Errorf("all %d runs started despite the early failure — cancellation is not propagating", n)
	}
}
