package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// These tests pin the runner-rewiring guarantee: every experiment driver
// produces bit-identical output at any pool size, because each topology
// task derives its randomness from (seed, index) alone and results are
// collected in task order.

func sameSamples(t *testing.T, name string, a, b *stats.Sample) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: n=%d vs n=%d", name, a.N(), b.N())
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s: value %d differs: %v vs %v", name, i, av[i], bv[i])
		}
	}
}

// TestFig12ParallelDeterminism covers a MAC-layer experiment: the
// spatial-reuse sweep must produce identical per-topology results at
// parallelism 1 and 8.
func TestFig12ParallelDeterminism(t *testing.T) {
	const topos, seed = 12, 77
	var seq, par []Fig12Result
	seq = Fig12SpatialReuse(topos, seed, EnvOverrides{}, 1)
	par = Fig12SpatialReuse(topos, seed, EnvOverrides{}, 8)
	if len(seq) != topos || len(par) != topos {
		t.Fatalf("lengths %d, %d, want %d", len(seq), len(par), topos)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("topology %d: sequential %+v vs parallel %+v", i, seq[i], par[i])
		}
	}
}

// TestFig15ParallelDeterminism covers an end-to-end experiment: the full
// closed-loop DES (association, MAC contention, precoding, capacity
// accounting) must be bit-identical across pool sizes.
func TestFig15ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("DES runs are slow")
	}
	o := E2EOpts{Topologies: 4, SimTime: 60 * time.Millisecond, Seed: 2014, Parallelism: 1}
	seqC, seqM := Fig15EndToEnd(o)
	o.Parallelism = 8
	parC, parM := Fig15EndToEnd(o)
	sameSamples(t, "fig15 CAS", seqC, parC)
	sameSamples(t, "fig15 MIDAS", seqM, parM)
}

// TestFig13ParallelDeterminism covers an aggregating experiment whose
// result is summed across tasks (and keeps task 0's example maps).
func TestFig13ParallelDeterminism(t *testing.T) {
	const deployments, seed = 4, 9
	var seq, par DeadzoneResult
	seq = Fig13Deadzones(deployments, seed, EnvOverrides{}, 1)
	par = Fig13Deadzones(deployments, seed, EnvOverrides{}, 8)
	if seq.Spots != par.Spots || seq.CASDeadspots != par.CASDeadspots || seq.DASDeadspots != par.DASDeadspots {
		t.Fatalf("tallies differ: %+v vs %+v", seq, par)
	}
	if len(seq.CASMap) != len(par.CASMap) || seq.MapCols != par.MapCols {
		t.Fatalf("example maps differ in shape")
	}
	for i := range seq.CASMap {
		if seq.CASMap[i] != par.CASMap[i] || seq.DASMap[i] != par.DASMap[i] {
			t.Fatalf("example map cell %d differs", i)
		}
	}
}

// TestSweepErrPropagation verifies a failing topology task surfaces as
// an error through the experiment drivers' shared parallel path, and
// that the sweep stops early instead of draining every task.
func TestSweepErrPropagation(t *testing.T) {
	var started atomic.Int64
	_, err := sweepErr(10000, 1, "errprop", 4, func(tIdx int, src *rng.Source) (int, error) {
		started.Add(1)
		if tIdx >= 2 {
			return 0, fmt.Errorf("topology %d unsatisfiable", tIdx)
		}
		return tIdx, nil
	})
	if err == nil {
		t.Fatal("want error from failing task")
	}
	if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Fatalf("error %v does not carry the task failure", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks ran after early failure, want far fewer than 10000", n)
	}
}

// TestZeroTopologySweep pins the degenerate case: experiments with no
// topologies return empty, non-nil samples.
func TestZeroTopologySweep(t *testing.T) {
	o := E2EOpts{Topologies: 0, SimTime: time.Millisecond, Seed: 1}
	cas, midas, err := Fig16LargeScale(o)
	if err != nil {
		t.Fatalf("zero-topology sweep: %v", err)
	}
	if cas.N() != 0 || midas.N() != 0 {
		t.Fatalf("zero-topology sweep produced samples")
	}
}
