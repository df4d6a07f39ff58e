// Package bench holds the benchmark problems shared by the root
// benchmarks (bench_test.go) and the perfbench harness: a 4×4 single-AP
// DAS precoding problem, the one both time as the per-TXOP precoder
// solve.
package bench

import (
	"repro/internal/channel"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/topology"
)

// BenchProblemSeed seeds the 4×4 DAS problem measured by the root
// BenchmarkKernelPowerBalanced4x4 and perfbench's precoding.solve_ns
// layer. Seed 8 runs two reverse-water-filling rounds, exercising the
// full balancing loop.
const BenchProblemSeed = 8

// BenchProblem4x4 returns that problem.
func BenchProblem4x4() precoding.Problem {
	return DASProblem(BenchProblemSeed)
}

// DASProblem builds a realistic single-AP DAS precoding problem (the same
// construction as the precoding package's benchmark helper).
func DASProblem(seed int64) precoding.Problem {
	d := topology.SingleAP(topology.DefaultConfig(topology.DAS), rng.New(seed))
	m := d.Model(channel.Default(), rng.New(seed+1000))
	return precoding.Problem{
		H:               m.Matrix(nil, nil),
		PerAntennaPower: channel.Default().TxPowerLinear(),
		Noise:           channel.Default().NoiseLinear(),
	}
}
