package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/matrix"
	"repro/internal/precoding"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Metric is one benchmark measurement.
type Metric struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
}

// Pair compares the frozen pre-workspace implementation ("before") with
// the live kernels ("after") on identical inputs.
type Pair struct {
	Name    string  `json:"name"`
	Before  Metric  `json:"before"`
	After   Metric  `json:"after"`
	Speedup float64 `json:"speedup"`
}

// Figure is one reduced-scale figure-reproduction benchmark.
type Figure struct {
	Name string `json:"name"`
	Metric
}

// Snapshot is the committed performance baseline (BENCH_PR2.json).
type Snapshot struct {
	Schema    string   `json:"schema"`
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Rounds    int      `json:"rounds"`
	Note      string   `json:"note"`
	Kernels   []Pair   `json:"kernels"`
	Figures   []Figure `json:"figures"`
	WrittenBy string   `json:"written_by"`
}

func metricOf(r testing.BenchmarkResult) Metric {
	return Metric{
		NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
}

// measure runs fn under testing.Benchmark with allocation reporting.
func measure(fn func(b *testing.B)) Metric {
	return metricOf(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	}))
}

// better keeps the faster (min ns/op) of two measurements; allocation
// counts are deterministic so either sample serves.
func better(a, b Metric) Metric {
	if b.NsOp < a.NsOp {
		return b
	}
	return a
}

// kernelCase is one before/after micro-benchmark over shared inputs.
type kernelCase struct {
	name   string
	before func(b *testing.B)
	after  func(b *testing.B)
}

func randMat(src *rng.Source, r, c int) *matrix.Mat {
	m := matrix.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, src.ComplexCircular(1))
		}
	}
	return m
}

// BenchProblemSeed seeds the 4×4 DAS problem measured by both the
// committed baseline and the root BenchmarkPowerBalanced4x4 — keep the two
// in sync or the before/after comparison breaks. Seed 8 runs two reverse-
// water-filling rounds, exercising the full balancing loop.
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

// kernelCases builds the micro-benchmark suite: the multiply/Gram/
// pseudoinverse shapes the DES exercises (4×4 clients×antennas, the 8×8
// large-scale variant, rectangular 4×8 when MIDAS masks antennas), the
// SINR-matrix evaluation, and the two precoders.
func kernelCases() []kernelCase {
	src := rng.New(99)
	a4, b4 := randMat(src, 4, 4), randMat(src, 4, 4)
	a8, b8 := randMat(src, 8, 8), randMat(src, 8, 8)
	a48, b84 := randMat(src, 4, 8), randMat(src, 8, 4)
	x8 := make([]complex128, 8)
	for i := range x8 {
		x8[i] = src.ComplexCircular(1)
	}
	p4 := BenchProblem4x4()
	p8 := precoding.Problem{
		H:               randMat(src, 8, 8),
		PerAntennaPower: channel.Default().TxPowerLinear(),
		Noise:           channel.Default().NoiseLinear(),
	}
	var ws matrix.Workspace
	var dst matrix.Mat
	y8 := make([]complex128, 8)
	solver := precoding.NewSolver()
	solver8 := precoding.NewSolver()
	vs, _, err := solver.PowerBalanced(p4)
	if err != nil {
		panic(err)
	}
	v4 := vs.Clone()

	return []kernelCase{
		{"Mul4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a4, b4)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.MulInto(&dst, a4, b4)
				}
			}},
		{"Mul8x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a8, b8)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.MulInto(&dst, a8, b8)
				}
			}},
		{"Mul4x8x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a48, b84)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.MulInto(&dst, a48, b84)
				}
			}},
		{"MulVec8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a8.MulVec(x8)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.MulVecInto(y8, a8, x8)
				}
			}},
		{"Gram4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a4, baseHermitian(a4))
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.GramInto(&dst, a4)
				}
			}},
		{"Gram8x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a8, baseHermitian(a8))
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.GramInto(&dst, a8)
				}
			}},
		{"Gram4x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseMul(a48, baseHermitian(a48))
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matrix.GramInto(&dst, a48)
				}
			}},
		{"PseudoInverse4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := basePseudoInverse(a4); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := matrix.PseudoInverseInto(&dst, a4, &ws); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"PseudoInverse8x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := basePseudoInverse(a8); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := matrix.PseudoInverseInto(&dst, a8, &ws); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"PseudoInverse4x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := basePseudoInverse(a48); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := matrix.PseudoInverseInto(&dst, a48, &ws); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"SINRMatrix4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					BaselineSINRMatrix(p4.H, v4, p4.Noise)
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solver.SINRMatrix(p4.H, v4, p4.Noise)
				}
			}},
		{"NaiveScaled4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BaselineNaiveScaled(p4); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solver.NaiveScaled(p4); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"PowerBalanced4x4",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := BaselinePowerBalanced(p4); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := solver.PowerBalanced(p4); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{"PowerBalanced8x8",
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := BaselinePowerBalanced(p8); err != nil {
						b.Fatal(err)
					}
				}
			},
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := solver8.PowerBalanced(p8); err != nil {
						b.Fatal(err)
					}
				}
			}},
	}
}

// figureCases are reduced-scale reproductions of root figure benchmarks,
// tracking the end-to-end effect of kernel changes. parallel is each
// figure's topology-sweep pool width (<= 0 selects GOMAXPROCS).
func figureCases(topos int, seed int64, parallel int) []struct {
	name string
	fn   func(b *testing.B)
} {
	phy := sim.PhyOpts{Topologies: topos, Seed: seed, Parallelism: parallel}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Fig03NaiveScalingDrop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sim.Fig3NaiveScalingDrop(phy); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig10SmartPrecoding", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Fig10SmartPrecoding(phy); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig12SpatialReuse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Fig12SpatialReuse(topos, seed, sim.EnvOverrides{}, parallel)
			}
		}},
		{"Fig15EndToEnd", func(b *testing.B) {
			e2eTopos := topos / 2
			if e2eTopos < 1 {
				e2eTopos = 1
			}
			o := sim.E2EOpts{Topologies: e2eTopos, SimTime: 50 * time.Millisecond, Seed: seed, Parallelism: parallel}
			for i := 0; i < b.N; i++ {
				sim.Fig15EndToEnd(o)
			}
		}},
	}
}

// KernelSnapshot measures every before/after kernel pair (and, when
// figTopos > 0, the reduced-scale figure benchmarks on topology-sweep
// pools of the given width) over the given number of alternating
// rounds, keeping each side's fastest round — alternation cancels
// machine-load drift that would bias a one-sided run.
func KernelSnapshot(rounds, figTopos int, seed int64, parallel int) *Snapshot {
	if rounds < 1 {
		rounds = 1
	}
	snap := &Snapshot{
		Schema:    "midas-bench-kernels/v1",
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Rounds:    rounds,
		Note:      "before = frozen pre-workspace implementations (internal/bench); after = live in-place kernels; min ns/op over alternating rounds",
		WrittenBy: "midas-bench -kernels",
	}
	for _, kc := range kernelCases() {
		p := Pair{Name: kc.name}
		for r := 0; r < rounds; r++ {
			mb := measure(kc.before)
			ma := measure(kc.after)
			if r == 0 {
				p.Before, p.After = mb, ma
			} else {
				p.Before = better(p.Before, mb)
				p.After = better(p.After, ma)
			}
		}
		if p.After.NsOp > 0 {
			p.Speedup = p.Before.NsOp / p.After.NsOp
		}
		snap.Kernels = append(snap.Kernels, p)
	}
	if figTopos > 0 {
		for _, fc := range figureCases(figTopos, seed, parallel) {
			f := Figure{Name: fc.name}
			for r := 0; r < rounds; r++ {
				m := measure(fc.fn)
				if r == 0 {
					f.Metric = m
				} else {
					f.Metric = better(f.Metric, m)
				}
			}
			snap.Figures = append(snap.Figures, f)
		}
	}
	return snap
}

// WriteJSON emits the snapshot with stable indentation (diff-friendly for
// a committed baseline).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
