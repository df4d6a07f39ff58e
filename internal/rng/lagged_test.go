package rng

import (
	"math"
	"math/rand"
	"testing"
)

// equivalenceSeeds returns the seeds the bit-identity test covers: the
// edge cases of math/rand's seed normalisation (zero, the modulus and
// its multiples, the replacement constant, the int64 extremes) plus a
// spread of ordinary and split-derived seeds.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max - 1, int32max + 1, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	for i := int64(0); len(seeds) < 311; i++ {
		seeds = append(seeds, i*7919-1000, New(i).Split("eq").Seed())
	}
	return seeds
}

// TestLaggedMatchesMathRand pins the on-demand source bit for bit to
// rand.NewSource: raw draws well past draw 273 (where tap reads stop
// touching unseeded words) and draw 607 (where the register is fully
// written), and the rand.Rand methods Source exposes on top of it.
func TestLaggedMatchesMathRand(t *testing.T) {
	const draws = 2000
	for _, seed := range equivalenceSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		var g lagged
		g.Seed(seed)
		for i := 0; i < draws; i++ {
			var want, got uint64
			if i%3 == 0 {
				want, got = uint64(ref.Int63()), uint64(g.Int63())
			} else {
				want, got = ref.Uint64(), g.Uint64()
			}
			if want != got {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i+1, got, want)
			}
		}

		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for i := 0; i < 300; i++ {
			if w, g := want.NormFloat64(), got.Norm(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d NormFloat64 %d: got %v, want %v", seed, i, g, w)
			}
			if w, g := want.Intn(97+i), got.Intn(97+i); w != g {
				t.Fatalf("seed %d Intn %d: got %d, want %d", seed, i, g, w)
			}
			if w, g := want.Float64(), got.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d Float64 %d: got %v, want %v", seed, i, g, w)
			}
		}
		wp, gp := want.Perm(40), got.Perm(40)
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("seed %d Perm: got %v, want %v", seed, gp, wp)
			}
		}
	}
}

// TestLaggedReseed checks that Seed restarts the stream from scratch,
// also after the register has been fully written.
func TestLaggedReseed(t *testing.T) {
	var g lagged
	g.Seed(5)
	for i := 0; i < 1000; i++ {
		g.Uint64()
	}
	g.Seed(6)
	ref := rand.NewSource(6).(rand.Source64)
	for i := 0; i < 700; i++ {
		if w, got := ref.Uint64(), g.Uint64(); w != got {
			t.Fatalf("draw %d after reseed: got %#x, want %#x", i+1, got, w)
		}
	}
}

// TestSplitDoesNotSeed pins the cost of deriving a seed: a
// New(..).Split(..).Split(..).Seed() chain allocates at most its three
// Sources and never builds a generator.
func TestSplitDoesNotSeed(t *testing.T) {
	var last *Source
	allocs := testing.AllocsPerRun(200, func() {
		last = New(2014).Split("model").Split("shadow")
		_ = last.Seed()
	})
	if allocs > 3 {
		t.Errorf("split chain allocated %v times, want at most 3 (the Sources)", allocs)
	}
	if last.r != nil {
		t.Error("Split/Seed built a generator")
	}
	last.Float64()
	if last.r == nil {
		t.Error("first draw did not build the generator")
	}
}
