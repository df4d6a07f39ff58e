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
	if last.g.x0 != 0 {
		t.Error("Split/Seed built a generator")
	}
	last.Float64()
	if last.g.x0 == 0 {
		t.Error("first draw did not build the generator")
	}
}

// TestLaggedPhaseBoundaries stops streams on each side of the points
// where the generator changes how it holds or reads its state (the last
// draw that keeps nothing, the draw that fills the register, the end of
// the first pass), then continues them and reseeds them, bit for bit
// against rand.NewSource. A stream reseeded after draw 273 still holds
// its register, so its next draw 274 must refill it.
func TestLaggedPhaseBoundaries(t *testing.T) {
	stops := []int{1, lagTap - 1, lagTap, lagTap + 1, lagLen, lagLen + 1}
	check := func(t *testing.T, what string, g *lagged, ref rand.Source64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if w, got := ref.Uint64(), g.Uint64(); w != got {
				t.Fatalf("%s: draw %d: got %#x, want %#x", what, i+1, got, w)
			}
		}
	}
	for _, seed := range []int64{1, 42, -7, New(3).Split("stop").Seed()} {
		for _, n := range stops {
			var g lagged
			g.Seed(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			check(t, "first", &g, ref, n)
			if held := g.vec != nil; held != (n > lagTap) {
				t.Fatalf("seed %d: register held = %v after %d draws", seed, held, n)
			}
			check(t, "continued", &g, ref, 2*lagLen)

			var h lagged
			h.Seed(seed)
			check(t, "before reseed", &h, rand.NewSource(seed).(rand.Source64), n)
			h.Seed(seed + 1)
			check(t, "reseeded", &h, rand.NewSource(seed+1).(rand.Source64), 2*lagLen)
			h.Seed(seed)
			check(t, "reseeded again", &h, rand.NewSource(seed).(rand.Source64), lagTap+2)
		}
	}
}

// TestSourceAllocs pins what a stream costs: building it and drawing up
// to 273 values allocates only the Source, and no number of draws makes
// it allocate more than twice (the Source, then the register at draw
// 274).
func TestSourceAllocs(t *testing.T) {
	for _, c := range []struct {
		draws int
		want  float64
	}{{1, 1}, {272, 1}, {273, 1}, {274, 2}, {700, 2}} {
		allocs := testing.AllocsPerRun(50, func() {
			s := New(int64(c.draws))
			for i := 0; i < c.draws; i++ {
				s.Float64()
			}
		})
		if allocs != c.want {
			t.Errorf("building a stream and drawing %d values allocated %v times, want %v", c.draws, allocs, c.want)
		}
	}
}
