// Package rng provides the deterministic random sources used by the MIDAS
// simulator: seeded uniform/Gaussian draws, circularly-symmetric complex
// Gaussians for Rayleigh fading, log-normal shadowing, and cheap splittable
// sub-streams so that independent subsystems (topology, fading, MAC jitter)
// consume independent randomness from one experiment seed.
//
// Every experiment in this repository takes an explicit seed; two runs with
// the same seed produce byte-identical results.
package rng

import (
	"math"
	"math/rand"
	"strconv"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distributions the wireless models need.
//
// A Source records only its seed until its first draw, which seeds the
// generator it holds inline (math/rand's own stream for that seed,
// seeded on demand; see lagged). Splitting and reading Seed therefore
// never seed one, and SplitSeed derives a child's seed without even
// building the Source. A stream that stops within 273 draws lives in
// the Source's one allocation; a longer one adds the 4.9 KB register
// at draw 274, so a stream's state is never more than two allocations.
//
// Concurrency: a Source's draw methods (Float64, Norm, Perm, …) seed
// and then mutate the underlying stream and are NOT safe for concurrent
// use — each goroutine must own the Sources it draws from, and the
// generator is seeded lazily by that single owner. Split and SplitN,
// however, read only the immutable seed recorded at construction, so
// any number of goroutines may derive children from one shared parent
// concurrently, and sibling children may be consumed from different
// goroutines. This is the discipline the internal/runner worker pool
// relies on: one root Source per experiment, one Split child per task.
type Source struct {
	// r draws from g; both are zero until the first draw (g.x0 == 0),
	// and only the owner seeds them.
	r rand.Rand
	g lagged
	// seed is immutable after New; Split derives children from it
	// without touching r, which is what makes concurrent splitting safe.
	seed int64
}

// New returns a Source seeded with seed. The generator is seeded on the
// first draw.
func New(seed int64) *Source {
	return &Source{seed: seed}
}

// gen returns the generator, seeding it on first use.
func (s *Source) gen() *rand.Rand {
	if s.g.x0 == 0 {
		s.g.Seed(s.seed)
		s.r = *rand.New(&s.g)
	}
	return &s.r
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child stream from this source's seed and a
// label. The same (seed, label) pair always yields the same child, while
// different labels yield decorrelated streams. Splitting never advances the
// parent stream, so adding a new Split call site does not perturb existing
// consumers. Split is safe to call from multiple goroutines on the same
// parent (it only reads the immutable seed); the returned child is an
// ordinary unsynchronized Source owned by the caller.
func (s *Source) Split(label string) *Source { return New(SplitSeed(s.seed, label)) }

// SplitN derives the i-th child of a labelled family, e.g. one stream per
// topology index. Its label is label + "#" + the decimal digits of i.
func (s *Source) SplitN(label string, i int) *Source { return New(SplitNSeed(s.seed, label, i)) }

// SplitSeed returns the seed of Split(label) on a Source seeded with seed,
// building no Source: a chain that only reads a child's seed, such as
// src.Split("model").Split("shadow").Seed(), is
// SplitSeed(SplitSeed(src.Seed(), "model"), "shadow").
func SplitSeed(seed int64, label string) int64 {
	return splitFinish(fnvString(fnvOffset, label), seed)
}

// SplitNSeed returns the seed of SplitN(label, i) on a Source seeded with
// seed, building neither a Source nor the label string.
func SplitNSeed(seed int64, label string, i int) int64 {
	var digits [20]byte
	h := fnvString(fnvOffset, label)
	h = fnvByte(h, '#')
	for _, b := range strconv.AppendInt(digits[:0], int64(i), 10) {
		h = fnvByte(h, b)
	}
	return splitFinish(h, seed)
}

// The child seed is FNV-1a over the label and then the parent seed's
// eight little-endian bytes, passed through the splitmix64 finalizer so
// nearby seeds diverge.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func splitFinish(h uint64, seed int64) int64 {
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Intn returns an integer in [0, n).
func (s *Source) Intn(n int) int { return s.gen().Intn(n) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.gen().Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.gen().Float64()
}

// Norm returns a standard normal draw.
func (s *Source) Norm() float64 { return s.gen().NormFloat64() }

// Gauss returns a normal draw with the given mean and standard deviation.
func (s *Source) Gauss(mean, std float64) float64 {
	return mean + std*s.gen().NormFloat64()
}

// ComplexCircular returns a circularly-symmetric complex Gaussian
// CN(0, variance): real and imaginary parts are independent
// N(0, variance/2), so E[|z|²] == variance.
func (s *Source) ComplexCircular(variance float64) complex128 {
	std := math.Sqrt(variance / 2)
	return complex(s.Gauss(0, std), s.Gauss(0, std))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.gen().Perm(n) }

// PointInDisc returns a uniform point in the disc of the given radius
// centred at the origin.
func (s *Source) PointInDisc(radius float64) (x, y float64) {
	r := radius * math.Sqrt(s.Float64())
	theta := s.Uniform(0, 2*math.Pi)
	return r * math.Cos(theta), r * math.Sin(theta)
}

// PointInAnnulus returns a uniform point in the annulus rInner <= r < rOuter
// centred at the origin. It panics unless 0 <= rInner < rOuter.
func (s *Source) PointInAnnulus(rInner, rOuter float64) (x, y float64) {
	if rInner < 0 || rInner >= rOuter {
		panic("rng: invalid annulus radii")
	}
	// Uniform over area: r² uniform in [rInner², rOuter²).
	r2 := s.Uniform(rInner*rInner, rOuter*rOuter)
	r := math.Sqrt(r2)
	theta := s.Uniform(0, 2*math.Pi)
	return r * math.Cos(theta), r * math.Sin(theta)
}
