package rng

import "math/rand"

// lagged is math/rand's additive lagged Fibonacci generator (the
// 607/273 source rand.NewSource returns), reproduced bit for bit but
// seeded on demand.
//
// rand.NewSource fills all 607 register words up front: word i is
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ cooked[i],  x(n) = x0·48271ⁿ mod (2³¹−1),
//
// which depends only on (x0, i). During the first 607 draws every feed
// read, and every tap read of draws 1–273, touches a word no draw has
// written yet, so lagged computes exactly those words when they are
// first read. From draw 608 on it is the plain two-index update. A
// stream that draws k values pays a few modular products per draw
// instead of 1,841 products plus the register fill.
//
// No draw before draw 274 reads a word an earlier draw wrote, so those
// draws keep nothing: a stream that stops by then holds no register.
// Draw 274 allocates the 607-word register (or reuses the one the
// stream already holds) and refills the 273 words the draws so far
// wrote, recomputing each from the seed: draw k+1 wrote
// word(333−k) + word(606−k) at index 333−k. A stream that draws a few
// hundred values therefore holds nothing beyond its Source, and no
// stream allocates more than the register. Seed keeps a register once
// allocated; the next draw 274 refills it.
type lagged struct {
	x0    uint64 // the normalised seed, in [1, 2³¹−1); 0 before Seed
	drawn int    // draws so far, counted up to lagLen
	tap   int
	feed  int
	vec   *[lagLen]int64 // the register, from draw lagTap+1 on
}

const (
	lagLen   = 607
	lagTap   = 273
	lagMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lagSteps is the largest n the seeding sequence x(n) reaches.
	lagSteps = 23 + 3*(lagLen-1)
)

var (
	// seedPow[n] is 48271ⁿ mod (2³¹−1), the multiplier of the seeding
	// sequence's n-th step.
	seedPow [lagSteps + 1]uint64
	// cooked is math/rand's rngCooked table, recovered from the standard
	// library itself (see init).
	cooked [lagLen]int64
)

// init recovers math/rand's table from the generator it seeds: the 607
// outputs of rand.NewSource(1) are the final register words at each
// draw's feed index; undoing the 607 additions in reverse gives the
// seeded register, and XOR-ing off seed 1's part leaves the table.
func init() {
	seedPow[0] = 1
	for n := 1; n <= lagSteps; n++ {
		seedPow[n] = mod31(seedPow[n-1] * 48271)
	}
	ref := rand.NewSource(1).(rand.Source64)
	g := lagged{vec: new([lagLen]int64)}
	g.Seed(1)
	for t := 0; t < lagLen; t++ {
		g.step()
		g.vec[g.feed] = int64(ref.Uint64())
	}
	for t := 0; t < lagLen; t++ {
		g.vec[g.feed] -= g.vec[g.tap]
		g.tap = (g.tap + 1) % lagLen
		g.feed = (g.feed + 1) % lagLen
	}
	for i := range cooked {
		cooked[i] = g.vec[i] ^ g.seedPart(i)
	}
}

// Seed resets the generator to rand.NewSource(seed)'s state without
// filling the register.
func (g *lagged) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	g.x0 = uint64(seed)
	g.drawn = 0
	g.tap = 0
	g.feed = lagLen - lagTap
}

// seedPart is word i of the seeded register before the cooked XOR.
func (g *lagged) seedPart(i int) int64 {
	x := func(n int) int64 { return int64(mod31(g.x0 * seedPow[n])) }
	return x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i)
}

// mod31 returns p mod 2³¹−1 for p < 2⁶²: since 2³¹ ≡ 1, folding the
// high bits onto the low ones keeps the residue and leaves at most one
// modulus to subtract.
func mod31(p uint64) uint64 {
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// word is word i of the seeded register.
func (g *lagged) word(i int) int64 { return g.seedPart(i) ^ cooked[i] }

// step moves tap and feed to the next draw's indices.
func (g *lagged) step() {
	g.tap--
	if g.tap < 0 {
		g.tap += lagLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += lagLen
	}
}

// Uint64 returns the next 64-bit value, as rand.NewSource's would.
func (g *lagged) Uint64() uint64 {
	g.step()
	if g.drawn >= lagLen {
		x := g.vec[g.feed] + g.vec[g.tap]
		g.vec[g.feed] = x
		return uint64(x)
	}
	var x int64
	if g.drawn < lagTap {
		x = g.word(g.feed) + g.word(g.tap)
	} else {
		if g.drawn == lagTap {
			g.refill()
		}
		x = g.word(g.feed) + g.vec[g.tap]
		g.vec[g.feed] = x
	}
	g.drawn++
	return uint64(x)
}

// refill writes into the register, allocating it if the stream holds
// none, the words draws 1–273 wrote: draw k+1 added word(606−k) to
// word(333−k) at index 333−k.
func (g *lagged) refill() {
	if g.vec == nil {
		g.vec = new([lagLen]int64)
	}
	for k := 0; k < lagTap; k++ {
		i := lagLen - lagTap - 1 - k
		g.vec[i] = g.word(i) + g.word(lagLen-1-k)
	}
}

// Int63 returns the next non-negative 63-bit value.
func (g *lagged) Int63() int64 { return int64(g.Uint64() & lagMask) }
