package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give identical streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams from different seeds nearly identical (%d matches)", same)
	}
}

func TestSplitIndependentOfParentUse(t *testing.T) {
	p1 := New(7)
	c1 := p1.Split("fading")
	p2 := New(7)
	p2.Float64() // advance parent
	c2 := p2.Split("fading")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split must not depend on parent stream position")
		}
	}
}

func TestSplitLabelsDecorrelated(t *testing.T) {
	p := New(7)
	a := p.Split("a")
	b := p.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("labelled splits should differ; %d matches", same)
	}
}

func TestSplitN(t *testing.T) {
	p := New(9)
	if p.SplitN("t", 3).Seed() == p.SplitN("t", 4).Seed() {
		t.Error("SplitN children should have distinct seeds")
	}
	if p.SplitN("t", 3).Seed() != p.SplitN("t", 3).Seed() {
		t.Error("SplitN should be deterministic")
	}
}

// refSplitSeed is the child-seed derivation written out with hash/fnv:
// FNV-1a over the label and the parent seed's little-endian bytes, then
// the splitmix64 finalizer.
func refSplitSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], uint64(seed))
	h.Write(le[:])
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// TestSplitSeedMatchesSplit pins SplitSeed and SplitNSeed bit for bit to
// the seeds Split and SplitN give their children and to the reference
// derivation, across labels, indices (negative ones included) and seeds.
func TestSplitSeedMatchesSplit(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 2014, math.MaxInt64, math.MinInt64}
	labels := []string{"", "shadow", "model", "overhear", "field", "héllo#"}
	indices := []int{0, 5, 42, -17, 1000, math.MaxInt64, math.MinInt64}
	for _, seed := range seeds {
		for _, label := range labels {
			want := refSplitSeed(seed, label)
			if got := SplitSeed(seed, label); got != want {
				t.Fatalf("SplitSeed(%d, %q) = %d, want %d", seed, label, got, want)
			}
			if got := New(seed).Split(label).Seed(); got != want {
				t.Fatalf("Split(%q) on seed %d gives seed %d, want %d", label, seed, got, want)
			}
			for _, i := range indices {
				want := refSplitSeed(seed, label+"#"+strconv.Itoa(i))
				if got := SplitNSeed(seed, label, i); got != want {
					t.Fatalf("SplitNSeed(%d, %q, %d) = %d, want %d", seed, label, i, got, want)
				}
				if got := New(seed).SplitN(label, i).Seed(); got != want {
					t.Fatalf("SplitN(%q, %d) on seed %d gives seed %d, want %d", label, i, seed, got, want)
				}
			}
		}
	}
	f := func(seed int64, label string, i int) bool {
		return SplitSeed(seed, label) == New(seed).Split(label).Seed() &&
			SplitNSeed(seed, label, i) == refSplitSeed(seed, label+"#"+strconv.Itoa(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSplitSeedZeroAlloc pins that deriving a child seed, by label or by
// labelled index, allocates nothing.
func TestSplitSeedZeroAlloc(t *testing.T) {
	var sink int64
	allocs := testing.AllocsPerRun(200, func() {
		sink += SplitSeed(SplitSeed(2014, "model"), "shadow")
		sink += SplitNSeed(2014, "field", 63)
		sink += SplitNSeed(2014, "overhear", -7)
	})
	if allocs != 0 {
		t.Errorf("seed derivation allocated %v times, want 0", allocs)
	}
	_ = sink
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestGaussMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Gauss(3, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("var = %v, want ~4", variance)
	}
}

func TestComplexCircularMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var power, re, im float64
	for i := 0; i < n; i++ {
		z := s.ComplexCircular(2.5)
		power += real(z)*real(z) + imag(z)*imag(z)
		re += real(z)
		im += imag(z)
	}
	if got := power / n; math.Abs(got-2.5) > 0.05 {
		t.Errorf("E|z|^2 = %v, want ~2.5", got)
	}
	if math.Abs(re/n) > 0.02 || math.Abs(im/n) > 0.02 {
		t.Errorf("mean not ~0: %v %v", re/n, im/n)
	}
}

func TestPointInDisc(t *testing.T) {
	s := New(31)
	inside := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x, y := s.PointInDisc(3)
		r := math.Hypot(x, y)
		if r > 3 {
			t.Fatalf("point outside disc: r=%v", r)
		}
		if r < 3/math.Sqrt2 { // inner disc of half the area
			inside++
		}
	}
	frac := float64(inside) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("area uniformity: inner-half fraction = %v, want ~0.5", frac)
	}
}

func TestPointInAnnulus(t *testing.T) {
	s := New(37)
	for i := 0; i < 5000; i++ {
		x, y := s.PointInAnnulus(2, 5)
		r := math.Hypot(x, y)
		if r < 2-1e-9 || r >= 5+1e-9 {
			t.Fatalf("point outside annulus: r=%v", r)
		}
	}
}

func TestPointInAnnulusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad radii")
		}
	}()
	New(1).PointInAnnulus(5, 2)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := int(n%20) + 1
		p := New(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split determinism — (seed, label) fully determines the child.
func TestSplitDeterministicProperty(t *testing.T) {
	f := func(seed int64, label string) bool {
		a := New(seed).Split(label)
		b := New(seed).Split(label)
		return a.Seed() == b.Seed() && a.Float64() == b.Float64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentSplit pins the concurrency contract the internal/runner
// worker pool depends on: many goroutines may Split/SplitN from one
// shared parent at once, and each sibling child, consumed on its own
// goroutine, yields exactly the stream a sequential derivation gives.
// Run with -race to verify the absence of data races, not just the
// equality of results.
func TestConcurrentSplit(t *testing.T) {
	const n = 64
	parent := New(2014)

	// Sequential reference: child i's first ten draws.
	want := make([][10]float64, n)
	for i := range want {
		c := New(2014).SplitN("worker", i)
		for j := range want[i] {
			want[i][j] = c.Float64()
		}
	}

	got := make([][10]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			c := parent.SplitN("worker", i) // concurrent Split on shared parent
			for j := range got[i] {
				got[i][j] = c.Float64() // sibling consumed on its own goroutine
			}
		}()
	}
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("child %d drew %v concurrently, want %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentSplitDoesNotPerturbParent verifies concurrent splitting
// leaves the parent's own stream untouched.
func TestConcurrentSplitDoesNotPerturbParent(t *testing.T) {
	ref := New(99)
	parent := New(99)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent.SplitN("noise", i)
		}()
	}
	wg.Wait()
	for i := 0; i < 50; i++ {
		if parent.Float64() != ref.Float64() {
			t.Fatal("concurrent Split perturbed the parent stream")
		}
	}
}
