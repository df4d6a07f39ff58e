package mac

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/stats"
)

// TestLinkTableMatchesDirect checks every medium query against the link
// budget computed afresh, bit for bit: random positions, each queried
// three times (cache misses, then hits), probe sites interned only after
// the transmissions started, transmissions starting after probes were
// interned, one antenna site in two live transmissions at once, overlap
// spans naming a transmission that has ended while the span's owner is
// still on the air, and records reused once nothing names them. After every
// StartTx and every end of airtime, each watcher's running carrier-sense
// sum must equal the in-order sum of the live transmissions' direct
// powers, including a watcher registered while transmissions were live
// and excluding one that was unwatched, and every total and
// strongest-antenna power a live record has cached must equal the
// direct one. Every delivered frame's power must equal its strongest
// antenna's direct power.
func TestLinkTableMatchesDirect(t *testing.T) {
	p := channel.Default()
	field := p.NewField(7)
	direct := func(from, to geom.Point) float64 {
		return p.PowerAtPoint(from, to, p.TxPowerDBm) * field.Shadow(from, to)
	}
	r := rand.New(rand.NewPCG(11, 13))
	// posOf maps every site the test interns back to its position.
	posOf := map[int]geom.Point{}
	pt := func() geom.Point { return geom.Pt(r.Float64()*60, r.Float64()*45) }

	e := NewEngine()
	a := NewAir(e, &channel.Links{Budget: channel.Budget{P: p, Field: field}})
	intern := func(pos geom.Point) int {
		s := a.links.Site(pos)
		posOf[s] = pos
		return s
	}
	bits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), direct %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	type sent struct {
		id         int
		ants       []geom.Point
		start, end time.Duration
	}
	var txs []sent // ascending id
	live := map[int]bool{}
	sumFrom := func(s sent, pos geom.Point) float64 {
		sum := 0.0
		for _, ant := range s.ants {
			sum += direct(ant, pos)
		}
		return sum
	}
	bestFrom := func(s sent, pos geom.Point) float64 {
		best := 0.0
		for _, ant := range s.ants {
			best = max(best, direct(ant, pos))
		}
		return best
	}
	// checkRows compares every power a live record has cached with the
	// direct computation.
	checkRows := func(when string) {
		t.Helper()
		for _, at := range a.active {
			s := txs[at.id]
			for site, p := range at.pow {
				if p.total == unsetPower {
					continue
				}
				what := fmt.Sprintf("tx %d %s at %v: cached %%s at site %d", at.id, when, e.Now(), site)
				bits(fmt.Sprintf(what, "total"), p.total, sumFrom(s, posOf[site]))
				bits(fmt.Sprintf(what, "strongest"), p.best, bestFrom(s, posOf[site]))
			}
		}
	}
	var watchPos []geom.Point // by watcher id
	var checkSums func(when string)
	watch := func(pos geom.Point) int {
		watchPos = append(watchPos, pos)
		intern(pos)
		id := a.Watch(pos, func(bool) {})
		checkSums("after Watch")
		return id
	}
	checkSums = func(when string) {
		t.Helper()
		checked := 0
		for i, w := range a.watchers {
			if w.fn == nil {
				continue
			}
			want := 0.0
			for _, s := range txs {
				if live[s.id] {
					want += sumFrom(s, watchPos[i])
				}
			}
			bits(fmt.Sprintf("watcher %d sum %s at %v", i, when, e.Now()), w.sum, want)
			if b := want >= stats.Milliwatt(DefaultCSThresholdDBm); w.busy != b {
				t.Errorf("watcher %d busy = %v %s at %v, direct %v", i, w.busy, when, e.Now(), b)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("no watcher checked %s at %v", when, e.Now())
		}
		checkRows(when)
	}
	start := func(airtime time.Duration, ants ...geom.Point) {
		ids := make([]int, len(ants))
		for i, ant := range ants {
			ids[i] = intern(ant)
		}
		id, err := a.StartTx(Tx{Antennas: ids, Airtime: airtime})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, sent{id, ants, e.Now(), e.Now() + airtime})
		live[id] = true
		checkSums("after StartTx")
	}
	ends := 0
	listenPos := pt()
	intern(listenPos)
	a.Listen(Listener{Pos: listenPos, Fn: func(rx Rx) {
		bits(fmt.Sprintf("tx %d delivered power", rx.From), rx.Power, bestFrom(txs[rx.From], listenPos))
		delete(live, rx.From)
		ends++
		checkSums("after endTx")
	}})

	shared := pt()
	for i := 0; i < 3; i++ {
		watch(pt())
	}
	unwatched := watch(shared)
	// tx0 and tx1 overlap for their whole lives; tx2 ends before the
	// first probe while tx0 and tx1 still name it; tx3 starts after the
	// first probe, from tx0's antenna too. All four records are free
	// again once tx1 ends, so tx4 and tx5 reuse them.
	e.At(0, func() { start(100*time.Microsecond, shared, pt()) })
	e.At(10*time.Microsecond, func() { start(200*time.Microsecond, pt(), pt(), pt()) })
	e.At(30*time.Microsecond, func() { start(20*time.Microsecond, pt()) })
	e.At(40*time.Microsecond, func() { watch(pt()) })
	e.At(70*time.Microsecond, func() { start(100*time.Microsecond, shared) })
	e.At(85*time.Microsecond, func() { a.Unwatch(unwatched) })
	e.At(220*time.Microsecond, func() { start(50*time.Microsecond, pt(), shared) })
	e.At(230*time.Microsecond, func() { start(20*time.Microsecond, pt()) })

	probe := func(pos geom.Point) {
		site := intern(pos)
		want := 0.0
		for _, s := range txs {
			if live[s.id] {
				want += sumFrom(s, pos)
			}
		}
		bits("powerAt", a.powerAt(site, -1), want)
		for _, s := range txs {
			if !live[s.id] {
				continue
			}
			bits("TxSignalAt", a.TxSignalAt(s.id, site), bestFrom(s, pos))
			worst, weighted := 0.0, 0.0
			for _, o := range txs { // ascending id
				if o.id == s.id || o.end <= s.start || s.end <= o.start {
					continue
				}
				from, to := max(s.start, o.start), min(s.end, o.end)
				frac := min(max(float64(to-from)/float64(s.end-s.start), 0), 1)
				worst += sumFrom(o, pos)
				weighted += sumFrom(o, pos) * frac
			}
			bits("OverlapInterference", a.OverlapInterference(s.id, site), worst)
			bits("WeightedInterference", a.WeightedInterference(s.id, site), weighted)
		}
	}
	var probes []geom.Point
	for _, at := range []time.Duration{60, 80, 95, 150, 240} {
		e.At(at*time.Microsecond, func() {
			for i := 0; i < 8; i++ {
				probes = append(probes, pt())
			}
			probes = append(probes, shared)
			for round := 0; round < 3; round++ {
				for _, pos := range probes {
					probe(pos)
				}
			}
		})
	}
	e.Run(time.Second)
	if len(txs) != 6 || ends != 6 || len(probes) != 45 {
		t.Fatalf("ran %d transmissions, %d ends and %d probes, want 6, 6 and 45", len(txs), ends, len(probes))
	}
	if a.lookup(txs[1].id) != nil {
		t.Error("ended transmission still active")
	}
	if len(a.spare) != 4 {
		t.Errorf("%d records free after the run, want all 4", len(a.spare))
	}
}

// TestAirZeroAlloc pins the steady state of the medium: with watchers and
// listeners registered and the link table warm, three overlapping
// transmissions from start to delivery allocate nothing (transmission
// records, their overlap lists and power rows and their end-of-airtime
// closures are reused). The first and second end while the third still
// names them, so their records are held and then freed again.
func TestAirZeroAlloc(t *testing.T) {
	e := NewEngine()
	p := channel.Default()
	a := NewAir(e, &channel.Links{Budget: channel.Budget{P: p, Field: p.NewField(3)}})
	edges, rxs := 0, 0
	for i := 0; i < 4; i++ {
		pos := geom.Pt(float64(6*i), 0)
		a.Watch(pos, func(bool) { edges++ })
		a.Listen(Listener{Pos: pos, Fn: func(Rx) { rxs++ }})
	}
	first := Tx{Antennas: sites(a, geom.Pt(0, 0), geom.Pt(6, 0)), Airtime: 50 * time.Microsecond}
	second := Tx{Antennas: sites(a, geom.Pt(18, 0)), Airtime: 30 * time.Microsecond}
	third := Tx{Antennas: sites(a, geom.Pt(12, 0)), Airtime: 60 * time.Microsecond}
	startThird := func() {
		if _, err := a.StartTx(third); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		if _, err := a.StartTx(first); err != nil {
			t.Fatal(err)
		}
		if _, err := a.StartTx(second); err != nil {
			t.Fatal(err)
		}
		e.Schedule(10*time.Microsecond, startThird)
		e.Run(e.Now() + 70*time.Microsecond)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("StartTx→end cycle allocates %v, want 0", allocs)
	}
	if rxs != 12*102 || edges == 0 {
		t.Errorf("delivered %d frames and %d edges, want %d and some", rxs, edges, 12*102)
	}
	if a.ActiveCount() != 0 || len(a.spare) != 3 {
		t.Errorf("%d transmissions active and %d records free after the cycles, want 0 and 3", a.ActiveCount(), len(a.spare))
	}
}
