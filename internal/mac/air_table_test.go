package mac

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
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
// still on the air, and records reused while such spans still name the
// ended transmission's row. After every StartTx and every end of
// airtime, each watcher's running carrier-sense sum must equal the
// in-order sum of the live transmissions' direct powers, including a
// watcher registered while transmissions were live, and every total and
// strongest-antenna power a row has cached must equal the in-order
// direct sum over the row's antennas. Every delivered frame's power must
// equal its strongest antenna's direct power.
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
	// checkRows compares every power a row has cached with the direct
	// computation over the row's antennas, in order.
	checkRows := func(when string) {
		t.Helper()
		for _, r := range rows(a) {
			var s sent
			for _, ant := range r.ants {
				s.ants = append(s.ants, posOf[ant])
			}
			for site, p := range r.pow {
				if p.total == unsetPower {
					continue
				}
				what := fmt.Sprintf("row %v %s at %v: cached %%s at site %d", r.ants, when, e.Now(), site)
				bits(fmt.Sprintf(what, "total"), p.total, sumFrom(s, posOf[site]))
				bits(fmt.Sprintf(what, "strongest"), p.best, bestFrom(s, posOf[site]))
			}
		}
	}
	var watchPos []geom.Point // in registration order
	var checkSums func(when string)
	watch := func(pos geom.Point) {
		watchPos = append(watchPos, pos)
		intern(pos)
		a.Watch(pos, func(bool) {})
		checkSums("after Watch")
	}
	checkSums = func(when string) {
		t.Helper()
		checked := 0
		for i, w := range a.watchers {
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
	watch(shared)
	// tx0 and tx1 overlap for their whole lives; tx2 ends before the
	// first probe while tx0 and tx1 still name its row; tx3 starts after
	// the first probe, from tx0's antenna too, in tx2's record. No more
	// than three transmissions are ever on the air, so tx4 and tx5 reuse
	// records too.
	e.At(0, func() { start(100*time.Microsecond, shared, pt()) })
	e.At(10*time.Microsecond, func() { start(200*time.Microsecond, pt(), pt(), pt()) })
	e.At(30*time.Microsecond, func() { start(20*time.Microsecond, pt()) })
	e.At(40*time.Microsecond, func() { watch(pt()) })
	e.At(70*time.Microsecond, func() { start(100*time.Microsecond, shared) })
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
	if len(a.spare) != 3 {
		t.Errorf("%d records free after the run, want all 3", len(a.spare))
	}
}

// rows returns every power row the medium holds.
func rows(a *Air) []*powerRow {
	var rs []*powerRow
	for _, r := range a.rowIndex {
		for ; r != nil; r = r.next {
			rs = append(rs, r)
		}
	}
	return rs
}

// TestAirZeroAlloc pins the steady state of the medium: with watchers and
// listeners registered and the link table warm, three overlapping
// transmissions from start to delivery allocate nothing (transmission
// records, their overlap lists and their end-of-airtime closures are
// reused, and each antenna list's power row is found, not rebuilt). The
// first and second end while the third's overlap spans still name their
// rows.
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
	if len(a.active) != 0 || len(a.spare) != 3 {
		t.Errorf("%d transmissions active and %d records free after the cycles, want 0 and 3", len(a.active), len(a.spare))
	}
}

// TestAirPowerRows sends transmissions over K distinct antenna lists,
// one antenna set among them in two orders, each list several times and
// overlapping the others. The medium must hold exactly K rows, and
// every total and strongest-antenna power a row has cached must have
// the bits of the in-order direct sum over its list. Once every list
// has its row, sending them all again allocates nothing, and adding 64
// new lists allocates at most 32 times: rows, their lists and their
// powers are cut from slabs that double, where a row allocated on its
// own would cost 64 allocations at least.
func TestAirPowerRows(t *testing.T) {
	p := channel.Default()
	field := p.NewField(5)
	direct := func(from, to geom.Point) float64 {
		return p.PowerAtPoint(from, to, p.TxPowerDBm) * field.Shadow(from, to)
	}
	e := NewEngine()
	a := NewAir(e, &channel.Links{Budget: channel.Budget{P: p, Field: field}})
	posOf := map[int]geom.Point{}
	intern := func(pos geom.Point) int {
		s := a.links.Site(pos)
		posOf[s] = pos
		return s
	}
	for i := 0; i < 4; i++ {
		pos := geom.Pt(float64(7*i), 3)
		intern(pos)
		a.Watch(pos, func(bool) {})
		a.Listen(Listener{Pos: pos, Fn: func(Rx) {}})
	}
	ant := func(i int) int { return intern(geom.Pt(float64(4*i), float64(i%3))) }
	lists := [][]int{
		{ant(0)}, {ant(1)}, {ant(0), ant(1), ant(2)}, {ant(2), ant(0), ant(1)},
		{ant(3), ant(4)}, {ant(5), ant(3)}, {ant(1), ant(4), ant(5), ant(0)},
	}
	send := func() {
		for i, ants := range lists {
			airtime := time.Duration(20+7*i) * time.Microsecond
			if _, err := a.StartTx(Tx{Antennas: ants, Airtime: airtime}); err != nil {
				t.Fatal(err)
			}
			e.Run(e.Now() + 10*time.Microsecond)
		}
		e.Run(e.Now() + 100*time.Microsecond)
	}
	for round := 0; round < 3; round++ {
		send()
	}
	rs := rows(a)
	if len(rs) != len(lists) {
		t.Fatalf("medium holds %d rows for %d distinct antenna lists", len(rs), len(lists))
	}
	filled := 0
	for _, r := range rs {
		for site, c := range r.pow {
			if c.total == unsetPower {
				continue
			}
			total, best := 0.0, 0.0
			for _, s := range r.ants {
				l := direct(posOf[s], posOf[site])
				total += l
				best = max(best, l)
			}
			if math.Float64bits(c.total) != math.Float64bits(total) || math.Float64bits(c.best) != math.Float64bits(best) {
				t.Errorf("row %v at site %d caches (%v, %v), direct in-order (%v, %v)", r.ants, site, c.total, c.best, total, best)
			}
			filled++
		}
	}
	if filled < len(lists)*4 {
		t.Errorf("rows cache %d powers, want at least one per list and watcher site (%d)", filled, len(lists)*4)
	}
	if allocs := testing.AllocsPerRun(20, send); allocs != 0 {
		t.Errorf("sending over known antenna lists allocates %v times, want 0", allocs)
	}

	const fresh = 64
	var more [fresh][]int
	for i := range more {
		more[i] = []int{ant(6 + i), ant(i % 6)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ants := range more {
		if _, err := a.StartTx(Tx{Antennas: ants, Airtime: 20 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + 30*time.Microsecond)
	}
	runtime.ReadMemStats(&after)
	if n := len(rows(a)); n != len(lists)+fresh {
		t.Errorf("medium holds %d rows, want %d", n, len(lists)+fresh)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > fresh/2 {
		t.Errorf("%d new antenna lists allocated %d times, want at most %d", fresh, allocs, fresh/2)
	}
}
