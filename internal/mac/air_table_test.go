package mac

import (
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
// interned, one antenna site used at two powers at once, and overlap
// spans of a transmission that ended and whose record was reused.
func TestLinkTableMatchesDirect(t *testing.T) {
	p := channel.Default()
	field := p.NewField(7)
	direct := func(from, to geom.Point, dBm float64) float64 {
		return p.PowerAtPoint(from, to, dBm) * field.Shadow(from, to)
	}
	r := rand.New(rand.NewPCG(11, 13))
	pt := func() geom.Point { return geom.Pt(r.Float64()*60, r.Float64()*45) }

	e := NewEngine()
	a := NewAir(e, p, field)
	type sent struct {
		id         int
		tx         Tx
		start, end time.Duration
	}
	var txs []sent
	start := func(tx Tx) {
		id, err := a.StartTx(tx)
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, sent{id, tx, e.Now(), e.Now() + tx.Airtime})
	}
	shared := pt()
	// tx0 and tx1 overlap for their whole lives; tx2 ends before the
	// first probe; tx3 starts after the first probe, on tx2's reused
	// record and with tx0's antenna at another power.
	e.At(0, func() {
		start(Tx{Antennas: []geom.Point{shared, pt()}, PowerDBm: 24, Airtime: 100 * time.Microsecond})
	})
	e.At(10*time.Microsecond, func() {
		start(Tx{Antennas: []geom.Point{pt(), pt(), pt()}, PowerDBm: 20, Airtime: 200 * time.Microsecond})
	})
	e.At(30*time.Microsecond, func() {
		start(Tx{Antennas: []geom.Point{pt()}, PowerDBm: 17, Airtime: 20 * time.Microsecond})
	})
	e.At(70*time.Microsecond, func() {
		start(Tx{Antennas: []geom.Point{shared}, PowerDBm: 11, Airtime: 100 * time.Microsecond})
	})

	bits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), direct %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sumFrom := func(tx Tx, pos geom.Point) float64 {
		s := 0.0
		for _, ant := range tx.Antennas {
			s += direct(ant, pos, tx.PowerDBm)
		}
		return s
	}
	probe := func(pos geom.Point) {
		now := e.Now()
		var live []sent
		for _, s := range txs {
			if s.start <= now && now < s.end {
				live = append(live, s)
			}
		}
		want := 0.0
		for _, s := range live {
			want += sumFrom(s.tx, pos)
		}
		bits("PowerAt", a.PowerAt(pos, -1), want)
		if got, w := a.Busy(pos), want >= stats.Milliwatt(a.CSThresholdDBm); got != w {
			t.Errorf("Busy = %v, direct %v", got, w)
		}
		for _, s := range live {
			best := 0.0
			for _, ant := range s.tx.Antennas {
				best = max(best, direct(ant, pos, s.tx.PowerDBm))
			}
			bits("TxSignalAt", a.TxSignalAt(s.id, pos), best)
			worst, weighted := 0.0, 0.0
			for _, o := range txs { // ascending id
				if o.id == s.id || o.end <= s.start || s.end <= o.start {
					continue
				}
				from, to := max(s.start, o.start), min(s.end, o.end)
				frac := min(max(float64(to-from)/float64(s.end-s.start), 0), 1)
				worst += sumFrom(o.tx, pos)
				weighted += sumFrom(o.tx, pos) * frac
			}
			bits("OverlapInterference", a.OverlapInterference(s.id, pos), worst)
			bits("WeightedInterference", a.WeightedInterference(s.id, pos), weighted)
		}
	}
	var probes []geom.Point
	for _, at := range []time.Duration{60, 80, 95} {
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
	if len(txs) != 4 || len(probes) != 27 {
		t.Fatalf("ran %d transmissions and %d probes, want 4 and 27", len(txs), len(probes))
	}
	if a.OverlapCount(txs[1].id) != 0 {
		t.Error("ended transmission still reports overlaps")
	}
}

// TestAirZeroAlloc pins the steady state of the medium: with watchers and
// listeners registered and the link table warm, a pair of overlapping
// transmissions from start to delivery allocates nothing (transmission
// records, their overlap lists and their end-of-airtime closures are
// reused).
func TestAirZeroAlloc(t *testing.T) {
	e := NewEngine()
	p := channel.Default()
	a := NewAir(e, p, p.NewField(3))
	edges, rxs := 0, 0
	for i := 0; i < 4; i++ {
		pos := geom.Pt(float64(6*i), 0)
		a.Watch(pos, func(bool) { edges++ })
		a.Listen(Listener{Pos: pos, Fn: func(Rx) { rxs++ }})
	}
	first := Tx{Antennas: []geom.Point{geom.Pt(0, 0), geom.Pt(6, 0)}, PowerDBm: p.TxPowerDBm, Airtime: 50 * time.Microsecond}
	second := Tx{Antennas: []geom.Point{geom.Pt(18, 0)}, PowerDBm: p.TxPowerDBm, Airtime: 30 * time.Microsecond}
	cycle := func() {
		if _, err := a.StartTx(first); err != nil {
			t.Fatal(err)
		}
		if _, err := a.StartTx(second); err != nil {
			t.Fatal(err)
		}
		e.Run(e.Now() + first.Airtime)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("StartTx→end cycle allocates %v, want 0", allocs)
	}
	if rxs != 8*102 || edges == 0 {
		t.Errorf("delivered %d frames and %d edges, want %d and some", rxs, edges, 8*102)
	}
}
