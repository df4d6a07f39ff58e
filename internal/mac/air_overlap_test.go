package mac

import (
	"math"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
)

func TestWatchEdges(t *testing.T) {
	e, a := newTestAir()
	var edges []bool
	a.Watch(geom.Pt(5, 0), func(busy bool) { edges = append(edges, busy) })
	if len(edges) != 1 || edges[0] {
		t.Fatalf("initial watch state = %v, want [false]", edges)
	}
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 50 * time.Microsecond})
	e.Run(time.Second)
	if len(edges) != 3 || !edges[1] || edges[2] {
		t.Fatalf("edges = %v, want [false true false]", edges)
	}
}

func TestWatchNoEdgeWhenAlreadyBusy(t *testing.T) {
	// Two overlapping transmissions near the watcher: only one busy edge.
	e, a := newTestAir()
	var edges []bool
	a.Watch(geom.Pt(5, 0), func(busy bool) { edges = append(edges, busy) })
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 100 * time.Microsecond})
	e.Schedule(20*time.Microsecond, func() {
		a.StartTx(Tx{Antennas: sites(a, geom.Pt(1, 0)), Airtime: 100 * time.Microsecond})
	})
	e.Run(time.Second)
	// initial(false), busy at t=0, idle when the second tx ends.
	if len(edges) != 3 {
		t.Fatalf("edges = %v, want exactly 3", edges)
	}
}

func TestOverlapQueriesDuringFlight(t *testing.T) {
	e, a := newTestAir()
	pos := geom.Pt(10, 0)
	id1, _ := a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 100 * time.Microsecond})
	if got := overlapCount(a, id1); got != 0 {
		t.Errorf("fresh tx overlap count = %d", got)
	}
	if got := a.OverlapInterference(id1, a.links.Site(pos)); got != 0 {
		t.Errorf("fresh tx interference = %v", got)
	}
	sig := a.TxSignalAt(id1, a.links.Site(pos))
	if sig <= 0 {
		t.Error("active tx should have positive signal")
	}
	var id2 int
	e.Schedule(50*time.Microsecond, func() {
		id2, _ = a.StartTx(Tx{Antennas: sites(a, geom.Pt(20, 0)), Airtime: 100 * time.Microsecond})
	})
	e.Schedule(99*time.Microsecond, func() {
		if got := overlapCount(a, id1); got != 1 {
			t.Errorf("overlap count = %d, want 1", got)
		}
		oi := a.OverlapInterference(id1, a.links.Site(pos))
		if oi <= 0 {
			t.Error("overlap interference should be positive")
		}
		// Weighted interference scales by the 50% overlap fraction.
		wi := a.WeightedInterference(id1, a.links.Site(pos))
		if wi <= 0 || wi >= oi {
			t.Errorf("weighted %v should be positive and below worst-case %v", wi, oi)
		}
		if ratio := wi / oi; math.Abs(ratio-0.5) > 0.02 {
			t.Errorf("weighted/worst-case = %v, want ≈0.5 (50µs of 100µs)", ratio)
		}
		// And from id2's perspective the whole overlap window is within
		// its own airtime start..id1End — fraction (100-50)/100 = 0.5.
		if got := overlapCount(a, id2); got != 1 {
			t.Errorf("id2 overlap count = %d", got)
		}
	})
	e.Run(time.Second)
}

func TestOverlapQueriesAfterEnd(t *testing.T) {
	e, a := newTestAir()
	id, _ := a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: time.Microsecond})
	e.Run(time.Second)
	if overlapCount(a, id) != 0 || a.OverlapInterference(id, a.links.Site(geom.Pt(1, 0))) != 0 ||
		a.WeightedInterference(id, a.links.Site(geom.Pt(1, 0))) != 0 || a.TxSignalAt(id, a.links.Site(geom.Pt(1, 0))) != 0 {
		t.Error("ended tx should answer zero to all overlap queries")
	}
}

func TestAirWithShadowField(t *testing.T) {
	// The same link budget query through a field must differ from the
	// free-space one.
	e := NewEngine()
	p := channel.Default()
	field := p.NewField(12345)
	free := NewAir(e, &channel.Links{Budget: channel.Budget{P: p}})
	walled := NewAir(e, &channel.Links{Budget: channel.Budget{P: p, Field: field}})
	for _, a := range []*Air{free, walled} {
		a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: time.Second})
	}
	pos := geom.Pt(25, 0)
	pf := powerAt(free, pos, -1)
	pw := powerAt(walled, pos, -1)
	if pf == pw {
		t.Error("shadow field should change the link budget")
	}
	if w := field.Walls(geom.Pt(0, 0), pos); w > 0 && pw >= pf {
		t.Errorf("power through %d walls (%v) should be below free space (%v)", w, pw, pf)
	}
}

func TestNAVExpiryAccessor(t *testing.T) {
	var n NAV
	n.Update(77 * time.Microsecond)
	if n.Expiry() != 77*time.Microsecond {
		t.Errorf("Expiry = %v", n.Expiry())
	}
}

func TestCSRangeOrdering(t *testing.T) {
	if cs, dec := freeRange(DefaultCSThresholdDBm), freeRange(DefaultDecodeMinDBm); cs <= dec {
		t.Errorf("CS range %v should exceed decode range %v", cs, dec)
	}
}

// overlapCount returns the number of transmissions that have overlapped
// the active transmission id so far, or 0 once it has ended.
func overlapCount(a *Air, id int) int {
	if at := a.lookup(id); at != nil {
		return len(at.overlap)
	}
	return 0
}
