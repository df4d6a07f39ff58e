package mac

import (
	"math"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/stats"
)

func newTestAir() (*Engine, *Air) {
	e := NewEngine()
	return e, NewAir(e, &channel.Links{Budget: channel.Budget{P: channel.Default()}})
}

// powerAt is the medium's aggregate power at pos, excluding transmission
// exclude (-1 for none).
func powerAt(a *Air, pos geom.Point, exclude int) float64 {
	return a.powerAt(a.links.Site(pos), exclude)
}

// busy reports whether the medium is physically sensed busy at pos.
func busy(a *Air, pos geom.Point) bool { return powerAt(a, pos, -1) >= a.csThreshold }

// freeRange is the free-space distance d at which a single antenna at
// full per-antenna power falls to thresholdDBm:
// TxPower − RefLoss − 10·n·log10(d) = threshold.
func freeRange(thresholdDBm float64) float64 {
	p := channel.Default()
	return math.Pow(10, (p.TxPowerDBm-p.RefLossDB-thresholdDBm)/(10*p.PathLossExp))
}

func TestBusyReflectsActiveTx(t *testing.T) {
	e, a := newTestAir()
	pos := geom.Pt(5, 0)
	if busy(a, pos) {
		t.Fatal("medium should start idle")
	}
	_, err := a.StartTx(Tx{
		Antennas: sites(a, geom.Pt(0, 0)),
		Airtime:  100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !busy(a, pos) {
		t.Error("medium near an active tx should be busy")
	}
	far := geom.Pt(500, 0)
	if busy(a, far) {
		t.Error("medium 500 m away should be idle")
	}
	e.Run(time.Second)
	if busy(a, pos) {
		t.Error("medium should be idle after tx ends")
	}
	if len(a.active) != 0 {
		t.Error("no active tx expected")
	}
}

func TestStartTxValidation(t *testing.T) {
	_, a := newTestAir()
	if _, err := a.StartTx(Tx{Airtime: time.Microsecond}); err == nil {
		t.Error("no antennas should error")
	}
	if _, err := a.StartTx(Tx{Antennas: sites(a, geom.Point{}), Airtime: 0}); err == nil {
		t.Error("zero airtime should error")
	}
	if _, err := a.StartTx(Tx{Antennas: []int{a.links.Site(geom.Pt(1, 1)) + 1}, Airtime: time.Microsecond}); err == nil {
		t.Error("an antenna site never interned should error")
	}
}

func TestDeliveryToListener(t *testing.T) {
	e, a := newTestAir()
	var got []Rx
	a.Listen(Listener{Pos: geom.Pt(10, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{
		Antennas: sites(a, geom.Pt(0, 0)),
		Airtime:  50 * time.Microsecond,
		NAV:      300*time.Microsecond + 999*time.Nanosecond,
	})
	e.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("got %d deliveries", len(got))
	}
	rx := got[0]
	if !rx.Decodable {
		t.Errorf("frame at 10 m should decode: power %v dBm, sinr %v dB", rx.PowerDBm(), rx.SINRdB())
	}
	if rx.Start != 0 || rx.End != 50*time.Microsecond {
		t.Errorf("timing %v–%v", rx.Start, rx.End)
	}
	if rx.NAV != 300*time.Microsecond {
		t.Errorf("delivered NAV %v, want the Duration field's 300µs", rx.NAV)
	}
}

func TestFarListenerCannotDecode(t *testing.T) {
	e, a := newTestAir()
	var got []Rx
	a.Listen(Listener{Pos: geom.Pt(100, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{
		Antennas: sites(a, geom.Pt(0, 0)),
		Airtime:  50 * time.Microsecond,
	})
	e.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("got %d deliveries", len(got))
	}
	if got[0].Decodable {
		t.Errorf("frame at 100 m decodable (power %v dBm)", got[0].PowerDBm())
	}
}

func TestCollisionDestroysBothFrames(t *testing.T) {
	e, a := newTestAir()
	var got []Rx
	// Listener midway between two simultaneous transmitters.
	a.Listen(Listener{Pos: geom.Pt(10, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 50 * time.Microsecond})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(20, 0)), Airtime: 50 * time.Microsecond})
	e.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d deliveries", len(got))
	}
	for i, rx := range got {
		if rx.Decodable {
			t.Errorf("frame %d should collide (sinr %v dB)", i, rx.SINRdB())
		}
	}
}

func TestCaptureEffect(t *testing.T) {
	e, a := newTestAir()
	var got []Rx
	// Listener right next to tx A; tx B far away → A captures.
	a.Listen(Listener{Pos: geom.Pt(2, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 50 * time.Microsecond})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(40, 0)), Airtime: 50 * time.Microsecond})
	e.Run(time.Second)
	var nearDecodable, farDecodable bool
	for _, rx := range got {
		if rx.From == 0 {
			nearDecodable = rx.Decodable
		} else {
			farDecodable = rx.Decodable
		}
	}
	if !nearDecodable {
		t.Error("near frame should capture")
	}
	if farDecodable {
		t.Error("far frame should be jammed at this listener")
	}
}

func TestOverlapIsConservative(t *testing.T) {
	// A frame that overlaps only briefly with another still counts the
	// interferer for its whole airtime (worst-case rule).
	e, a := newTestAir()
	var got []Rx
	a.Listen(Listener{Pos: geom.Pt(10, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 100 * time.Microsecond})
	e.Schedule(90*time.Microsecond, func() {
		a.StartTx(Tx{Antennas: sites(a, geom.Pt(20, 0)), Airtime: 100 * time.Microsecond})
	})
	e.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d deliveries", len(got))
	}
	if got[0].Decodable {
		t.Error("first frame overlapped and should be counted as collided")
	}
}

func TestSequentialTxDoNotInterfere(t *testing.T) {
	e, a := newTestAir()
	var got []Rx
	a.Listen(Listener{Pos: geom.Pt(10, 0), Fn: func(rx Rx) { got = append(got, rx) }})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 50 * time.Microsecond})
	e.Schedule(60*time.Microsecond, func() {
		a.StartTx(Tx{Antennas: sites(a, geom.Pt(20, 0)), Airtime: 50 * time.Microsecond})
	})
	e.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d deliveries", len(got))
	}
	for i, rx := range got {
		if !rx.Decodable {
			t.Errorf("frame %d should decode cleanly (sinr %v)", i, rx.SINRdB())
		}
	}
}

func TestMultiAntennaTxPower(t *testing.T) {
	_, a := newTestAir()
	ants := sites(a, geom.Pt(0, 0), geom.Pt(10, 10))
	pos := geom.Pt(1, 0)
	id, err := a.StartTx(Tx{Antennas: ants, Airtime: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	best := a.TxSignalAt(id, a.links.Site(pos))
	sum := powerAt(a, pos, -1)
	if best >= sum {
		t.Error("sum power should exceed best-antenna power")
	}
	p := channel.Default()
	wantBest := p.PowerAtPoint(geom.Pt(0, 0), pos, p.TxPowerDBm)
	if math.Abs(best-wantBest) > 1e-15 {
		t.Errorf("best = %v, want %v", best, wantBest)
	}
}

func TestDecodeRangeConsistent(t *testing.T) {
	e, a := newTestAir()
	r := freeRange(DefaultDecodeMinDBm)
	if r < 10 || r > 40 {
		t.Errorf("decode range %v m outside the testbed-like band", r)
	}
	// A frame from just inside the range decodes; outside does not.
	var in, out Rx
	a.Listen(Listener{Pos: geom.Pt(r*0.9, 0), Fn: func(rx Rx) { in = rx }})
	a.Listen(Listener{Pos: geom.Pt(r*1.2, 0), Fn: func(rx Rx) { out = rx }})
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: 10 * time.Microsecond})
	e.Run(time.Second)
	if !in.Decodable {
		t.Errorf("inside range should decode (power %v dBm, thr %v)", in.PowerDBm(), DefaultDecodeMinDBm)
	}
	if out.Decodable {
		t.Errorf("outside range should not decode (power %v dBm)", out.PowerDBm())
	}
}

func TestPowerAtExclusion(t *testing.T) {
	_, a := newTestAir()
	id, _ := a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: time.Second})
	pos := geom.Pt(5, 0)
	if p := powerAt(a, pos, id); p != 0 {
		t.Errorf("excluding the only tx should give 0, got %v", p)
	}
	if p := powerAt(a, pos, -1); p <= 0 {
		t.Error("including the tx should give positive power")
	}
}

func TestCSThresholdUnits(t *testing.T) {
	// Internal consistency: Busy flips exactly at the CS-range distance,
	// which exceeds the decode range (energy detect is more sensitive).
	_, a := newTestAir()
	a.StartTx(Tx{Antennas: sites(a, geom.Pt(0, 0)), Airtime: time.Second})
	r := freeRange(DefaultCSThresholdDBm)
	if r <= freeRange(DefaultDecodeMinDBm) {
		t.Error("CS range should exceed decode range")
	}
	if !busy(a, geom.Pt(r*0.95, 0)) {
		t.Error("just inside CS range should be busy")
	}
	if busy(a, geom.Pt(r*1.3, 0)) {
		t.Error("well outside CS range should be idle")
	}
}

// sites interns positions in a's link table.
func sites(a *Air, ps ...geom.Point) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = a.links.Site(p)
	}
	return out
}

// TestCapturesMatchesDB checks the linear capture test against the dB
// comparison it replaces, at and around the threshold (down to adjacent
// floats) and far from it.
func TestCapturesMatchesDB(t *testing.T) {
	_, a := newTestAir()
	c := DefaultCaptureSINRdB
	thr := stats.Linear(c)
	if a.CaptureSINR() != thr {
		t.Errorf("CaptureSINR = %v, want %v", a.CaptureSINR(), thr)
	}
	cands := []float64{0, math.Inf(1), math.NaN(), thr, math.Nextafter(thr, 0), math.Nextafter(thr, math.Inf(1))}
	for k := -30; k <= 30; k++ {
		cands = append(cands, thr*(1+float64(k)*1e-10), thr*math.Pow(10, float64(k)/10))
	}
	for _, s := range cands {
		if got, want := a.captures(s), stats.DB(s) >= c; got != want {
			t.Errorf("captures(%v) = %v, dB comparison %v", s, got, want)
		}
	}
}
