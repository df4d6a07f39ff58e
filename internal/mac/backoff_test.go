package mac

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestBackoffGrantsAfterAIFSPlusSlots(t *testing.T) {
	e := NewEngine()
	params := DefaultEDCA(ACBestEffort)
	var grantedAt time.Duration
	b := NewBackoff(e, params, rng.New(1), func() { grantedAt = e.Now() })
	b.Start()
	e.Run(time.Second)
	if grantedAt == 0 {
		t.Fatal("never granted")
	}
	min := params.AIFS()
	max := params.AIFS() + time.Duration(params.CWMin)*SlotTime
	if grantedAt < min || grantedAt > max {
		t.Errorf("granted at %v, want in [%v, %v]", grantedAt, min, max)
	}
	if b.Running() {
		t.Error("should not be running after grant")
	}
}

func TestBackoffFreezesWhileBusy(t *testing.T) {
	e := NewEngine()
	params := DefaultEDCA(ACBestEffort)
	granted := false
	b := NewBackoff(e, params, rng.New(2), func() { granted = true })
	b.Start()
	b.MediumBusy()
	e.Run(10 * time.Millisecond)
	if granted {
		t.Fatal("granted while medium busy")
	}
	b.MediumIdle()
	e.Run(20 * time.Millisecond)
	if !granted {
		t.Error("should grant after medium went idle")
	}
}

func TestBackoffBusyIdleChurn(t *testing.T) {
	e := NewEngine()
	params := DefaultEDCA(ACBestEffort)
	granted := 0
	b := NewBackoff(e, params, rng.New(3), func() { granted++ })
	b.Start()
	// Rapid busy/idle cycling shorter than AIFS: never grants.
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 20 * time.Microsecond
		e.At(at, func() { b.MediumBusy() })
		e.At(at+10*time.Microsecond, func() { b.MediumIdle() })
	}
	e.Run(20 * 20 * time.Microsecond)
	if granted != 0 {
		t.Errorf("granted %d times during churn", granted)
	}
	// Then a long idle period grants exactly once.
	e.Run(time.Second)
	if granted != 1 {
		t.Errorf("granted %d times, want 1", granted)
	}
}

func TestBackoffCollisionDoublesCW(t *testing.T) {
	e := NewEngine()
	params := DefaultEDCA(ACBestEffort)
	b := NewBackoff(e, params, rng.New(4), func() {})
	if b.CW() != params.CWMin {
		t.Fatalf("initial CW = %d", b.CW())
	}
	b.Collision()
	if b.CW() != params.CWMin*2+1 {
		t.Errorf("CW after collision = %d", b.CW())
	}
	for i := 0; i < 20; i++ {
		b.Collision()
	}
	if b.CW() != params.CWMax {
		t.Errorf("CW should cap at %d, got %d", params.CWMax, b.CW())
	}
	b.Success()
	if b.CW() != params.CWMin {
		t.Errorf("CW after success = %d", b.CW())
	}
}

func TestBackoffStop(t *testing.T) {
	e := NewEngine()
	granted := false
	b := NewBackoff(e, DefaultEDCA(ACVoice), rng.New(5), func() { granted = true })
	b.Start()
	b.Stop()
	e.Run(time.Second)
	if granted {
		t.Error("stopped backoff granted")
	}
}

func TestBackoffStartIdempotentWhileRunning(t *testing.T) {
	e := NewEngine()
	granted := 0
	b := NewBackoff(e, DefaultEDCA(ACVoice), rng.New(6), func() { granted++ })
	b.Start()
	b.Start() // no-op
	e.Run(time.Second)
	if granted != 1 {
		t.Errorf("granted %d times", granted)
	}
}

func TestBackoffDeterministic(t *testing.T) {
	run := func(seed int64) time.Duration {
		e := NewEngine()
		var at time.Duration
		b := NewBackoff(e, DefaultEDCA(ACBestEffort), rng.New(seed), func() { at = e.Now() })
		b.Start()
		e.Run(time.Second)
		return at
	}
	if run(7) != run(7) {
		t.Error("same seed should grant at the same time")
	}
}

func TestBackoffContentionBetweenTwoStations(t *testing.T) {
	// Two contenders with different seeds: one wins earlier; after the
	// winner transmits (making the medium busy for the loser), the loser
	// grants later. This exercises the full freeze/resume path.
	e := NewEngine()
	var aAt, bAt time.Duration
	a := NewBackoff(e, DefaultEDCA(ACBestEffort), rng.New(1), func() { aAt = e.Now() })
	var bb *Backoff
	bb = NewBackoff(e, DefaultEDCA(ACBestEffort), rng.New(9), func() { bAt = e.Now() })
	a.Start()
	bb.Start()
	e.Run(time.Second)
	if aAt == bAt {
		t.Skip("seeds drew the same backoff; pick different seeds")
	}
	if aAt == 0 || bAt == 0 {
		t.Fatal("one contender never granted")
	}
}

// tickBackoff is the per-slot countdown that Backoff replaced, kept as
// its oracle: one engine event per idle slot, each tick queueing the
// next one SlotTime ahead, the last one granting.
type tickBackoff struct {
	Params EDCAParams

	eng     *Engine
	src     *rng.Source
	granted func()
	tickFn  func()

	cw        int
	slotsLeft int
	timer     Timer
	running   bool
	busy      bool
}

func newTickBackoff(eng *Engine, params EDCAParams, src *rng.Source, granted func()) *tickBackoff {
	b := &tickBackoff{Params: params, eng: eng, src: src, granted: granted, cw: params.CWMin}
	b.tickFn = b.tick
	return b
}

func (b *tickBackoff) Start() {
	if b.running {
		return
	}
	b.running = true
	b.slotsLeft = b.src.Intn(b.cw + 1)
	b.resume()
}

func (b *tickBackoff) Running() bool { return b.running }

func (b *tickBackoff) MediumBusy() {
	b.busy = true
	b.timer.Cancel()
	b.timer = Timer{}
}

func (b *tickBackoff) MediumIdle() {
	b.busy = false
	if b.running {
		b.resume()
	}
}

func (b *tickBackoff) resume() {
	if b.busy {
		return
	}
	b.timer.Cancel()
	b.timer = b.eng.Schedule(b.Params.AIFS(), b.tickFn)
}

func (b *tickBackoff) tick() {
	if b.busy || !b.running {
		return
	}
	if b.slotsLeft <= 0 {
		b.running = false
		b.timer = Timer{}
		b.granted()
		return
	}
	b.slotsLeft--
	b.timer = b.eng.Schedule(SlotTime, b.tickFn)
}

func (b *tickBackoff) Collision() {
	b.cw = b.cw*2 + 1
	if b.cw > b.Params.CWMax {
		b.cw = b.Params.CWMax
	}
	b.running = false
	b.Start()
}

func (b *tickBackoff) Success() { b.cw = b.Params.CWMin }

func (b *tickBackoff) Stop() {
	b.running = false
	b.timer.Cancel()
	b.timer = Timer{}
}

// contender is what Backoff and its oracle have in common.
type contender interface {
	Start()
	Stop()
	MediumBusy()
	MediumIdle()
	Collision()
	Success()
	Running() bool
}

func slotsLeftOf(c contender) int {
	switch c := c.(type) {
	case *Backoff:
		return c.slotsLeft
	case *tickBackoff:
		return c.slotsLeft
	}
	panic("unknown contender")
}

// observation is one line of a contention script's log.
type observation struct {
	kind string // "fire", "grant" or "left"
	at   time.Duration
	who  int // action id for "fire", contender otherwise
	val  int // slots left for "left"
}

// contentionScript drives n contenders through a seeded random script
// on one engine and logs what it sees: every action as it fires, every
// grant, and the slots left after every busy or idle edge. The script
// draws its random numbers in firing order, so two engines log the same
// lines only if they fire the same events in the same order.
//
// Actions sit on a microsecond grid. Their offsets favour multiples of
// SlotTime and AIFS, so they often land on a countdown's slot boundary,
// and they relay through chains of actions queued exactly one SlotTime
// apart. A grant starts such a chain too, as a station's grant queues
// its TXOP one wait window later, and a chain's last hop often starts a
// transmission every contender hears, as the TXOP's first frame does.
// Between Run calls the script acts from outside the engine.
func contentionScript(seed uint64, oracle bool) []observation {
	r := rand.New(rand.NewPCG(seed, 29))
	e := NewEngine()
	var log []observation
	note := func(kind string, who, val int) {
		log = append(log, observation{kind, e.Now(), who, val})
	}
	n := 1 + r.IntN(6)
	cs := make([]contender, n)
	edge := func(i int, busy bool) {
		c := cs[i]
		if busy {
			c.MediumBusy()
		} else {
			c.MediumIdle()
		}
		if c.Running() {
			note("left", i, slotsLeftOf(c))
		}
	}
	// transmit makes contenders lo..hi-1 busy for a random airtime.
	transmit := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			edge(j, true)
		}
		e.Schedule(time.Duration(20+r.IntN(180))*time.Microsecond, func() {
			note("end", lo, hi)
			for j := lo; j < hi; j++ {
				edge(j, false)
			}
		})
	}
	offsets := []time.Duration{0, 9, 18, 27, 34, 43, 52, 61, 79, 97}
	offset := func() time.Duration {
		if r.IntN(2) == 0 {
			return time.Duration(r.IntN(150)) * time.Microsecond
		}
		return offsets[r.IntN(len(offsets))] * time.Microsecond
	}
	var act func()
	// queue queues an action d ahead, relayed through hops more actions
	// one SlotTime apart.
	queued := 0
	var queue func(d time.Duration, hops int)
	queue = func(d time.Duration, hops int) {
		if queued >= 300 {
			return
		}
		id := queued
		queued++
		e.Schedule(d, func() {
			note("fire", id, 0)
			switch {
			case hops > 0:
				queue(SlotTime, hops-1)
			case d == SlotTime && r.IntN(2) == 0:
				transmit(0, n)
			}
			act()
		})
	}
	act = func() {
		i := r.IntN(n)
		switch x := r.IntN(20); {
		case x < 3:
			edge(i, true)
		case x < 6:
			edge(i, false) // also a redundant idle: AIFS restarts
		case x < 8:
			transmit(i, i+1)
		case x == 8:
			cs[i].Stop()
		case x == 9:
			cs[i].Start()
		case x == 10:
			cs[i].Collision()
		case x == 11:
			cs[i].Success()
		}
		for k := r.IntN(3); k > 0; k-- {
			queue(offset(), r.IntN(3))
		}
	}
	acs := []AccessCategory{ACVoice, ACVideo, ACBestEffort, ACBackground}
	shared := acs[r.IntN(len(acs))]
	for i := range cs {
		ac := shared
		if r.IntN(3) == 0 {
			ac = acs[r.IntN(len(acs))]
		}
		src := rng.New(int64(seed)).SplitN("contender", i)
		granted := func() {
			note("grant", i, 0)
			switch r.IntN(3) {
			case 0:
				queue(SlotTime, r.IntN(2))
			case 1:
				cs[i].Start()
			}
		}
		if oracle {
			cs[i] = newTickBackoff(e, DefaultEDCA(ac), src, granted)
		} else {
			cs[i] = NewBackoff(e, DefaultEDCA(ac), src, granted)
		}
	}
	for i := range cs {
		cs[i].Start()
	}
	queue(offset(), 0)
	var until time.Duration
	for step := 0; step < 60; step++ {
		until += time.Duration(r.IntN(90)) * time.Microsecond
		e.Run(until)
		note("run", 0, 0)
		if r.IntN(3) == 0 {
			act()
		}
		if i := r.IntN(n); r.IntN(4) == 0 && !cs[i].Running() {
			cs[i].Start()
		}
	}
	e.Run(until + time.Second)
	return log
}

// TestBackoffMatchesTickOracle holds the one-event countdown to the
// per-slot one: over random scripts of contenders, busy/idle edges,
// redundant idles, stops, restarts, collisions and events queued one
// and two slots ahead, both must grant the same contenders at the same
// instants in the same order and leave the same slots after every edge.
func TestBackoffMatchesTickOracle(t *testing.T) {
	grants, ties := 0, 0
	for seed := uint64(1); seed <= 1000; seed++ {
		got, want := contentionScript(seed, false), contentionScript(seed, true)
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				lo := max(i-4, 0)
				t.Fatalf("seed %d: line %d is %+v, oracle %+v\nlines before: %+v", seed, i, got[i], want[i], want[lo:i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d lines, oracle %d", seed, len(got), len(want))
		}
		for i, o := range want {
			if o.kind == "grant" {
				grants++
				if i > 0 && want[i-1].at == o.at {
					ties++
				}
			}
		}
	}
	if grants < 10000 || ties < 300 {
		t.Errorf("scripts granted %d times, %d of them at the instant of the line before; want at least 10000 and 300", grants, ties)
	}
}

// TestBackoffZeroAlloc pins the countdown's steady state: once the
// engine's tables have grown and the contender's random stream is past
// its inline draws, a freeze, a resume, a collision and a grant
// allocate nothing.
func TestBackoffZeroAlloc(t *testing.T) {
	e := NewEngine()
	grants := 0
	b := NewBackoff(e, DefaultEDCA(ACVoice), rng.New(8), func() { grants++ })
	cycle := func() {
		b.Start()
		e.Run(e.Now() + DefaultEDCA(ACVoice).AIFS() + SlotTime)
		b.MediumBusy()
		b.MediumIdle()
		b.Collision()
		e.Run(e.Now() + time.Millisecond)
		b.Success()
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("freeze/resume/collision/grant cycle allocates %v, want 0", allocs)
	}
	if grants < 20+201 {
		t.Errorf("granted %d times in %d cycles, want at least one per cycle", grants, 20+201)
	}
}
