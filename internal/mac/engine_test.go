package mac

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	n := e.Run(time.Second)
	if n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order = %v", order)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(42*time.Microsecond, func() { at = e.Now() })
	e.Run(time.Second)
	if at != 42*time.Microsecond {
		t.Errorf("event saw clock %v", at)
	}
	if e.Now() != time.Second {
		t.Errorf("Run should leave clock at `until`, got %v", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100*time.Microsecond, func() { fired = true })
	e.Run(50 * time.Microsecond)
	if fired {
		t.Error("event beyond `until` must not fire")
	}
	e.Run(200 * time.Microsecond)
	if !fired {
		t.Error("event should fire on the second Run")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var log []time.Duration
	e.Schedule(10*time.Microsecond, func() {
		log = append(log, e.Now())
		e.Schedule(5*time.Microsecond, func() {
			log = append(log, e.Now())
		})
	})
	e.Run(time.Second)
	if len(log) != 2 || log[0] != 10*time.Microsecond || log[1] != 15*time.Microsecond {
		t.Errorf("log = %v", log)
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Microsecond, func() { fired = true })
	e.Run(time.Microsecond)
	if !fired {
		t.Error("negative delay should fire immediately")
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(10*time.Microsecond, func() { fired = true })
	tm.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling the only event, want 0", e.Pending())
	}
	e.Run(time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	tm.Cancel() // idempotent
	var nilTimer *Timer
	nilTimer.Cancel() // safe on nil
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Microsecond, func() {})
	e.Schedule(time.Microsecond, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run(time.Second)
	if e.Pending() != 0 {
		t.Errorf("Pending after run = %d", e.Pending())
	}
}

func TestEngineManyEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 10000 {
			e.Schedule(time.Microsecond, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run(time.Second)
	if count != 10000 {
		t.Errorf("count = %d", count)
	}
}

// TestEngineMatchesSortOracle drives the engine with seeded random
// Schedule/At/Cancel sequences, including same-instant ties, times in
// the past, events scheduled from inside events and cancels of events
// that already fired (whose slots the engine has since reused). The
// oracle is the definition: events fire in (time, scheduling order),
// a cancelled event never fires and leaves the queue at once, a cancel
// after firing changes nothing, Run counts what fired, and Pending
// counts what is still queued.
func TestEngineMatchesSortOracle(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		e := NewEngine()
		type rec struct {
			at               time.Duration
			timer            Timer
			fired, cancelled bool
		}
		var recs []*rec
		var fired []int
		cancelOne := func() {
			if len(recs) == 0 {
				return
			}
			x := recs[r.IntN(len(recs))]
			x.timer.Cancel()
			if !x.fired {
				x.cancelled = true
			}
			live := 0
			for _, y := range recs {
				if !y.fired && !y.cancelled {
					live++
				}
			}
			if e.Pending() != live {
				t.Fatalf("seed %d: Pending = %d after Cancel, oracle %d", seed, e.Pending(), live)
			}
		}
		var schedule func()
		schedule = func() {
			if len(recs) >= 2000 {
				return
			}
			seq := len(recs)
			x := &rec{}
			recs = append(recs, x)
			fn := func() {
				if x.fired || x.cancelled {
					t.Fatalf("seed %d: event %d fired twice or after cancel", seed, seq)
				}
				if e.Now() != x.at {
					t.Fatalf("seed %d: event %d fired at %v, want %v", seed, seq, e.Now(), x.at)
				}
				x.fired = true
				fired = append(fired, seq)
				for k := r.IntN(3); k > 0; k-- {
					schedule()
				}
				if r.IntN(3) == 0 {
					cancelOne()
				}
			}
			now := e.Now()
			d := time.Duration(r.IntN(5)-1) * time.Microsecond
			if r.IntN(2) == 0 {
				x.at = now + max(d, 0)
				x.timer = e.Schedule(d, fn)
			} else {
				x.at = max(now+d, now)
				x.timer = e.At(now+d, fn)
			}
		}
		for i := 0; i < 20; i++ {
			schedule()
		}
		for i := 0; i < 5; i++ {
			cancelOne()
		}
		var until time.Duration
		counted := map[int]bool{}
		for step := 0; step < 40 && e.Pending() > 0; step++ {
			until += time.Duration(r.IntN(3)) * time.Microsecond
			n := e.Run(until)
			want, pending := 0, 0
			for i, x := range recs {
				switch {
				case x.at > until:
					if x.fired {
						t.Fatalf("seed %d: event %d at %v fired before Run(%v) reached it", seed, i, x.at, until)
					}
					if !x.cancelled {
						pending++
					}
				case x.cancelled:
				case !x.fired:
					t.Fatalf("seed %d: event %d at %v did not fire by %v", seed, i, x.at, until)
				case !counted[i]:
					counted[i] = true
					want++
				}
			}
			if n != want {
				t.Fatalf("seed %d: Run(%v) = %d, oracle %d", seed, until, n, want)
			}
			if e.Pending() != pending {
				t.Fatalf("seed %d: Pending = %d after Run(%v), oracle %d", seed, e.Pending(), until, pending)
			}
		}
		order := slices.Clone(fired)
		slices.SortFunc(order, func(i, j int) int {
			if c := cmp.Compare(recs[i].at, recs[j].at); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
		if !slices.Equal(fired, order) {
			t.Fatalf("seed %d: fire order %v, want (at, seq) order %v", seed, fired, order)
		}
	}
}

func TestTimerCancelAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(time.Microsecond, func() {})
	e.Run(time.Second)
	fired := false
	second := e.Schedule(time.Microsecond, func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("second event took slot %d, want the freed slot %d", second.slot, first.slot)
	}
	first.Cancel() // stale handle: must not touch the reused slot
	if e.Pending() != 1 {
		t.Error("a stale handle's Cancel reached the slot's new event")
	}
	e.Run(2 * time.Second)
	if !fired {
		t.Error("event in a reused slot was cancelled through a stale handle")
	}
	var zero Timer
	zero.Cancel() // the zero Timer refers to no event
}

// TestEngineZeroAlloc pins the steady state: once the slot table and the
// heap have grown, scheduling and firing a pre-bound func allocates
// nothing.
func TestEngineZeroAlloc(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	step := func() {
		for i := 0; i < 8; i++ {
			e.Schedule(time.Duration(i%3)*time.Microsecond, fn)
		}
		e.Run(e.Now() + 2*time.Microsecond)
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("Schedule+Run allocates %v per step of 8 events, want 0", allocs)
	}
	if fired != 8*202 {
		t.Errorf("fired %d events, want %d", fired, 8*202)
	}
}
