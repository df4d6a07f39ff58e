// Package mac provides the 802.11 medium-access substrate the MIDAS and
// CAS access points are built on: a deterministic discrete-event engine,
// a radio medium with per-position physical carrier sensing and frame
// delivery, per-antenna NAV (virtual carrier sense) tables, and EDCA
// backoff state machines (§3.2.2–3.2.3, §3.3 of the paper).
package mac

import "time"

// Engine is a deterministic discrete-event simulator. Events scheduled at
// the same instant fire in scheduling order.
//
// Scheduled functions live in a slot table recycled through a free list,
// and the queue is a value-typed heap of (time, sequence, slot) keys, so
// once the table and the heap have grown to a run's high-water mark,
// scheduling and firing an event allocate nothing.
type Engine struct {
	now   time.Duration
	pq    eventQueue
	seq   uint64
	slots []eventSlot
	free  []int32 // indices of unused slots
}

// eventSlot holds one queued event's function. gen counts the slot's
// uses, so a Timer for an event that has left the queue no longer
// matches it.
type eventSlot struct {
	fn        func()
	gen       uint64
	cancelled bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay (relative to the current time). A negative
// delay is treated as zero. It returns a handle that can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t (clamped to now).
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, eventSlot{})
	}
	s := &e.slots[slot]
	s.fn, s.cancelled = fn, false
	e.pq.push(event{at: t, seq: e.seq, slot: slot})
	e.seq++
	return Timer{eng: e, slot: slot, gen: s.gen}
}

// Run processes events until the queue is empty or the clock would pass
// `until`. It returns the number of events executed.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for len(e.pq) > 0 && e.pq[0].at <= until {
		ev := e.pq.pop()
		s := &e.slots[ev.slot]
		fn, cancelled := s.fn, s.cancelled
		s.fn = nil
		s.gen++
		e.free = append(e.free, ev.slot)
		if cancelled {
			continue
		}
		e.now = ev.at
		fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.pq) }

// Timer is a handle to a scheduled event. The zero Timer refers to no
// event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Cancel prevents the event from firing. Safe to call multiple times, on
// the zero Timer, and after the event has fired (then it does nothing,
// even if the engine has reused the event's slot).
func (t *Timer) Cancel() {
	if s := t.queued(); s != nil {
		s.cancelled = true
	}
}

// Cancelled reports whether Cancel was called while the event is still
// queued.
func (t *Timer) Cancelled() bool {
	s := t.queued()
	return s != nil && s.cancelled
}

// queued returns the slot of the handle's event, or nil once the event
// has left the queue.
func (t *Timer) queued() *eventSlot {
	if t == nil || t.eng == nil {
		return nil
	}
	s := &t.eng.slots[t.slot]
	if s.gen != t.gen {
		return nil
	}
	return s
}

// event is a queue key: events fire in (at, seq) order, a strict total
// order since seq is unique.
type event struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < n; k++ {
				if h[k].before(h[m]) {
					m = k
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}
