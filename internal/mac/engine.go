// Package mac provides the 802.11 medium-access substrate the MIDAS and
// CAS access points are built on: a deterministic discrete-event engine,
// a radio medium with per-position physical carrier sensing and frame
// delivery, per-antenna NAV (virtual carrier sense) tables, and EDCA
// backoff state machines (§3.2.2–3.2.3, §3.3 of the paper). The medium
// reads its link powers from the network's channel.Links table.
package mac

import (
	"math"
	"time"
)

// Engine is a deterministic discrete-event simulator. Events scheduled at
// the same instant fire in scheduling order.
//
// Scheduled functions live in a slot table recycled through a free list,
// and the queue is a value-typed heap of (time, sequence, slot) keys, so
// once the table and the heap have grown to a run's high-water mark,
// scheduling and firing an event allocate nothing. Each slot records its
// event's heap index, so a cancelled event leaves the heap at once
// instead of waiting there for its instant.
//
// A backoff countdown (Backoff) is one queued event, its grant, which
// stands for a chain of per-slot ticks: the first at the end of AIFS,
// each later one queued by its predecessor one SlotTime ahead, and the
// last one granting. The grant fires exactly where that last tick would
// have fired among the other events, and a freeze charges exactly the
// ticks that would have fired by then, so a run's output is the same as
// with one event per idle slot. Three rules place the absent ticks, each
// following from "same instant, scheduling order":
//
//   - A tick at index k ≥ 1 was queued when tick k−1 fired, one SlotTime
//     earlier. An event queued before that instant fires before the
//     tick, one queued after it fires after.
//   - Two chains' ticks at the same instant: the chain whose first
//     boundary is later fires first (its tick 0 was queued at its
//     resume, an AIFS earlier, before the other chain's tick one slot
//     earlier); equal first boundaries fire in resume order. This needs
//     AIFS > SlotTime, which holds for every AIFSN ≥ 0.
//   - An event queued exactly one SlotTime ahead was queued at the
//     instant of tick k−1, so the tie resolves between the event that
//     queued it and tick k−1. Each such event records its anchor, the
//     nearest ancestor that was not queued one slot ahead, and how many
//     one-slot steps lie between them.
type Engine struct {
	now   time.Duration
	pq    []event // 4-ary min-heap in firing order
	seq   uint64
	slots []eventSlot
	free  int32 // 1 + the first unused slot's index, 0 when none is
	cur   tie   // the firing event's tie data; afterAll outside Run
}

// eventSlot holds one queued event's function, tie data and heap index.
// gen counts the slot's uses, so a Timer for an event that has left the
// queue no longer matches it. An unused slot links to the next (free),
// so the free list needs no storage of its own.
type eventSlot struct {
	fn   func()
	gen  uint64
	tie  tie
	free int32
	pos  int32
}

// grantBit marks a countdown grant's sequence number, in the heap key
// and in tie data.
const grantBit = 1 << 63

// tie places an event among same-instant countdown ticks. For a grant,
// seq is its resume's sequence number (with grantBit) and t its first
// slot boundary. For any other event, seq and t are the sequence number
// and posting time of its anchor: the event itself, unless it was
// queued exactly one SlotTime ahead; then the anchor is that of the
// event that queued it (afterAll between Run calls), shift steps back.
type tie struct {
	seq   uint64
	t     time.Duration
	shift int64
}

// afterAll is the tie data of the moment between Run calls: everything
// at or before now has fired, backoff ticks included.
var afterAll = tie{seq: grantBit - 1, t: math.MaxInt64}

// beforeTick reports whether the event with tie data x, at instant at,
// fires before the tick that countdown g's chain has at at.
func (x tie) beforeTick(at time.Duration, g tie) bool {
	k := (at - g.t) / SlotTime // the tick's index in g's chain
	shift := time.Duration(x.shift)
	if k < shift {
		// Stepping back reaches the chain's tick 0 against an event
		// queued one slot ahead of it; tick 0 was queued an AIFS ahead,
		// so first.
		return false
	}
	if x.seq&grantBit != 0 {
		if x.t != g.t {
			return x.t > g.t
		}
		return x.seq < g.seq
	}
	if k == shift {
		return x.seq < g.seq&^grantBit
	}
	return x.t < at-(shift+1)*SlotTime
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{cur: afterAll} }

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
	x := tie{seq: e.seq, t: e.now}
	if t-e.now == SlotTime {
		x = e.cur
		x.shift++
	}
	return e.queue(event{at: t, seq: e.seq}, x, fn)
}

// countdown queues fn as the grant of a backoff countdown whose first
// slot boundary is at first and which has slots idle slots to count: it
// fires at first + slots·SlotTime, where the chain's last tick would.
func (e *Engine) countdown(first time.Duration, slots int, fn func()) Timer {
	at := first + time.Duration(slots)*SlotTime
	return e.queue(event{at: at, seq: e.seq | grantBit}, tie{seq: e.seq | grantBit, t: first}, fn)
}

// slotsElapsed returns how many slot boundaries of the pending countdown
// t its chain would have consumed by now: every boundary before now, and
// the one at now if its tick would have fired before the event firing
// now (between Run calls, every boundary at or before now).
func (e *Engine) slotsElapsed(t Timer) int {
	g := e.slots[t.slot].tie
	if e.now < g.t {
		return 0
	}
	d := e.now - g.t
	n := int(d / SlotTime)
	if d%SlotTime != 0 || !e.cur.beforeTick(e.now, g) {
		n++
	}
	return n
}

func (e *Engine) queue(ev event, x tie, fn func()) Timer {
	if e.free != 0 {
		ev.slot = e.free - 1
		e.free = e.slots[ev.slot].free
	} else {
		ev.slot = int32(len(e.slots))
		e.slots = append(e.slots, eventSlot{})
	}
	s := &e.slots[ev.slot]
	s.fn, s.tie = fn, x
	e.push(ev)
	e.seq++
	return Timer{eng: e, slot: ev.slot, gen: s.gen}
}

// Run processes events until the queue is empty or the clock would pass
// `until`. It returns the number of events executed; a countdown counts
// once, for its grant.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for len(e.pq) > 0 && e.pq[0].at <= until {
		ev := e.remove(0)
		fn := e.slots[ev.slot].fn
		e.now, e.cur = ev.at, e.slots[ev.slot].tie
		e.release(ev.slot)
		fn()
		n++
	}
	e.cur = afterAll
	if e.now < until {
		e.now = until
	}
	return n
}

// release returns the slot of an event that left the queue to the free
// list.
func (e *Engine) release(slot int32) {
	s := &e.slots[slot]
	s.fn = nil
	s.gen++
	s.free, e.free = e.free, slot+1
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Timer is a handle to a scheduled event. The zero Timer refers to no
// event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Cancel takes the event out of the queue. Safe to call multiple times,
// on the zero Timer, and after the event has fired (then it does
// nothing, even if the engine has reused the event's slot).
func (t *Timer) Cancel() {
	if t == nil || t.eng == nil {
		return
	}
	e := t.eng
	if s := &e.slots[t.slot]; s.gen == t.gen {
		e.remove(int(s.pos))
		e.release(t.slot)
	}
}

// event is a queue key. Events fire in (at, seq) order, a strict total
// order since seq is unique, except that a grant (seq with grantBit)
// takes its place among same-instant events by its tie data.
type event struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (e *Engine) before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if (a.seq|b.seq)&grantBit == 0 {
		return a.seq < b.seq
	}
	return e.tieBefore(a, b)
}

// tieBefore orders two same-instant events of which one or both are
// grants.
func (e *Engine) tieBefore(a, b event) bool {
	if b.seq&grantBit != 0 {
		return e.slots[a.slot].tie.beforeTick(a.at, e.slots[b.slot].tie)
	}
	return !e.slots[b.slot].tie.beforeTick(a.at, e.slots[a.slot].tie)
}

func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	e.up(len(e.pq)-1, ev)
}

// remove takes the event at heap index i out of the heap and returns it.
func (e *Engine) remove(i int) event {
	h := e.pq
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	e.pq = h[:n]
	if i < n {
		if i > 0 && e.before(last, h[(i-1)/4]) {
			e.up(i, last)
		} else {
			e.down(i, last)
		}
	}
	return ev
}

// up stores ev at index i or above it, moving down the ancestors it
// fires before.
func (e *Engine) up(i int, ev event) {
	h := e.pq
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(ev, h[p]) {
			break
		}
		e.set(i, h[p])
		i = p
	}
	e.set(i, ev)
}

// down stores ev at index i or below it, moving up the descendants that
// fire before it.
func (e *Engine) down(i int, ev event) {
	h := e.pq
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if e.before(h[k], h[m]) {
				m = k
			}
		}
		if !e.before(h[m], ev) {
			break
		}
		e.set(i, h[m])
		i = m
	}
	e.set(i, ev)
}

// set stores ev at heap index i and records the index in its slot.
func (e *Engine) set(i int, ev event) {
	e.pq[i] = ev
	e.slots[ev.slot].pos = int32(i)
}
