package mac

import (
	"repro/internal/rng"
)

// Backoff implements the 802.11 EDCA contention state machine for one
// contender (an AP's access category, or one MIDAS antenna): AIFS idle
// wait, slotted random backoff that freezes while the medium is busy, and
// binary-exponential contention-window growth on collision.
//
// The owner drives it with medium busy/idle transitions; Backoff calls
// `granted` when it wins a transmit opportunity.
//
// A countdown is one engine event, the grant, queued at resume for the
// instant its last idle slot ends. It fires where the last tick of a
// one-event-per-slot countdown would have fired, and a freeze charges
// the slots that countdown would have consumed by then (see Engine), so
// the contention outcome is the per-slot machine's, at a fraction of
// the events.
type Backoff struct {
	Params EDCAParams

	eng     *Engine
	src     *rng.Source
	granted func()
	grantFn func() // b.grant, bound once so queueing a countdown allocates nothing

	cw int
	// slotsLeft is the backoff counter as of the pending countdown's
	// resume; freezes charge the elapsed slots to it.
	slotsLeft int
	timer     Timer // the pending countdown's grant; zero when none is queued
	running   bool
	busy      bool
}

// NewBackoff creates a contender. `granted` fires when backoff completes.
func NewBackoff(eng *Engine, params EDCAParams, src *rng.Source, granted func()) *Backoff {
	b := &Backoff{
		Params:  params,
		eng:     eng,
		src:     src,
		granted: granted,
		cw:      params.CWMin,
	}
	b.grantFn = b.grant
	return b
}

// Start begins a contention cycle: draw a backoff counter and, if the
// medium is currently idle, start counting down after AIFS.
func (b *Backoff) Start() {
	if b.running {
		return
	}
	b.running = true
	b.slotsLeft = b.src.Intn(b.cw + 1)
	b.resume()
}

// Running reports whether a contention cycle is active.
func (b *Backoff) Running() bool { return b.running }

// MediumBusy must be called when the contender's medium becomes busy
// (physical or virtual carrier sense); it freezes the countdown.
func (b *Backoff) MediumBusy() {
	b.busy = true
	b.freeze()
}

// MediumIdle must be called when the medium becomes idle again; the
// countdown resumes after a fresh AIFS.
func (b *Backoff) MediumIdle() {
	b.busy = false
	if b.running {
		b.resume()
	}
}

// resume restarts the countdown after an idle transition: a full AIFS,
// then one decrement per idle slot, granting once the counter is spent.
// Progress through the backoff counter is preserved across busy periods
// (the standard freeze/resume rule), so every contender eventually
// drains its counter and wins.
func (b *Backoff) resume() {
	if b.busy {
		return
	}
	b.freeze()
	b.timer = b.eng.countdown(b.eng.Now()+b.Params.AIFS(), b.slotsLeft, b.grantFn)
}

// freeze cancels the pending countdown, if any, charging the idle slots
// it has counted so far.
func (b *Backoff) freeze() {
	if b.timer == (Timer{}) {
		return
	}
	b.slotsLeft -= b.eng.slotsElapsed(b.timer)
	b.timer.Cancel()
	b.timer = Timer{}
}

// grant ends a countdown whose counter ran out.
func (b *Backoff) grant() {
	b.running = false
	b.slotsLeft = 0
	b.timer = Timer{}
	b.granted()
}

// Collision doubles the contention window (up to CWMax) and starts a new
// cycle, as after a failed transmission.
func (b *Backoff) Collision() {
	b.cw = b.cw*2 + 1
	if b.cw > b.Params.CWMax {
		b.cw = b.Params.CWMax
	}
	b.Stop()
	b.Start()
}

// Success resets the contention window to CWMin after a delivered
// transmission.
func (b *Backoff) Success() { b.cw = b.Params.CWMin }

// CW exposes the current contention window (for tests and stats).
func (b *Backoff) CW() int { return b.cw }

// Stop aborts the current cycle.
func (b *Backoff) Stop() {
	b.running = false
	b.timer.Cancel()
	b.timer = Timer{}
}
