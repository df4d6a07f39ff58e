package core

import (
	"time"

	"repro/internal/mac"
)

// CASController is the conventional 802.11ac baseline (§5.1): a single
// channel state for the whole AP — one NAV coupling every antenna — no
// packet tagging, and client selection over all backlogged clients. The
// station driver uses it exactly like a MIDAS Controller, which keeps the
// end-to-end comparison apples-to-apples: only the §3.2 policies differ.
type CASController struct {
	Antennas  []int
	Queue     *Queue
	Scheduler Scheduler
	nav       mac.NAV
	maxStream int

	// Buffers SelectClientsEDCA fills and returns.
	clients, eligible []int
}

// NewCASController builds the baseline controller.
func NewCASController(antennas []int, sched Scheduler, maxStreams int) *CASController {
	if sched == nil {
		sched = NewDRRScheduler()
	}
	if maxStreams <= 0 || maxStreams > len(antennas) {
		maxStreams = len(antennas)
	}
	return &CASController{
		Antennas:  antennas,
		Queue:     NewQueue(),
		Scheduler: sched,
		maxStream: maxStreams,
	}
}

// Enqueue queues a packet without tags (every antenna is equivalent in a
// CAS, so tagging is meaningless).
func (c *CASController) Enqueue(p Packet) {
	p.Tags = nil
	c.Queue.Push(p)
}

// UpdateNAV records an overheard reservation. The antenna argument is
// ignored: a CAS AP keeps a single medium state (§3.2.2's
// channel-state-coupling limitation).
func (c *CASController) UpdateNAV(_ int, until time.Duration) { c.nav.Update(until) }

// NAVBusy reports the single virtual carrier-sense state.
func (c *CASController) NAVBusy(now time.Duration) bool { return c.nav.Busy(now) }

// NAVExpiry returns the single NAV's expiry.
func (c *CASController) NAVExpiry() time.Duration { return c.nav.Expiry() }

// SelectAntennas engages all antennas unconditionally — the CAS MAC
// treats the array as one unit. It returns Antennas itself, which the
// caller must not modify.
func (c *CASController) SelectAntennas() []int { return c.Antennas }

// Dequeue removes the head packet of each served client.
func (c *CASController) Dequeue(clients []int) {
	for _, cl := range clients {
		c.Queue.Pop(cl)
	}
}

// FinishTXOP applies fairness accounting.
func (c *CASController) FinishTXOP(served []int, txop time.Duration) {
	c.Scheduler.Charge(served, c.Queue.Backlogged(), txop)
}
