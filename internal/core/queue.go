// Package core implements the MIDAS access point's MAC-layer logic — the
// paper's §3.2 contribution — and the conventional CAS baseline it is
// evaluated against:
//
//   - virtual packet tagging: every queued packet carries its client's two
//     best antennas by long-term RSSI (§3.2.4);
//   - opportunistic antenna selection: when one antenna wins the channel,
//     wait up to a DIFS for other antennas whose NAVs are about to expire
//     (§3.2.3);
//   - antenna-specific, fairness-driven client selection with deficit
//     round robin (§3.2.5);
//   - the per-TXOP MU-MIMO pipeline of §3.2.1 (sounding → power-balanced
//     precoding → counter updates) expressed as a testable policy layer
//     that the network simulator (internal/sim) drives with events.
package core

import (
	"cmp"
	"slices"
	"time"
)

// Packet is one queued downlink MPDU.
type Packet struct {
	Client   int
	TID      uint8
	Size     int   // payload bytes
	Tags     []int // preferred antennas (global indices), §3.2.4
	Enqueued time.Duration
	Seq      uint16
}

// Queue is the AP's downlink packet store: per-client FIFOs, with the
// 802.11e access-category split handled by the caller keeping one Queue
// per AC if desired. It supports the tag-filtered peeks MIDAS's client
// selection needs.
//
// The snapshot methods (Backlogged, BackloggedByAC, EligibleFor) return
// slices the queue owns and refills on every call, so a steady-state
// TXOP allocates nothing. Each returned slice stays valid until the next
// call on the same queue; a caller that keeps one longer must copy it.
type Queue struct {
	fifos []fifo // one per client ever queued, in ascending client order
	size  int
	seq   uint16

	backlogged, eligible, eligibleAC []int
	byAC                             [4][]int
}

// fifo is one client's packets: a ring that pops in place, so refilling
// after a pop reuses the slot.
type fifo struct {
	client  int
	ring    []Packet
	head, n int
}

func (f *fifo) push(p Packet) {
	if f.n == len(f.ring) {
		ring := make([]Packet, max(4, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			ring[i] = f.ring[(f.head+i)%len(f.ring)]
		}
		f.ring, f.head = ring, 0
	}
	f.ring[(f.head+f.n)%len(f.ring)] = p
	f.n++
}

func (f *fifo) pop() Packet {
	p := f.ring[f.head]
	f.ring[f.head] = Packet{}
	f.head = (f.head + 1) % len(f.ring)
	f.n--
	return p
}

func byClient(f fifo, client int) int { return cmp.Compare(f.client, client) }

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// find returns the client's FIFO, or nil if it never queued a packet.
func (q *Queue) find(client int) *fifo {
	if i, ok := slices.BinarySearchFunc(q.fifos, client, byClient); ok {
		return &q.fifos[i]
	}
	return nil
}

// Push appends a packet to its client's FIFO, assigning a sequence number.
func (q *Queue) Push(p Packet) {
	p.Seq = q.seq
	q.seq = (q.seq + 1) & 0x0fff
	i, ok := slices.BinarySearchFunc(q.fifos, p.Client, byClient)
	if !ok {
		q.fifos = slices.Insert(q.fifos, i, fifo{client: p.Client})
	}
	q.fifos[i].push(p)
	q.size++
}

// Len returns the total number of queued packets.
func (q *Queue) Len() int { return q.size }

// LenFor returns the number of packets queued for one client.
func (q *Queue) LenFor(client int) int {
	if f := q.find(client); f != nil {
		return f.n
	}
	return 0
}

// Head returns the head-of-line packet for a client without removing it.
func (q *Queue) Head(client int) (Packet, bool) {
	f := q.find(client)
	if f == nil || f.n == 0 {
		return Packet{}, false
	}
	return f.ring[f.head], true
}

// Pop removes and returns the head-of-line packet for a client.
func (q *Queue) Pop(client int) (Packet, bool) {
	f := q.find(client)
	if f == nil || f.n == 0 {
		return Packet{}, false
	}
	q.size--
	return f.pop(), true
}

// Backlogged returns the clients with at least one queued packet, in
// ascending client order (deterministic).
func (q *Queue) Backlogged() []int {
	out := q.backlogged[:0]
	for i := range q.fifos {
		if f := &q.fifos[i]; f.n > 0 {
			out = append(out, f.client)
		}
	}
	q.backlogged = out
	return out
}

// EligibleFor returns the backlogged clients whose head-of-line packet is
// tagged with the given antenna — the tag filter of §3.2.4. A packet with
// no tags is eligible on every antenna (the CAS behaviour).
func (q *Queue) EligibleFor(antenna int) []int {
	out := q.eligible[:0]
	for i := range q.fifos {
		if f := &q.fifos[i]; f.n > 0 && tagged(&f.ring[f.head], antenna) {
			out = append(out, f.client)
		}
	}
	q.eligible = out
	return out
}

// tagged reports whether p may go out on antenna: it tags the antenna,
// or carries no tags at all.
func tagged(p *Packet, antenna int) bool {
	return len(p.Tags) == 0 || slices.Contains(p.Tags, antenna)
}
