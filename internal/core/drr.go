package core

import (
	"math"
	"slices"
	"time"
)

// DRR implements the deficit-round-robin fairness accounting of §3.2.5,
// tailored for MU-MIMO: each client carries a deficit counter measuring
// pending service. On a TXOP of length T serving n clients, each served
// client's counter is decremented by T, and each backlogged-but-unserved
// client's counter is incremented by n·T/m (m = number of such clients) —
// distributing the consumed airtime over the clients that were passed
// over, steering future selections toward fairness.
type DRR struct {
	deficit map[int]float64 // in seconds of owed service
}

// NewDRR returns an empty deficit table.
func NewDRR() *DRR { return &DRR{deficit: map[int]float64{}} }

// Deficit returns a client's current counter (0 for unknown clients).
func (d *DRR) Deficit(client int) float64 { return d.deficit[client] }

// Select returns the eligible client with the largest deficit counter,
// breaking ties by lowest client index for determinism. ok is false when
// the eligible set is empty.
func (d *DRR) Select(eligible []int) (client int, ok bool) {
	best, bestDef := -1, math.Inf(-1)
	for _, c := range eligible {
		def := d.deficit[c]
		if def > bestDef || (def == bestDef && (best == -1 || c < best)) {
			best, bestDef = c, def
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Charge applies the §3.2.5 counter updates after a TXOP of length txop:
// served clients pay txop each; the unserved backlogged clients split the
// total service n·txop equally.
func (d *DRR) Charge(served, backlogged []int, txop time.Duration) {
	t := txop.Seconds()
	for _, c := range served {
		d.deficit[c] -= t
	}
	unserved := 0
	for _, c := range backlogged {
		if !slices.Contains(served, c) {
			unserved++
		}
	}
	if unserved == 0 {
		return
	}
	share := float64(len(served)) * t / float64(unserved)
	for _, c := range backlogged {
		if !slices.Contains(served, c) {
			d.deficit[c] += share
		}
	}
}

// Reset clears all counters.
func (d *DRR) Reset() { d.deficit = map[int]float64{} }

// Scheduler selects one client for an antenna from an eligible set.
// MIDAS uses DRR; the ablations swap in round-robin and random policies.
type Scheduler interface {
	// Pick chooses a client from eligible (never empty); the MU-MIMO
	// driver guarantees the same client is not offered twice in one TXOP.
	Pick(eligible []int) int
	// Charge records TXOP accounting (no-op for stateless policies).
	Charge(served, backlogged []int, txop time.Duration)
}

// DRRScheduler adapts DRR to the Scheduler interface.
type DRRScheduler struct{ D *DRR }

// NewDRRScheduler returns a DRR-backed scheduler.
func NewDRRScheduler() *DRRScheduler { return &DRRScheduler{D: NewDRR()} }

// Pick implements Scheduler.
func (s *DRRScheduler) Pick(eligible []int) int {
	c, _ := s.D.Select(eligible)
	return c
}

// Charge implements Scheduler.
func (s *DRRScheduler) Charge(served, backlogged []int, txop time.Duration) {
	s.D.Charge(served, backlogged, txop)
}

// RoundRobinScheduler cycles through clients in index order.
type RoundRobinScheduler struct{ last int }

// NewRoundRobinScheduler returns a round-robin scheduler.
func NewRoundRobinScheduler() *RoundRobinScheduler { return &RoundRobinScheduler{last: -1} }

// Pick implements Scheduler: the next eligible client strictly after the
// previously picked index, wrapping around.
func (s *RoundRobinScheduler) Pick(eligible []int) int {
	best := -1
	for _, c := range eligible {
		if c > s.last && (best == -1 || c < best) {
			best = c
		}
	}
	if best == -1 { // wrap
		for _, c := range eligible {
			if best == -1 || c < best {
				best = c
			}
		}
	}
	s.last = best
	return best
}

// Charge implements Scheduler (stateless).
func (s *RoundRobinScheduler) Charge(served, backlogged []int, txop time.Duration) {}

// RandomScheduler picks uniformly using the provided Intn function — the
// baseline for the Fig 14 packet-tagging comparison.
type RandomScheduler struct{ Intn func(int) int }

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(eligible []int) int {
	return eligible[s.Intn(len(eligible))]
}

// Charge implements Scheduler (stateless).
func (s *RandomScheduler) Charge(served, backlogged []int, txop time.Duration) {}
