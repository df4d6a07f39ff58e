package core

import (
	"slices"
	"sort"
	"time"

	"repro/internal/mac"
)

// RSSIProvider supplies the long-term (fading-averaged) receive power a
// client sees from an antenna — the quantity MIDAS ranks antennas by for
// virtual packet tagging (§3.2.4). internal/channel's Model implements it
// via MeanRxPower.
type RSSIProvider interface {
	MeanRxPower(client, antenna int) float64
}

// TagAntennas returns the client's tagWidth best antennas (from the
// candidate set, by mean RSSI, strongest first). With tagWidth 2 this is
// the paper's default; 1 risks under-utilisation, all-antennas degrades
// to CAS behaviour (§3.2.4).
func TagAntennas(rssi RSSIProvider, client int, antennas []int, tagWidth int) []int {
	if tagWidth <= 0 || len(antennas) == 0 {
		return nil
	}
	ranked := append([]int(nil), antennas...)
	sort.SliceStable(ranked, func(a, b int) bool {
		pa := rssi.MeanRxPower(client, ranked[a])
		pb := rssi.MeanRxPower(client, ranked[b])
		if pa != pb {
			return pa > pb
		}
		return ranked[a] < ranked[b]
	})
	if tagWidth > len(ranked) {
		tagWidth = len(ranked)
	}
	return ranked[:tagWidth]
}

// Config parameterises a MIDAS controller.
type Config struct {
	// Antennas are the AP's antenna indices (global, into the deployment).
	Antennas []int
	// TagWidth is the number of antennas tagged per packet (paper: 2).
	TagWidth int
	// WaitWindow is the opportunistic-selection wait for NAVs about to
	// expire (paper: one DIFS, §3.2.3).
	WaitWindow time.Duration
	// Scheduler is the client-selection policy (paper: DRR).
	Scheduler Scheduler
	// MaxStreams caps the MU-MIMO group size (≤ number of antennas).
	MaxStreams int
}

// DefaultConfig returns the paper's MIDAS parameters for the antenna set.
func DefaultConfig(antennas []int) Config {
	return Config{
		Antennas:   antennas,
		TagWidth:   2,
		WaitWindow: mac.DIFS,
		Scheduler:  NewDRRScheduler(),
		MaxStreams: len(antennas),
	}
}

// Controller is the MIDAS AP's decision layer: it owns the per-antenna
// NAV table, the tagged packet queue and the fairness state, and answers
// the two questions the station driver asks at each transmit opportunity:
// which antennas to use (§3.2.2–3.2.3) and which clients to serve
// (§3.2.4–3.2.5). It is deliberately free of event-loop plumbing so every
// policy is unit-testable; internal/sim drives it against the medium.
type Controller struct {
	Cfg   Config
	Navs  *mac.Table
	Queue *Queue

	// local maps a global antenna index to its position in Cfg.Antennas.
	local map[int]int
	// rssi ranks antennas for tagging; tags caches each client's ranking.
	// A client's tags depend only on the client, the fixed antenna set,
	// the tag width and static mean powers, so each client is ranked once
	// and its packets share one slice (Queue only reads Packet.Tags).
	rssi RSSIProvider
	tags map[int][]int

	// Buffers SelectAntennas and SelectClientsEDCA fill and return, so
	// a steady-state TXOP allocates nothing.
	set, antennas, clients, filtered []int
}

// NewController builds a controller with one NAV per antenna that tags
// packets by rssi's mean receive powers, which must not change over the
// controller's lifetime. rssi may be nil when cfg.TagWidth is 0.
func NewController(cfg Config, rssi RSSIProvider) *Controller {
	if cfg.MaxStreams <= 0 || cfg.MaxStreams > len(cfg.Antennas) {
		cfg.MaxStreams = len(cfg.Antennas)
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewDRRScheduler()
	}
	c := &Controller{
		Cfg:   cfg,
		Navs:  mac.NewTable(len(cfg.Antennas)),
		Queue: NewQueue(),
		local: make(map[int]int, len(cfg.Antennas)),
		rssi:  rssi,
		tags:  map[int][]int{},
	}
	for i, a := range cfg.Antennas {
		c.local[a] = i
	}
	return c
}

// LocalIndex translates a global antenna index to the controller's NAV
// slot; ok is false for antennas that are not this AP's.
func (c *Controller) LocalIndex(antenna int) (int, bool) {
	i, ok := c.local[antenna]
	return i, ok
}

// Enqueue tags the packet with the client's best antennas and queues it.
func (c *Controller) Enqueue(p Packet) {
	tags, ok := c.tags[p.Client]
	if !ok {
		tags = TagAntennas(c.rssi, p.Client, c.Cfg.Antennas, c.Cfg.TagWidth)
		c.tags[p.Client] = tags
	}
	p.Tags = tags
	c.Queue.Push(p)
}

// UpdateNAV records an overheard reservation on one antenna (the antenna
// that physically decoded the frame). until is absolute simulation time.
func (c *Controller) UpdateNAV(antenna int, until time.Duration) {
	if i, ok := c.local[antenna]; ok {
		c.Navs.Update(i, until)
	}
}

// SelectAntennas performs opportunistic antenna selection (§3.2.3): given
// that `winner` (global index) just won channel access at time now, return
// the antennas to engage — all currently idle ones, plus any whose NAV
// expires within the wait window — and the time to wait until. physBusy,
// when non-nil, holds each antenna's physical carrier-sense state by
// local index; physically busy antennas are never engaged (their
// occupant's end time is unknown, so they do not qualify for the wait
// window either). The returned slice is the controller's own and is
// overwritten by the next call.
func (c *Controller) SelectAntennas(winner int, now time.Duration, physBusy []bool) (antennas []int, waitUntil time.Duration) {
	waitUntil = now
	wl, ok := c.local[winner]
	if !ok {
		return nil, now
	}
	busy := func(k int) bool { return k < len(physBusy) && physBusy[k] && k != wl }
	idle := c.Navs.Idle(now)
	soon := c.Navs.ExpiringWithin(now, c.Cfg.WaitWindow)
	set := append(c.set[:0], wl)
	for _, ks := range [2][]int{idle, soon} {
		for _, k := range ks {
			if !slices.Contains(set, k) && !busy(k) {
				set = append(set, k)
			}
		}
	}
	c.set = set
	for _, k := range soon {
		if busy(k) {
			continue
		}
		if exp := c.Navs.Expiry(k); exp > waitUntil {
			waitUntil = exp
		}
	}
	antennas = c.antennas[:0]
	for _, k := range c.Navs.ByExpiry(set) {
		antennas = append(antennas, c.Cfg.Antennas[k])
	}
	c.antennas = antennas
	if len(antennas) > c.Cfg.MaxStreams {
		antennas = antennas[:c.Cfg.MaxStreams]
	}
	return antennas, waitUntil
}

// Dequeue removes the head packet of each served client.
func (c *Controller) Dequeue(clients []int) {
	for _, cl := range clients {
		c.Queue.Pop(cl)
	}
}

// FinishTXOP applies the fairness updates after serving `served` for txop.
func (c *Controller) FinishTXOP(served []int, txop time.Duration) {
	c.Cfg.Scheduler.Charge(served, c.Queue.Backlogged(), txop)
}
