package core

import (
	"slices"

	"repro/internal/mac"
)

// 802.11e/ac traffic-class integration (§3.3): 802.11ac re-purposes the
// four EDCA queues for MU-MIMO — when a class wins channel access it
// becomes the *primary* access class, and if it cannot fill the MU group,
// clients from *secondary* classes top it up. MIDAS's client selection
// runs within each class in priority order.

// acOrder lists access categories from highest to lowest priority.
var acOrder = [4]mac.AccessCategory{
	mac.ACVoice, mac.ACVideo, mac.ACBestEffort, mac.ACBackground,
}

// classOrder returns the order a TXOP with the given primary class (one
// of the four) visits the classes in: the primary first, then the
// secondary classes by priority.
func classOrder(primary mac.AccessCategory) [4]mac.AccessCategory {
	out := [4]mac.AccessCategory{primary}
	n := 1
	for _, ac := range acOrder {
		if ac != primary && n < len(out) {
			out[n] = ac
			n++
		}
	}
	return out
}

// BackloggedByAC partitions the queue's backlogged clients by the access
// category of their head-of-line packet, indexed by category, each in
// ascending client order. The slices are the queue's own (see Queue).
func (q *Queue) BackloggedByAC() [4][]int {
	for ac := range q.byAC {
		q.byAC[ac] = q.byAC[ac][:0]
	}
	for i := range q.fifos {
		if f := &q.fifos[i]; f.n > 0 {
			ac := mac.ACOfTID(f.ring[f.head].TID)
			q.byAC[ac] = append(q.byAC[ac], f.client)
		}
	}
	return q.byAC
}

// PrimaryAC returns the highest-priority access category with backlog —
// the class that would win the AP's internal EDCA contention, hence the
// primary access class of the next TXOP. ok is false when the queue is
// empty.
func (q *Queue) PrimaryAC() (mac.AccessCategory, bool) {
	var backlogged [4]bool
	for i := range q.fifos {
		if f := &q.fifos[i]; f.n > 0 {
			backlogged[mac.ACOfTID(f.ring[f.head].TID)] = true
		}
	}
	for _, ac := range acOrder {
		if backlogged[ac] {
			return ac, true
		}
	}
	return mac.ACBestEffort, false
}

// eligibleForWithAC returns the backlogged clients whose head packet tags
// the antenna AND belongs to the access category.
func (q *Queue) eligibleForWithAC(antenna int, ac mac.AccessCategory) []int {
	out := q.eligibleAC[:0]
	for i := range q.fifos {
		f := &q.fifos[i]
		if f.n == 0 {
			continue
		}
		if p := &f.ring[f.head]; mac.ACOfTID(p.TID) == ac && tagged(p, antenna) {
			out = append(out, f.client)
		}
	}
	q.eligibleAC = out
	return out
}

// SelectClientsEDCA performs antenna-specific, fairness-driven client
// selection (§3.2.5) with §3.3's class structure: antennas are visited in
// the given (NAV-expiry) order; for each, the scheduler picks among the
// not-yet-chosen backlogged clients whose head-of-line packet tags that
// antenna, considering the primary class's clients first and falling
// back through the secondary classes in priority order. The returned
// list has at most one client per antenna; antennas that found no
// eligible client contribute nothing (but still transmit as part of the
// precoded group). The slice is the controller's own and is overwritten
// by the next call.
func (c *Controller) SelectClientsEDCA(antennas []int, primary mac.AccessCategory) []int {
	clients := c.clients[:0]
	classes := classOrder(primary)
	for _, a := range antennas {
		for _, ac := range classes {
			filtered := c.filtered[:0]
			for _, cl := range c.Queue.eligibleForWithAC(a, ac) {
				if !slices.Contains(clients, cl) {
					filtered = append(filtered, cl)
				}
			}
			c.filtered = filtered
			if len(filtered) == 0 {
				continue
			}
			clients = append(clients, c.Cfg.Scheduler.Pick(filtered))
			break
		}
	}
	c.clients = clients
	return clients
}

// SelectClientsEDCA is the CAS baseline's class-aware selection: fill the
// group with up to maxStreams distinct clients from the primary class's
// backlog, then secondary classes, with no antenna affinity (the 802.11ac
// behaviour §3.3 describes). The slice is the controller's own and is
// overwritten by the next call.
func (c *CASController) SelectClientsEDCA(primary mac.AccessCategory) []int {
	clients := c.clients[:0]
	byAC := c.Queue.BackloggedByAC()
	for _, ac := range classOrder(primary) {
		for len(clients) < c.maxStream {
			eligible := c.eligible[:0]
			for _, cl := range byAC[ac] {
				if !slices.Contains(clients, cl) {
					eligible = append(eligible, cl)
				}
			}
			c.eligible = eligible
			if len(eligible) == 0 {
				break
			}
			clients = append(clients, c.Scheduler.Pick(eligible))
		}
	}
	c.clients = clients
	return clients
}
