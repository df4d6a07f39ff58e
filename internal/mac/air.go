package mac

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Sensing thresholds. With the default channel parameters these give a
// carrier-sense/decode range of ≈20 m, matching the inter-AP distances of
// the paper's testbed (three APs 15 m apart overhear each other; the 8-AP
// layout caps overhearing at 3 APs).
const (
	// DefaultCSThresholdDBm is the energy level above which an antenna
	// senses the medium busy (preamble/energy detection reaches below
	// the decode sensitivity).
	DefaultCSThresholdDBm = -82.0
	// DefaultDecodeMinDBm is the minimum receive power for a frame's
	// contents (headers, Duration) to be decodable.
	DefaultDecodeMinDBm = -69.0
	// DefaultCaptureSINRdB is the minimum SINR for a control frame to
	// survive overlapping transmissions (capture effect).
	DefaultCaptureSINRdB = 6.0
)

// Rx describes one frame arrival at a listener.
type Rx struct {
	NAV   time.Duration // the frame's Duration field, as StartTx quantised it
	Power float64       // strongest-antenna receive power (linear mW)
	SINR  float64       // against the worst-case overlap interference (linear)
	// Decodable is false when the frame was below sensitivity or
	// collided; such frames still raised energy on the medium.
	Decodable bool
	From      int // transmission ID
	Start     time.Duration
	End       time.Duration
}

// PowerDBm returns Power in dBm.
func (r Rx) PowerDBm() float64 { return stats.DBm(r.Power) }

// SINRdB returns SINR in dB.
func (r Rx) SINRdB() float64 { return stats.DB(r.SINR) }

// Listener receives every transmission that ends while it is registered.
type Listener struct {
	Pos geom.Point
	Fn  func(Rx)
}

// Tx describes one transmission: a set of transmitting antenna sites
// (one for SISO control frames; several for an MU PPDU), each at the
// full per-antenna power, a duration and the NAV the frame's Duration
// field announces to third parties, counted from the frame's end (0
// announces none). Sites come from the medium's channel.Links.
type Tx struct {
	Antennas []int
	Airtime  time.Duration
	NAV      time.Duration
}

// Air is the shared radio medium: it tracks active transmissions, answers
// physical carrier-sense queries at arbitrary positions, and delivers
// frames to listeners with a geometric (path-loss) link budget. Fading is
// deliberately excluded from the control plane — sensing in the paper's
// analysis is a property of positions — while the data plane computes
// SINRs from the full fading channel (see internal/sim).
//
// Antennas and clients do not move during a run, so the same positions
// recur on every medium change. Link powers come from the network's
// channel.Links table, which names positions by site; each
// transmission's total and strongest-antenna power at each site it is
// read at is cached, and a carrier-sense watcher keeps the running sum
// of the active transmissions' power at its site. Every cache holds
// exactly the value the direct computation returns, summed in the same
// order, so answers are bit-identical to computing every link afresh.
// Every transmission is at full per-antenna power, and the thresholds
// are the Default* constants.
type Air struct {
	Eng *Engine

	links *channel.Links
	// noise is the noise floor and csThreshold, decodeMin and capture
	// the default thresholds, in linear units.
	noise, csThreshold, decodeMin, capture float64

	// Registrations and transmissions are kept in ascending id order,
	// which fixes float summation and delivery order. Unwatch and
	// Unlisten tombstone their entry (nil fn); ids index the slices.
	watchers  []watcher
	listeners []listener
	active    []*activeTx
	nextTx    int
	// spare holds records that neither an active transmission nor a live
	// overlap span names any more; StartTx reuses them.
	spare []*activeTx
}

// CaptureSINR returns DefaultCaptureSINRdB as a linear ratio.
func (a *Air) CaptureSINR() float64 { return a.capture }

// captures reports whether stats.DB(sinr) >= DefaultCaptureSINRdB. More
// than a relative 1e-9 away from the linear threshold the two sides
// differ by over 4e-9 dB, far beyond the few-ulp error of either
// conversion, so the linear comparison gives the same answer; only
// nearer the threshold is the logarithm taken.
func (a *Air) captures(sinr float64) bool {
	switch {
	case sinr > a.capture*(1+1e-9):
		return true
	case sinr < a.capture*(1-1e-9):
		return false
	}
	return stats.DB(sinr) >= DefaultCaptureSINRdB
}

// watcher tracks physical carrier-sense edges at one site. sum is
// powerAt(site, -1): active ids only grow, so adding a new transmission's
// power to it equals the in-order recompute; an ending one refolds it.
type watcher struct {
	site int
	fn   func(busy bool)
	sum  float64
	busy bool
}

type listener struct {
	site int
	fn   func(Rx)
}

type activeTx struct {
	id         int
	ants       []int // transmitting antenna sites
	nav        time.Duration
	start, end time.Duration
	overlap    []overlapSpan // transmissions that overlapped this one, by id
	fire       func()        // ends this transmission; bound once per record
	// pow[site] is the receive power at site from ants, computed on
	// first read.
	pow []sitePower
	// live is set while the transmission is on the air; refs counts the
	// overlap spans of live transmissions that name this record. The
	// record is reused only once both are clear.
	live bool
	refs int
}

// sitePower is one transmission's receive power at one site: the total
// over its antennas, or unsetPower until first read, and the strongest
// single antenna's.
type sitePower struct{ total, best float64 }

// unsetPower marks a pow entry not computed yet; link powers are never
// negative.
const unsetPower = -1.0

// overlapSpan records an interfering transmission and the interval over
// which it overlaps the owner. The interferer's record is held (refs)
// while the span is live, so its antennas and cached powers stay valid
// after it ends.
type overlapSpan struct {
	tx       *activeTx
	from, to time.Duration
}

// NewAir creates a medium bound to the engine that reads its link powers
// from links, the table the network's channel model shares, so carrier
// sensing is as local (and as irregular) as the paper's office walls
// make the payload's channel.
func NewAir(eng *Engine, links *channel.Links) *Air {
	return &Air{
		Eng:         eng,
		links:       links,
		noise:       links.P.NoiseLinear(),
		csThreshold: stats.Milliwatt(DefaultCSThresholdDBm),
		decodeMin:   stats.Milliwatt(DefaultDecodeMinDBm),
		capture:     stats.Linear(DefaultCaptureSINRdB),
	}
}

// linkPower is the medium's one read of the link table.
func (a *Air) linkPower(from, to int) float64 { return a.links.Power(from, to) }

// Watch registers a physical carrier-sense watcher at pos: fn fires on
// every busy/idle transition as transmissions start and end. The initial
// state is reported immediately. Returns the watcher id.
func (a *Air) Watch(pos geom.Point, fn func(busy bool)) int {
	w := watcher{site: a.links.Site(pos), fn: fn}
	w.sum = a.powerAt(w.site, -1)
	w.busy = w.sum >= a.csThreshold
	a.watchers = append(a.watchers, w)
	fn(w.busy)
	return len(a.watchers) - 1
}

// Unwatch removes a watcher.
func (a *Air) Unwatch(id int) {
	if id >= 0 && id < len(a.watchers) {
		a.watchers[id].fn = nil
	}
}

// notifyWatchers re-evaluates every watcher after a medium change, in
// registration order. started is the transmission that just started,
// whose power extends each running sum, or nil after one ended, when
// each sum is refolded from the active records' cached powers. All sums
// are brought up to date before any callback runs, so a callback that
// starts a transmission extends sums that already hold this change.
func (a *Air) notifyWatchers(started *activeTx) {
	n := len(a.watchers)
	for i := 0; i < n; i++ {
		w := &a.watchers[i]
		switch {
		case w.fn == nil:
		case started != nil:
			w.sum += a.txPower(started, w.site)
		default:
			w.sum = a.powerAt(w.site, -1)
		}
	}
	for i := 0; i < n; i++ {
		w := &a.watchers[i]
		if w.fn == nil {
			continue
		}
		if b := w.sum >= a.csThreshold; b != w.busy {
			w.busy = b
			w.fn(b)
		}
	}
}

// Listen registers a listener and returns its id.
func (a *Air) Listen(l Listener) int {
	a.listeners = append(a.listeners, listener{site: a.links.Site(l.Pos), fn: l.Fn})
	return len(a.listeners) - 1
}

// Unlisten removes a listener.
func (a *Air) Unlisten(id int) {
	if id >= 0 && id < len(a.listeners) {
		a.listeners[id].fn = nil
	}
}

// txPower returns at's total receive power (linear mW) at site to:
// interference adds across its antennas.
func (a *Air) txPower(at *activeTx, to int) float64 {
	return a.sitePower(at, to).total
}

// txSignal returns at's strongest-antenna receive power (linear mW) at
// site to.
func (a *Air) txSignal(at *activeTx, to int) float64 {
	return a.sitePower(at, to).best
}

// sitePower returns at's power at site to, computing it on the record's
// first read at that site.
func (a *Air) sitePower(at *activeTx, to int) sitePower {
	if to >= len(at.pow) {
		at.pow = unsetRow(at.pow, len(at.pow), a.links.Sites())
	}
	p := &at.pow[to]
	if p.total == unsetPower {
		p.total = 0
		for _, ant := range at.ants {
			l := a.linkPower(ant, to)
			p.total += l
			if l > p.best {
				p.best = l
			}
		}
	}
	return *p
}

// unsetRow returns row resized to n entries, marking entries from on
// unset.
func unsetRow(row []sitePower, from, n int) []sitePower {
	row = slices.Grow(row[:from], n-from)[:n]
	for i := from; i < n; i++ {
		row[i] = sitePower{total: unsetPower}
	}
	return row
}

// powerAt returns the aggregate active transmit power (linear mW) at
// site to, excluding transmission id exclude (-1 for none).
func (a *Air) powerAt(to, exclude int) float64 {
	sum := 0.0
	for _, at := range a.active {
		if at.id == exclude {
			continue
		}
		sum += a.txPower(at, to)
	}
	return sum
}

// ActiveCount returns the number of in-flight transmissions.
func (a *Air) ActiveCount() int { return len(a.active) }

// StartTx begins a transmission. Delivery to every listener is scheduled
// at the end of the airtime; the SINR each listener sees uses the
// worst-case set of transmissions that overlapped anywhere in the frame's
// lifetime, which is conservative in the same way real preamble/payload
// collisions are. It returns the transmission id.
func (a *Air) StartTx(tx Tx) (int, error) {
	if len(tx.Antennas) == 0 {
		return 0, fmt.Errorf("mac: transmission with no antennas")
	}
	if tx.Airtime <= 0 {
		return 0, fmt.Errorf("mac: non-positive airtime %v", tx.Airtime)
	}
	for _, s := range tx.Antennas {
		if s < 0 || s >= a.links.Sites() {
			return 0, fmt.Errorf("mac: unknown antenna site %d", s)
		}
	}
	id := a.nextTx
	a.nextTx++
	now := a.Eng.Now()
	at := a.newActive()
	at.id, at.nav = id, durationField(tx.NAV)
	at.start, at.end = now, now+tx.Airtime
	at.ants = append(at.ants[:0], tx.Antennas...)
	at.pow = unsetRow(at.pow, 0, a.links.Sites())
	at.live = true
	// Mutual overlap bookkeeping with everything currently active. Ids
	// only grow, so appending keeps every overlap list in id order.
	for _, other := range a.active {
		to := min(at.end, other.end)
		other.addOverlap(at, now, to)
		at.addOverlap(other, now, to)
	}
	a.active = append(a.active, at)
	a.Eng.Schedule(tx.Airtime, at.fire)
	a.notifyWatchers(at)
	return id, nil
}

// newActive returns a transmission record, reusing an ended one if any.
func (a *Air) newActive() *activeTx {
	if n := len(a.spare); n > 0 {
		at := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return at
	}
	at := &activeTx{}
	at.fire = func() { a.endTx(at) }
	return at
}

// addOverlap appends a span naming other to at's overlap list and holds
// other's record for it.
func (at *activeTx) addOverlap(other *activeTx, from, to time.Duration) {
	at.overlap = append(at.overlap, overlapSpan{tx: other, from: from, to: to})
	other.refs++
}

// release returns at to the spare list once it is neither on the air nor
// named by a live span.
func (a *Air) release(at *activeTx) {
	if !at.live && at.refs == 0 {
		a.spare = append(a.spare, at)
	}
}

func (a *Air) endTx(at *activeTx) {
	if i := slices.Index(a.active, at); i >= 0 {
		a.active = slices.Delete(a.active, i, i+1)
	}
	at.live = false
	a.notifyWatchers(nil)
	for i, n := 0, len(a.listeners); i < n; i++ {
		l := a.listeners[i]
		if l.fn == nil {
			continue
		}
		sig := a.txSignal(at, l.site)
		interf := 0.0
		for _, sp := range at.overlap {
			interf += a.txPower(sp.tx, l.site)
		}
		sinr := sig / (a.noise + interf)
		rx := Rx{
			NAV:       at.nav,
			Power:     sig,
			SINR:      sinr,
			Decodable: sig >= a.decodeMin && a.captures(sinr),
			From:      at.id,
			Start:     at.start,
			End:       at.end,
		}
		l.fn(rx)
	}
	for _, sp := range at.overlap {
		sp.tx.refs--
		a.release(sp.tx)
	}
	at.overlap = at.overlap[:0]
	a.release(at)
}

// OverlapInterference returns, for an active transmission id, the total
// power (linear mW) at site to from the transmissions that have
// overlapped it so far. The MU-MIMO data plane samples this just before a
// burst ends to include other-cell interference in its stream SINRs.
func (a *Air) OverlapInterference(id, to int) float64 {
	at := a.lookup(id)
	if at == nil {
		return 0
	}
	sum := 0.0
	for _, sp := range at.overlap {
		sum += a.txPower(sp.tx, to)
	}
	return sum
}

// lookup returns the active transmission id, or nil.
func (a *Air) lookup(id int) *activeTx {
	for _, at := range a.active {
		if at.id == id {
			return at
		}
	}
	return nil
}

// WeightedInterference returns the time-averaged interference power
// (linear mW) at site to over the active transmission id's airtime: each
// overlapping transmission contributes its power scaled by the fraction
// of the frame it actually overlapped. This is the right average for a
// long data burst's Shannon rate; control-frame decoding keeps the
// worst-case OverlapInterference.
func (a *Air) WeightedInterference(id, to int) float64 {
	at := a.lookup(id)
	if at == nil {
		return 0
	}
	dur := at.end - at.start
	if dur <= 0 {
		return 0
	}
	sum := 0.0
	for _, sp := range at.overlap {
		frac := float64(sp.to-sp.from) / float64(dur)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		sum += a.txPower(sp.tx, to) * frac
	}
	return sum
}

// TxSignalAt returns the strongest-antenna receive power (linear mW) at
// site to from the active transmission id, or 0 if it is not active.
func (a *Air) TxSignalAt(id, to int) float64 {
	at := a.lookup(id)
	if at == nil {
		return 0
	}
	return a.txSignal(at, to)
}
