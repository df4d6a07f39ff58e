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
// recur on every medium change, and the same antenna lists recur on
// transmission after transmission. Link powers come from the network's
// channel.Links table, which names positions by site. The medium keeps
// one power row per distinct antenna list: the list's total and
// strongest-antenna power at each site, filled on first read. A
// transmission record points at its list's row, and a carrier-sense
// watcher keeps the running sum of the active transmissions' power at
// its site. Every cache holds exactly the value the direct computation
// returns, summed over the same antennas in the same order, so answers
// are bit-identical to computing every link afresh.
// Every transmission is at full per-antenna power, and the thresholds
// are the Default* constants.
type Air struct {
	Eng *Engine

	links *channel.Links
	// noise is the noise floor and csThreshold, decodeMin and capture
	// the default thresholds, in linear units.
	noise, csThreshold, decodeMin, capture float64

	// Registrations and transmissions are kept in ascending id order,
	// which fixes float summation and delivery order.
	watchers  []watcher
	listeners []listener
	active    []*activeTx
	nextTx    int
	// spare holds the records of ended transmissions; StartTx reuses
	// them.
	spare []*activeTx

	// rowIndex finds an antenna list's power row by the list's hash.
	// Rows, their lists and their powers are cut from the three slabs,
	// so a new row seldom allocates and a row never moves.
	rowIndex map[uint64]*powerRow
	rowSlab  slab[powerRow]
	antSlab  slab[int]
	powSlab  slab[sitePower]
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
	row        *powerRow // the transmitting antenna list's powers
	nav        time.Duration
	start, end time.Duration
	overlap    []overlapSpan // transmissions that overlapped this one, by id
	fire       func()        // ends this transmission; bound once per record
}

// powerRow is one antenna list's receive power at each site; next
// chains rows whose lists hash alike.
type powerRow struct {
	ants []int       // transmitting antenna sites, in transmit order
	pow  []sitePower // by site
	next *powerRow
}

// sitePower is an antenna list's receive power at one site: the total
// over its antennas, or unsetPower until first read, and the strongest
// single antenna's.
type sitePower struct{ total, best float64 }

// unsetPower marks a pow entry not computed yet; link powers are never
// negative.
const unsetPower = -1.0

// slab cuts pieces from chunks that double in size, so a piece never
// moves and n pieces cost O(log n) allocations.
type slab[T any] struct {
	free []T // the current chunk's uncut tail
	size int // the current chunk's length
}

// cut returns the next n entries, zeroed.
func (s *slab[T]) cut(n int) []T {
	if len(s.free) < n {
		s.size = max(2*s.size, 8*n)
		s.free = make([]T, s.size)
	}
	p := s.free[:n:n]
	s.free = s.free[n:]
	return p
}

// overlapSpan records an interfering transmission's power row and the
// interval over which it overlaps the owner. Rows outlive transmissions,
// so the span stays readable after the interferer ends and its record
// is reused.
type overlapSpan struct {
	row      *powerRow
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
		rowIndex:    map[uint64]*powerRow{},
	}
}

// linkPower is the medium's one read of the link table.
func (a *Air) linkPower(from, to int) float64 { return a.links.Power(from, to) }

// Watch registers a physical carrier-sense watcher at pos: fn fires on
// every busy/idle transition as transmissions start and end. The initial
// state is reported immediately.
func (a *Air) Watch(pos geom.Point, fn func(busy bool)) {
	w := watcher{site: a.links.Site(pos), fn: fn}
	w.sum = a.powerAt(w.site, -1)
	w.busy = w.sum >= a.csThreshold
	a.watchers = append(a.watchers, w)
	fn(w.busy)
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
		if started != nil {
			w.sum += a.power(started.row, w.site).total
		} else {
			w.sum = a.powerAt(w.site, -1)
		}
	}
	for i := 0; i < n; i++ {
		w := &a.watchers[i]
		if b := w.sum >= a.csThreshold; b != w.busy {
			w.busy = b
			w.fn(b)
		}
	}
}

// Listen registers a listener.
func (a *Air) Listen(l Listener) {
	a.listeners = append(a.listeners, listener{site: a.links.Site(l.Pos), fn: l.Fn})
}

// power returns r's receive power (linear mW) at site to, computing it
// on the row's first read at that site. Interference adds across the
// antennas (total); a frame is received from the strongest (best).
func (a *Air) power(r *powerRow, to int) sitePower {
	if to >= len(r.pow) {
		a.widen(r)
	}
	p := &r.pow[to]
	if p.total == unsetPower {
		p.total = 0
		for _, ant := range r.ants {
			l := a.linkPower(ant, to)
			p.total += l
			if l > p.best {
				p.best = l
			}
		}
	}
	return *p
}

// row returns the power row of the antenna list ants, adding it on the
// list's first transmission.
func (a *Air) row(ants []int) *powerRow {
	h := uint64(fnvOffset)
	for _, s := range ants {
		h = (h ^ uint64(s)) * fnvPrime
	}
	for r := a.rowIndex[h]; r != nil; r = r.next {
		if slices.Equal(r.ants, ants) {
			return r
		}
	}
	r := &a.rowSlab.cut(1)[0]
	r.ants = a.antSlab.cut(len(ants))
	copy(r.ants, ants)
	a.widen(r)
	r.next = a.rowIndex[h]
	a.rowIndex[h] = r
	return r
}

// FNV-1a over the antenna sites keys rowIndex.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// widen gives r an entry for every interned site, marking the new ones
// unset.
func (a *Air) widen(r *powerRow) {
	pow := a.powSlab.cut(a.links.Sites())
	for i := copy(pow, r.pow); i < len(pow); i++ {
		pow[i] = sitePower{total: unsetPower}
	}
	r.pow = pow
}

// powerAt returns the aggregate active transmit power (linear mW) at
// site to, excluding transmission id exclude (-1 for none).
func (a *Air) powerAt(to, exclude int) float64 {
	sum := 0.0
	for _, at := range a.active {
		if at.id == exclude {
			continue
		}
		sum += a.power(at.row, to).total
	}
	return sum
}

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
	at.row = a.row(tx.Antennas)
	// Mutual overlap bookkeeping with everything currently active. Ids
	// only grow, so appending keeps every overlap list in id order.
	for _, other := range a.active {
		to := min(at.end, other.end)
		other.overlap = append(other.overlap, overlapSpan{row: at.row, from: now, to: to})
		at.overlap = append(at.overlap, overlapSpan{row: other.row, from: now, to: to})
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

func (a *Air) endTx(at *activeTx) {
	if i := slices.Index(a.active, at); i >= 0 {
		a.active = slices.Delete(a.active, i, i+1)
	}
	a.notifyWatchers(nil)
	for i, n := 0, len(a.listeners); i < n; i++ {
		l := a.listeners[i]
		sig := a.power(at.row, l.site).best
		interf := 0.0
		for _, sp := range at.overlap {
			interf += a.power(sp.row, l.site).total
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
	at.overlap = at.overlap[:0]
	a.spare = append(a.spare, at)
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
		sum += a.power(sp.row, to).total
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
		sum += a.power(sp.row, to).total * frac
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
	return a.power(at.row, to).best
}
