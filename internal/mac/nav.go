package mac

import "time"

// NAV is a network allocation vector — the 802.11 virtual carrier-sense
// timer. A conventional CAS AP keeps exactly one; a MIDAS AP provisions
// one per distributed antenna (§3.2.2) so each antenna tracks the medium
// occupancy in its own neighbourhood.
type NAV struct {
	until time.Duration
}

// Update extends the NAV to `until` if it is later than the current
// reservation (the standard NAV update rule).
func (n *NAV) Update(until time.Duration) {
	if until > n.until {
		n.until = until
	}
}

// Busy reports whether the NAV is set at time now.
func (n *NAV) Busy(now time.Duration) bool { return now < n.until }

// Expiry returns the absolute time the NAV runs out.
func (n *NAV) Expiry() time.Duration { return n.until }

// Clear resets the NAV (used when a CF-End-like release is heard).
func (n *NAV) Clear() { n.until = 0 }

// maxDurationField is the largest NAV a frame can announce: the
// Duration/ID field carries 15 bits of microseconds.
const maxDurationField = 32767 * time.Microsecond

// durationField returns d as a frame's Duration/ID field carries it:
// truncated to whole microseconds and clamped to 0–32,767 µs. StartTx
// applies it once per transmission, so every NAV a listener sets is a
// value the 15-bit on-air field could hold. A d under 1 µs announces no
// NAV.
func durationField(d time.Duration) time.Duration {
	return min(max(d.Truncate(time.Microsecond), 0), maxDurationField)
}

// Table is a set of per-antenna NAVs plus per-antenna physical sensing
// hooks — the MIDAS AP's fine-grained channel state (§3.2.2).
//
// Idle, ExpiringWithin and ByExpiry return slices the table owns and
// refills on every call, one buffer per method, so antenna selection
// allocates nothing. Each stays valid until the next call of the same
// method.
type Table struct {
	navs              []NAV
	idle, soon, order []int
}

// NewTable returns a table with n independent NAVs.
func NewTable(n int) *Table { return &Table{navs: make([]NAV, n)} }

// Len returns the number of antennas tracked.
func (t *Table) Len() int { return len(t.navs) }

// Update extends antenna k's NAV.
func (t *Table) Update(k int, until time.Duration) { t.navs[k].Update(until) }

// UpdateAll extends every NAV — the CAS behaviour of coupling all
// antennas to a single channel state.
func (t *Table) UpdateAll(until time.Duration) {
	for k := range t.navs {
		t.navs[k].Update(until)
	}
}

// Busy reports antenna k's virtual carrier-sense state.
func (t *Table) Busy(k int, now time.Duration) bool { return t.navs[k].Busy(now) }

// Expiry returns antenna k's NAV expiry.
func (t *Table) Expiry(k int) time.Duration { return t.navs[k].Expiry() }

// Idle returns the antennas whose NAVs are clear at now.
func (t *Table) Idle(now time.Duration) []int {
	idle := t.idle[:0]
	for k := range t.navs {
		if !t.navs[k].Busy(now) {
			idle = append(idle, k)
		}
	}
	t.idle = idle
	return idle
}

// ExpiringWithin returns the antennas whose NAVs are busy at now but
// expire within the window — the candidates MIDAS's opportunistic antenna
// selection waits for (§3.2.3).
func (t *Table) ExpiringWithin(now, window time.Duration) []int {
	soon := t.soon[:0]
	for k := range t.navs {
		if t.navs[k].Busy(now) && t.navs[k].Expiry() <= now+window {
			soon = append(soon, k)
		}
	}
	t.soon = soon
	return soon
}

// ByExpiry returns the given antennas ordered by NAV expiry (earliest
// first, ties by index) — the order MIDAS considers antennas for client
// selection (§3.2.5). antennas itself is not reordered.
func (t *Table) ByExpiry(antennas []int) []int {
	out := append(t.order[:0], antennas...)
	t.order = out
	// insertion sort: antenna counts are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if t.navs[a].Expiry() > t.navs[b].Expiry() ||
				(t.navs[a].Expiry() == t.navs[b].Expiry() && a > b) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}
