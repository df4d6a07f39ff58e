// Package scenario makes the MIDAS evaluation declarative: every
// experiment of the paper (Figures 3–16, the hidden-terminal study, the
// ablations) plus the beyond-paper workloads is registered behind one
// interface and driven by a JSON Spec instead of hard-coded Go. Specs
// carry venue dimensions, antenna/client counts, shadowing parameters,
// seeds, replicate counts and parallelism; sweeps expand to a
// cross-product of runs dispatched through internal/runner. The
// committed golden suite (testdata/golden) pins every registered
// scenario's output byte-for-byte at parallelism 1 and 8.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"
)

// Duration marshals as a Go duration string ("300ms"), so spec files
// stay human-readable. time.Duration.String round-trips losslessly
// through time.ParseDuration.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: simtime must be a duration string like \"300ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Venue overrides the physical deployment geometry. Zero fields keep
// the scenario's defaults.
type Venue struct {
	// Width and Height set the large-scale deployment region in metres
	// (paper: 52×52). Both must be set together.
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	// APs overrides the large-scale AP count (paper: 8).
	APs int `json:"aps,omitempty"`
	// CoverageRadius overrides the per-AP coverage radius in metres.
	CoverageRadius float64 `json:"coverage_radius,omitempty"`
}

// Shadowing overrides the channel's obstruction and fading parameters.
// Nil fields keep the scenario's environment defaults; explicit zeros
// are honoured (a sigma of 0 disables shadowing).
type Shadowing struct {
	SigmaDB        *float64 `json:"sigma_db,omitempty"`
	CASCorrelation *float64 `json:"cas_correlation,omitempty"`
	WallDB         *float64 `json:"wall_db,omitempty"`
	MaxWallDB      *float64 `json:"max_wall_db,omitempty"`
	RoomW          *float64 `json:"room_w,omitempty"`
	RoomH          *float64 `json:"room_h,omitempty"`
}

// Spec is the declarative description of one scenario run. Zero fields
// inherit the scenario's DefaultSpec via Merge, so a spec file only
// states what it changes.
type Spec struct {
	// Scenario optionally names the registered scenario this spec
	// targets, making spec files self-describing (midas-sim -spec
	// file.json needs no -scenario flag then).
	Scenario string `json:"scenario,omitempty"`
	// Topologies is the number of independent random topologies (or
	// deployments) the experiment averages over.
	Topologies int `json:"topologies,omitempty"`
	// Seed is the root random seed. Replicate 0 runs it directly;
	// replicate r >= 1 derives a decorrelated seed from it via
	// rng.Source.Split (see replicateSpecs).
	Seed int64 `json:"seed,omitempty"`
	// SimTime is the simulated airtime of each end-to-end run.
	SimTime Duration `json:"simtime,omitempty"`
	// Antennas and Clients are per-AP counts.
	Antennas int `json:"antennas,omitempty"`
	Clients  int `json:"clients,omitempty"`
	// Replicates repeats every sweep point over split seeds; the engine
	// merges the N results into per-metric {mean, stddev, ci95, n}
	// summaries instead of reporting each replicate individually.
	// Replicates 1 (the default) is byte-identical to an unreplicated
	// run.
	Replicates int `json:"replicates,omitempty"`
	// Parallelism bounds how many expanded runs (sweep points ×
	// replicates) execute concurrently; 0 selects GOMAXPROCS. Results
	// never depend on it.
	Parallelism int        `json:"parallelism,omitempty"`
	Venue       *Venue     `json:"venue,omitempty"`
	Shadowing   *Shadowing `json:"shadowing,omitempty"`
	// Sweep expands the spec into the cross-product of the listed
	// values, e.g. {"clients": [2,4,8]}. Keys: clients, antennas, size
	// (sets antennas and clients together), topologies, seed, aps.
	Sweep map[string][]float64 `json:"sweep,omitempty"`
}

// MarshalJSON keeps an empty, non-nil Sweep — the override that
// cancels a default sweep (see Merge) — which the omitempty tag would
// drop, so a spec survives a JSON round trip (a journaled spec is
// re-resolved on resume). Every other spec encodes exactly as the
// struct tags say.
func (s Spec) MarshalJSON() ([]byte, error) {
	type plain Spec
	if s.Sweep == nil || len(s.Sweep) > 0 {
		return json.Marshal(plain(s))
	}
	return json.Marshal(struct {
		plain
		Sweep map[string][]float64 `json:"sweep"`
	}{plain(s), s.Sweep})
}

// Upper bounds on the counts a spec may ask for, scalar or swept. A
// spec can arrive over the network (midas-serve), and without them one
// huge count sizes an allocation the process cannot make. Every
// committed spec, test and script sits inside them; the largest,
// cluster-e2e's full scale, runs 16,384 topologies.
const (
	maxTopologies = 1 << 16
	maxAntennas   = 16 // per AP; 802.11ac carries at most 8 spatial streams
	maxClients    = 64 // per AP
	maxAPs        = 64 // venue APs
)

// maxSweptValue is the largest magnitude a swept seed may have:
// 2^53-1, the largest below which a float64 holds every integer
// exactly.
const maxSweptValue = 1<<53 - 1

type sweepKey struct {
	max float64
	set func(*Spec, float64)
}

// sweepKeys are the spec fields a sweep may vary, with the largest
// magnitude a swept value may have and its setter.
var sweepKeys = map[string]sweepKey{
	"clients":    {maxClients, func(s *Spec, v float64) { s.Clients = int(v) }},
	"antennas":   {maxAntennas, func(s *Spec, v float64) { s.Antennas = int(v) }},
	"size":       {min(maxAntennas, maxClients), func(s *Spec, v float64) { s.Antennas = int(v); s.Clients = int(v) }},
	"topologies": {maxTopologies, func(s *Spec, v float64) { s.Topologies = int(v) }},
	"seed":       {maxSweptValue, func(s *Spec, v float64) { s.Seed = int64(v) }},
	"aps":        {maxAPs, func(s *Spec, v float64) { ensureVenue(s).APs = int(v) }},
}

// maxExpandedRuns bounds a sweep × replicate expansion; anything larger
// is almost certainly a typo'd spec.
const maxExpandedRuns = 256

func ensureVenue(s *Spec) *Venue {
	if s.Venue == nil {
		s.Venue = &Venue{}
	}
	return s.Venue
}

// DecodeSpec parses a spec from JSON, rejecting unknown fields so a
// misspelled knob fails loudly instead of silently running defaults.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	// A spec file is one object; trailing junk is an error.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec object")
	}
	return s, nil
}

// LoadSpec reads and decodes a spec file.
func LoadSpec(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeSpec(bytes.NewReader(b))
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Merge overlays o on s: every zero/nil field of o inherits s's value.
// A non-nil o.Sweep replaces s's sweep wholesale (set to an empty map
// to cancel a default sweep); Venue and Shadowing merge field-wise.
func (s Spec) Merge(o Spec) Spec {
	out := s.clone()
	if o.Scenario != "" {
		out.Scenario = o.Scenario
	}
	if o.Topologies != 0 {
		out.Topologies = o.Topologies
	}
	if o.Seed != 0 {
		out.Seed = o.Seed
	}
	if o.SimTime != 0 {
		out.SimTime = o.SimTime
	}
	if o.Antennas != 0 {
		out.Antennas = o.Antennas
	}
	if o.Clients != 0 {
		out.Clients = o.Clients
	}
	if o.Replicates != 0 {
		out.Replicates = o.Replicates
	}
	if o.Parallelism != 0 {
		out.Parallelism = o.Parallelism
	}
	if o.Venue != nil {
		v := *o.Venue
		if out.Venue != nil {
			base := *out.Venue
			if v.Width == 0 {
				v.Width = base.Width
			}
			if v.Height == 0 {
				v.Height = base.Height
			}
			if v.APs == 0 {
				v.APs = base.APs
			}
			if v.CoverageRadius == 0 {
				v.CoverageRadius = base.CoverageRadius
			}
		}
		out.Venue = &v
	}
	if o.Shadowing != nil {
		sh := *o.Shadowing
		if out.Shadowing != nil {
			base := *out.Shadowing
			if sh.SigmaDB == nil {
				sh.SigmaDB = base.SigmaDB
			}
			if sh.CASCorrelation == nil {
				sh.CASCorrelation = base.CASCorrelation
			}
			if sh.WallDB == nil {
				sh.WallDB = base.WallDB
			}
			if sh.MaxWallDB == nil {
				sh.MaxWallDB = base.MaxWallDB
			}
			if sh.RoomW == nil {
				sh.RoomW = base.RoomW
			}
			if sh.RoomH == nil {
				sh.RoomH = base.RoomH
			}
		}
		out.Shadowing = sh.clone()
	}
	if o.Sweep != nil {
		out.Sweep = cloneSweep(o.Sweep)
	}
	return out
}

// clone returns a deep copy (the pointer-valued members are copied, not
// shared), so callers can mutate the result freely.
func (s Spec) clone() Spec {
	out := s
	if s.Venue != nil {
		v := *s.Venue
		out.Venue = &v
	}
	if s.Shadowing != nil {
		out.Shadowing = s.Shadowing.clone()
	}
	out.Sweep = cloneSweep(s.Sweep)
	return out
}

// clone deep-copies the override set, including the pointed-to values.
func (sh Shadowing) clone() *Shadowing {
	out := sh
	out.SigmaDB = copyFloat(sh.SigmaDB)
	out.CASCorrelation = copyFloat(sh.CASCorrelation)
	out.WallDB = copyFloat(sh.WallDB)
	out.MaxWallDB = copyFloat(sh.MaxWallDB)
	out.RoomW = copyFloat(sh.RoomW)
	out.RoomH = copyFloat(sh.RoomH)
	return &out
}

func copyFloat(p *float64) *float64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

func cloneSweep(m map[string][]float64) map[string][]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string][]float64, len(m))
	for k, v := range m {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// Validate rejects specs that would panic or silently misbehave
// downstream. It is called on the merged spec, after scenario defaults
// are applied.
func (s Spec) Validate() error {
	if s.Topologies < 1 || s.Topologies > maxTopologies {
		return fmt.Errorf("scenario: topologies must be in 1..%d (got %d)", maxTopologies, s.Topologies)
	}
	if s.Antennas < 1 || s.Antennas > maxAntennas {
		return fmt.Errorf("scenario: antennas must be in 1..%d per AP (got %d)", maxAntennas, s.Antennas)
	}
	if s.Clients < 1 || s.Clients > maxClients {
		return fmt.Errorf("scenario: clients must be in 1..%d per AP (got %d)", maxClients, s.Clients)
	}
	if s.Replicates < 1 {
		return fmt.Errorf("scenario: replicates must be >= 1 (got %d)", s.Replicates)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("scenario: parallelism must be >= 0 (got %d)", s.Parallelism)
	}
	if s.SimTime < 0 {
		return fmt.Errorf("scenario: simtime must be positive (got %v)", time.Duration(s.SimTime))
	}
	if v := s.Venue; v != nil {
		if v.Width < 0 || v.Height < 0 {
			return fmt.Errorf("scenario: venue dimensions must be positive (got %g×%g m)", v.Width, v.Height)
		}
		if (v.Width == 0) != (v.Height == 0) {
			return fmt.Errorf("scenario: venue width and height must be set together (got %g×%g m)", v.Width, v.Height)
		}
		if v.APs < 0 || v.APs > maxAPs {
			return fmt.Errorf("scenario: venue aps must be in 1..%d (got %d)", maxAPs, v.APs)
		}
		if v.CoverageRadius < 0 {
			return fmt.Errorf("scenario: coverage_radius must be positive (got %g m)", v.CoverageRadius)
		}
	}
	if sh := s.Shadowing; sh != nil {
		if sh.SigmaDB != nil && (*sh.SigmaDB < 0 || !isFinite(*sh.SigmaDB)) {
			return fmt.Errorf("scenario: shadowing sigma_db must be >= 0 (got %g)", *sh.SigmaDB)
		}
		if sh.CASCorrelation != nil && (*sh.CASCorrelation < 0 || *sh.CASCorrelation >= 1 || !isFinite(*sh.CASCorrelation)) {
			return fmt.Errorf("scenario: cas_correlation must be in [0,1) (got %g)", *sh.CASCorrelation)
		}
		if sh.WallDB != nil && (*sh.WallDB < 0 || !isFinite(*sh.WallDB)) {
			return fmt.Errorf("scenario: wall_db must be >= 0 (got %g)", *sh.WallDB)
		}
		if sh.MaxWallDB != nil && (*sh.MaxWallDB < 0 || !isFinite(*sh.MaxWallDB)) {
			return fmt.Errorf("scenario: max_wall_db must be >= 0 (got %g)", *sh.MaxWallDB)
		}
		if sh.RoomW != nil && (*sh.RoomW <= 0 || !isFinite(*sh.RoomW)) {
			return fmt.Errorf("scenario: room_w must be > 0 (got %g)", *sh.RoomW)
		}
		if sh.RoomH != nil && (*sh.RoomH <= 0 || !isFinite(*sh.RoomH)) {
			return fmt.Errorf("scenario: room_h must be > 0 (got %g)", *sh.RoomH)
		}
	}
	total := 1
	for key, vals := range s.Sweep {
		sk, ok := sweepKeys[key]
		if !ok {
			return fmt.Errorf("scenario: unknown sweep key %q (want one of %s)", key, strings.Join(sweepKeyNames(), ", "))
		}
		if len(vals) == 0 {
			return fmt.Errorf("scenario: sweep %q has no values", key)
		}
		seen := make(map[float64]bool, len(vals))
		for _, v := range vals {
			if !isFinite(v) {
				return fmt.Errorf("scenario: sweep %q value %g is not finite", key, v)
			}
			if v != math.Trunc(v) {
				return fmt.Errorf("scenario: sweep %q value %g must be an integer", key, v)
			}
			if key != "seed" && v < 1 {
				return fmt.Errorf("scenario: sweep %q value %g must be >= 1", key, v)
			}
			// A swept seed obeys the scalar seed's rule that 0 means
			// "inherit".
			if key == "seed" && v == 0 {
				return fmt.Errorf("scenario: sweep \"seed\" value 0 cannot be expressed (0 means \"inherit\"); pick a nonzero seed")
			}
			// A count obeys its scalar bound. A seed past 2^53-1 may not
			// be the value written, since a float64 no longer holds every
			// integer there.
			if math.Abs(v) > sk.max {
				return fmt.Errorf("scenario: sweep %q value %g is out of range (|value| <= %d)", key, v, int64(sk.max))
			}
			if seen[v] {
				// Duplicates would expand to indistinguishable points with
				// identical labels; the sweep cross-product contract says
				// every point is unique.
				return fmt.Errorf("scenario: sweep %q lists value %g twice", key, v)
			}
			seen[v] = true
		}
		total *= len(vals)
		// Bail as soon as the running product exceeds the cap: the
		// full cross-product of many long value lists overflows int
		// (wrapping past the cap check), and specs arrive from the
		// network now (midas-serve), not just hand-written files.
		if total > maxExpandedRuns {
			return fmt.Errorf("scenario: sweep expands past the max of %d points", maxExpandedRuns)
		}
	}
	// Division instead of total*s.Replicates: the product can overflow.
	if s.Replicates > maxExpandedRuns/total {
		return fmt.Errorf("scenario: sweep × replicates (%d points × %d) expands past the max of %d runs", total, s.Replicates, maxExpandedRuns)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Knob names a group of spec fields a scenario may declare it does not
// use (see scenarioFunc.ignores): overriding an ignored knob is an
// error, not a silent no-op.
const (
	KnobClients   = "clients"
	KnobAntennas  = "antennas"
	KnobShadowing = "shadowing"
	KnobCoverage  = "coverage_radius"
	KnobRegion    = "venue region" // venue width/height/aps
)

func (s Spec) sweepHas(key string) bool {
	_, ok := s.Sweep[key]
	return ok
}

// scalarOverrides reports whether this override spec sets, as a plain
// scalar, the field(s) the named sweep key controls — the case where an
// inherited default sweep must yield to the explicit value.
func (s Spec) scalarOverrides(key string) bool {
	switch key {
	case "clients":
		return s.Clients != 0
	case "antennas":
		return s.Antennas != 0
	case "size":
		return s.Antennas != 0 || s.Clients != 0
	case "topologies":
		return s.Topologies != 0
	case "seed":
		return s.Seed != 0
	case "aps":
		return s.Venue != nil && s.Venue.APs != 0
	}
	return false
}

// changesKnob reports whether this override spec would move the named
// knob away from the scenario defaults d, directly or through a sweep.
// Re-submitting a default value is not a change, so a fully resolved
// spec (as the golden suite replays) always passes.
func (o Spec) changesKnob(d Spec, knob string) bool {
	coverage := func(v *Venue) float64 {
		if v == nil {
			return 0
		}
		return v.CoverageRadius
	}
	switch knob {
	case KnobClients:
		return (o.Clients != 0 && o.Clients != d.Clients) || o.sweepHas("clients") || o.sweepHas("size")
	case KnobAntennas:
		return (o.Antennas != 0 && o.Antennas != d.Antennas) || o.sweepHas("antennas") || o.sweepHas("size")
	case KnobShadowing:
		return o.Shadowing != nil && !reflect.DeepEqual(o.Shadowing, d.Shadowing)
	case KnobCoverage:
		oc := coverage(o.Venue)
		return oc != 0 && oc != coverage(d.Venue)
	case KnobRegion:
		if o.sweepHas("aps") {
			return true
		}
		if o.Venue == nil {
			return false
		}
		var dv Venue
		if d.Venue != nil {
			dv = *d.Venue
		}
		return (o.Venue.Width != 0 && o.Venue.Width != dv.Width) ||
			(o.Venue.Height != 0 && o.Venue.Height != dv.Height) ||
			(o.Venue.APs != 0 && o.Venue.APs != dv.APs)
	}
	return false
}

func sweepKeyNames() []string {
	names := make([]string, 0, len(sweepKeys))
	for k := range sweepKeys {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// run is one expanded point of a spec: a concrete Spec (no sweep, one
// replicate) plus the label the engine prefixes its results with.
type run struct {
	Label string
	Spec  Spec
}

// ExpandedRuns returns how many concrete runs this spec expands to
// (sweep cross-product × replicates) — what the engine dispatches
// through the worker pool.
func (s Spec) ExpandedRuns() int {
	n := 1
	for _, vals := range s.Sweep {
		n *= len(vals)
	}
	if s.Replicates > 1 {
		n *= s.Replicates
	}
	return n
}

// expand unrolls the sweep cross-product (keys in sorted order, values
// in listed order) into concrete sweep points. Contract (pinned by
// TestSweepExpansionProperties): the point count equals the
// cross-product of the value-list lengths, labels are unique, and the
// expansion order is deterministic. Replicates are NOT unrolled here —
// the engine fans each point into Replicates runs with split-derived
// seeds (replicateSpecs) and merges them back into one summarized
// result, so a sweep point is the unit of reporting. A spec with no
// sweep expands to a single unlabelled point.
func (s Spec) expand() []run {
	keys := make([]string, 0, len(s.Sweep))
	for k := range s.Sweep {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	points := []run{{Spec: s.clone()}}
	for _, key := range keys {
		set := sweepKeys[key].set
		next := make([]run, 0, len(points)*len(s.Sweep[key]))
		for _, p := range points {
			for _, v := range s.Sweep[key] {
				q := p.Spec.clone()
				set(&q, v)
				label := fmt.Sprintf("%s=%g", key, v)
				if p.Label != "" {
					label = p.Label + "," + label
				}
				next = append(next, run{Label: label, Spec: q})
			}
		}
		points = next
	}

	for i := range points {
		points[i].Spec.Sweep = nil
	}
	return points
}
