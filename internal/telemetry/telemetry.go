// Package telemetry is the zero-dependency metrics layer for the MIDAS
// serving stack: counters, gauges and fixed-bucket histograms that a
// Registry renders in the Prometheus text exposition format (version
// 0.0.4), so any Prometheus-compatible scraper can consume
// midas-serve's /metrics without the repo importing a client library.
//
// A histogram's upper bounds are fixed when it is created, with one
// counter per bucket, so memory per series is constant however many
// observations arrive. Latency histograms bucket exponentially over an
// open range and leave quantile estimation to the scraper: a
// distribution summarized into fixed buckets is mergeable and
// memory-bounded, which is what lets a scrape (or a fleet of them)
// aggregate safely.
//
// Metrics are identified by name plus an ordered label set. The *Vec
// types key a family by label values; the plain types are the
// zero-label case. All instruments are safe for concurrent use; Observe
// and Add are lock-free on the hot path (atomics), Render takes a
// snapshot under the registry lock.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can render: one family's # HELP /
// # TYPE header plus its sample lines.
type metric interface {
	name() string
	help() string
	typ() string
	// samples appends exposition lines (without trailing newline) for
	// every series of the family, label-sorted, to dst.
	samples(dst []string) []string
}

// Registry holds a set of metric families and renders them as
// Prometheus text exposition. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]metric
	order    []string // registration order is irrelevant; render sorts
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]metric)}
}

// register adds a family, panicking on a duplicate name: two
// instruments fighting over one family is a programming error, caught
// at construction (all registration happens at startup).
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[m.name()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name()))
	}
	r.families[m.name()] = m
	r.order = append(r.order, m.name())
}

// Render writes the whole registry in Prometheus text exposition
// format (families sorted by name, series sorted by label values).
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name(), escapeHelp(m.help()))
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name(), m.typ())
		for _, line := range m.samples(nil) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition spec.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders `{k1="v1",k2="v2"}` (empty string for no labels).
// extra, when non-empty, is appended as a pre-rendered pair (the
// histogram's le label).
func labelPairs(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether s is a legal metric or label name
// ([a-zA-Z_][a-zA-Z0-9_]*; metric names additionally allow ':', which
// this layer does not use).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func mustValidNames(metricName string, labels []string) {
	if !validName(metricName) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", metricName))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, metricName))
		}
	}
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing value. Add with a negative
// delta panics — a decreasing counter corrupts every rate() computed
// over it.
type Counter struct {
	bits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Add increments the counter by v (v >= 0).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("telemetry: counter decrement %v", v))
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// counterFamily is the registered form: a fixed label-name set mapping
// label values to Counter cells.
type counterFamily struct {
	fname, fhelp string
	labels       []string
	mu           sync.Mutex
	cells        map[string]*Counter // key: joined label values
	keys         map[string][]string // key -> label values
}

func (f *counterFamily) name() string { return f.fname }
func (f *counterFamily) help() string { return f.fhelp }
func (f *counterFamily) typ() string  { return "counter" }

func (f *counterFamily) samples(dst []string) []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels string
		val    float64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{labelPairs(f.labels, f.keys[k], ""), f.cells[k].Value()})
	}
	f.mu.Unlock()
	for _, r := range rows {
		dst = append(dst, f.fname+r.labels+" "+formatFloat(r.val))
	}
	return dst
}

// with returns (creating on first use) the cell for the given values.
func (f *counterFamily) with(values []string) *Counter {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.fname, len(f.labels), len(values)))
	}
	key := joinKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.cells[key]
	if !ok {
		c = &Counter{}
		f.cells[key] = c
		f.keys[key] = append([]string(nil), values...)
	}
	return c
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *counterFamily }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	mustValidNames(name, labels)
	f := &counterFamily{fname: name, fhelp: help, labels: labels,
		cells: make(map[string]*Counter), keys: make(map[string][]string)}
	r.register(f)
	return &CounterVec{f: f}
}

// With returns the counter cell for the given label values, creating it
// at zero on first use (so a series exists, and renders, before its
// first increment only if touched).
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values) }

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	vec := r.NewCounterVec(name, help)
	return vec.With()
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFamily is a callback family: its samples come from one call of
// fn at render time.
type gaugeFamily struct {
	fname, fhelp string
	// ftyp is the exposition TYPE line: "gauge", or "counter" for a
	// NewCounterFunc family that samples an externally owned
	// monotonic value at scrape time.
	ftyp   string
	labels []string
	fn     func() []GaugeSample
}

// GaugeSample is one series a GaugeFunc reports at scrape time.
type GaugeSample struct {
	LabelValues []string
	Value       float64
}

func (f *gaugeFamily) name() string { return f.fname }
func (f *gaugeFamily) help() string { return f.fhelp }
func (f *gaugeFamily) typ() string  { return f.ftyp }

func (f *gaugeFamily) samples(dst []string) []string {
	ss := f.fn()
	sort.Slice(ss, func(i, j int) bool { return joinKey(ss[i].LabelValues) < joinKey(ss[j].LabelValues) })
	for _, s := range ss {
		if len(s.LabelValues) != len(f.labels) {
			panic(fmt.Sprintf("telemetry: %s callback returned %d label values, want %d", f.fname, len(s.LabelValues), len(f.labels)))
		}
		dst = append(dst, f.fname+labelPairs(f.labels, s.LabelValues, "")+" "+formatFloat(s.Value))
	}
	return dst
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.NewGaugeFunc(name, help, nil, func() []GaugeSample {
		return []GaugeSample{{Value: g.Value()}}
	})
	return g
}

// NewGaugeFunc registers a gauge family whose series are produced by fn
// at every scrape — for values that already live elsewhere (queue
// depth, jobs by state) and would otherwise need write-through
// mirroring on every transition. fn must be safe to call concurrently
// with anything.
func (r *Registry) NewGaugeFunc(name, help string, labels []string, fn func() []GaugeSample) {
	mustValidNames(name, labels)
	r.register(&gaugeFamily{fname: name, fhelp: help, ftyp: "gauge", labels: labels, fn: fn})
}

// NewCounterFunc registers a counter family whose series are sampled by
// fn at every scrape — for cumulative counts that an existing subsystem
// already tracks (the store's hit/write/eviction tallies) and that
// would otherwise need write-through mirroring on every operation. The
// values fn reports must be monotonically non-decreasing over the
// process lifetime; fn must be safe to call concurrently with anything.
func (r *Registry) NewCounterFunc(name, help string, labels []string, fn func() []GaugeSample) {
	mustValidNames(name, labels)
	r.register(&gaugeFamily{fname: name, fhelp: help, ftyp: "counter", labels: labels, fn: fn})
}

// ---------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed cumulative buckets with
// Prometheus bucket semantics: bucket i counts observations <=
// Upper[i], an implicit +Inf bucket counts everything, and the sum of
// observations rides along so scrapers can derive a mean. Memory is
// constant per series.
type Histogram struct {
	upper  []float64 // sorted upper bounds, no +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64 // observations above the last bound
	sum    atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value. NaN observations panic: they would poison
// the sum silently (the stats package rejects them for the same
// reason).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		panic("telemetry: histogram Observe(NaN)")
	}
	// Binary search for the first bound >= v: le-buckets are inclusive
	// above, so a value exactly on a boundary lands in that boundary's
	// bucket.
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

type histogramFamily struct {
	fname, fhelp string
	labels       []string
	upper        []float64
	mu           sync.Mutex
	cells        map[string]*Histogram
	keys         map[string][]string
}

func (f *histogramFamily) name() string { return f.fname }
func (f *histogramFamily) help() string { return f.fhelp }
func (f *histogramFamily) typ() string  { return "histogram" }

func (f *histogramFamily) samples(dst []string) []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		values []string
		h      *Histogram
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{f.keys[k], f.cells[k]})
	}
	f.mu.Unlock()

	for _, r := range rows {
		// Cumulative counts: each le-bucket includes every bucket below
		// it. The loads are not atomic as a set — a scrape racing an
		// Observe may see the observation in _count but not yet in a
		// bucket (or vice versa); Prometheus tolerates that, monotone
		// rates smooth it out.
		var cum uint64
		for i, ub := range r.h.upper {
			cum += r.h.counts[i].Load()
			le := `le="` + formatFloat(ub) + `"`
			dst = append(dst, f.fname+"_bucket"+labelPairs(f.labels, r.values, le)+" "+strconv.FormatUint(cum, 10))
		}
		cum += r.h.inf.Load()
		dst = append(dst, f.fname+"_bucket"+labelPairs(f.labels, r.values, `le="+Inf"`)+" "+strconv.FormatUint(cum, 10))
		dst = append(dst, f.fname+"_sum"+labelPairs(f.labels, r.values, "")+" "+formatFloat(r.h.Sum()))
		dst = append(dst, f.fname+"_count"+labelPairs(f.labels, r.values, "")+" "+strconv.FormatUint(cum, 10))
	}
	return dst
}

func (f *histogramFamily) with(values []string) *Histogram {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.fname, len(f.labels), len(values)))
	}
	key := joinKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.cells[key]
	if !ok {
		h = &Histogram{upper: f.upper, counts: make([]atomic.Uint64, len(f.upper))}
		f.cells[key] = h
		f.keys[key] = append([]string(nil), values...)
	}
	return h
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *histogramFamily }

// NewHistogramVec registers a labelled histogram family over the given
// bucket upper bounds (sorted ascending, finite, non-empty; a trailing
// +Inf is implicit and must not be passed).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	mustValidNames(name, labels)
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: %s: empty bucket list", name))
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: %s: bucket %v is not finite (the +Inf bucket is implicit)", name, b))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: %s: buckets not strictly increasing at %v", name, b))
		}
	}
	f := &histogramFamily{fname: name, fhelp: help, labels: labels,
		upper: append([]float64(nil), buckets...),
		cells: make(map[string]*Histogram), keys: make(map[string][]string)}
	r.register(f)
	return &HistogramVec{f: f}
}

// With returns the histogram cell for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values) }

// NewHistogram registers an unlabelled histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.NewHistogramVec(name, help, buckets).With()
}

// ExponentialBuckets returns n upper bounds start, start*factor, …, the
// standard shape for latency histograms (spans decades in few buckets).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// joinKey builds a map key from label values. \xff cannot appear in the
// middle of a UTF-8 rune, so the join is unambiguous.
func joinKey(values []string) string { return strings.Join(values, "\xff") }
