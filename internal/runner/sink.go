package runner

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/stats"
)

// This file defines the structured result model experiments report into
// and the pluggable sinks that serialize it: TextSink prints
// human-readable CDF tables, JSONSink emits a machine-readable snapshot
// (what midas-serve serves and the golden suite records), and CSVSink
// flattens every series and metric into spreadsheet-friendly rows.

// Series is one plotted curve: a labelled set of observations (a CDF's
// sample values, or per-topology points).
type Series struct {
	Label  string    `json:"label"`
	Unit   string    `json:"unit,omitempty"`
	Values []float64 `json:"values"`
}

// SampleSeries converts a stats.Sample into a Series. Values are sorted
// ascending (CDF order); the sample's internal slice is copied.
func SampleSeries(label, unit string, s *stats.Sample) Series {
	return Series{Label: label, Unit: unit, Values: append([]float64(nil), s.Values()...)}
}

// Metric is one scalar result (a median, a gain, a count), with an
// optional note tying it back to the paper's reported number.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	Note  string  `json:"note,omitempty"` // e.g. "paper: ≈200%"
}

// Summary is one replicate-aggregated statistic: the mean of a value
// across N independent replicate runs, its sample standard deviation,
// and the half-width of the two-sided 95% Student-t confidence interval
// on the mean (the true mean lies in Mean ± CI95 at 95% confidence,
// assuming independent replicates).
type Summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	CI95   float64 `json:"ci95"`
	N      int     `json:"n"`
}

// SummaryOf converts a streaming accumulator into a Summary.
func SummaryOf(name, unit string, s *stats.Summary) Summary {
	return Summary{Name: name, Unit: unit, Mean: s.Mean(), Stddev: s.Std(), CI95: s.CI95(), N: s.N()}
}

// Result is everything one experiment produced. Summaries is populated
// only by replicated runs, so single-replicate output (the golden
// suite's format) marshals unchanged.
type Result struct {
	Name      string    `json:"name"`
	Seconds   float64   `json:"seconds"` // wall time of the experiment
	Series    []Series  `json:"series,omitempty"`
	Metrics   []Metric  `json:"metrics,omitempty"`
	Summaries []Summary `json:"summaries,omitempty"`
	Text      []string  `json:"text,omitempty"` // free-form lines (maps, tables)
}

// AddSeries appends a curve built from a sample.
func (r *Result) AddSeries(label, unit string, s *stats.Sample) {
	r.Series = append(r.Series, SampleSeries(label, unit, s))
}

// AddMetric appends a scalar result.
func (r *Result) AddMetric(name string, value float64, unit, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Note: note})
}

// AddText appends a free-form output line.
func (r *Result) AddText(format string, args ...any) {
	r.Text = append(r.Text, fmt.Sprintf(format, args...))
}

// Meta records how a snapshot was produced. Replicates is recorded
// only when replication was requested (it is 0, omitted, otherwise).
type Meta struct {
	Tool        string `json:"tool"`
	Seed        int64  `json:"seed"`
	Topologies  int    `json:"topologies,omitempty"`
	Parallelism int    `json:"parallelism"`
	SimTime     string `json:"simtime,omitempty"`
	Replicates  int    `json:"replicates,omitempty"`
}

// Snapshot is a full run: metadata plus every experiment's Result.
type Snapshot struct {
	Meta    Meta     `json:"meta"`
	Results []Result `json:"results"`
}

// Sink consumes experiment results one at a time. Begin is called once
// before any Result, Close once after the last; Close flushes formats
// that buffer (JSON).
type Sink interface {
	Begin(Meta) error
	Result(Result) error
	Close() error
}

// NewSink returns the sink that renders results to w in the named
// format — the one switch the CLIs and the serving layer share, so a
// new format (or a changed error message) lands everywhere at once.
// Formats: "text", "json", "csv".
func NewSink(format string, w io.Writer) (Sink, error) {
	switch format {
	case "text":
		return &TextSink{W: w}, nil
	case "json":
		return &JSONSink{W: w}, nil
	case "csv":
		return &CSVSink{W: w}, nil
	default:
		return nil, fmt.Errorf("runner: unknown format %q (want text, json or csv)", format)
	}
}

// RenderJSON renders one meta block and result set as the canonical
// indented Snapshot JSON — what `-format json` writes and what
// midas-serve serves from its result cache. Rendering carries no
// wall-clock state, so the same inputs always produce the same bytes.
func RenderJSON(meta Meta, results ...Result) ([]byte, error) {
	var buf bytes.Buffer
	sink := &JSONSink{W: &buf}
	if err := sink.Begin(meta); err != nil {
		return nil, err
	}
	for _, r := range results {
		if err := sink.Result(r); err != nil {
			return nil, err
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TextSink renders results as a human-readable report: "===="
// experiment banners, CDF tables downsampled to textPoints rows for each
// series, labelled scalar lines.
type TextSink struct {
	W io.Writer
}

// textPoints is the number of rows TextSink prints per CDF.
const textPoints = 20

// Begin implements Sink.
func (t *TextSink) Begin(Meta) error { return nil }

// Result implements Sink.
func (t *TextSink) Result(r Result) error {
	if _, err := fmt.Fprintf(t.W, "==== %s ====\n", r.Name); err != nil {
		return err
	}
	for _, s := range r.Series {
		sample := stats.NewSample(s.Values...)
		med, _ := sample.Median()
		label := s.Label
		if s.Unit != "" {
			label += " (" + s.Unit + ")"
		}
		fmt.Fprintf(t.W, "-- %s (n=%d, median %.2f)\n", label, sample.N(), med)
		fmt.Fprint(t.W, sample.ECDF().Table(textPoints))
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(t.W, "%s: %s", m.Name, formatMetric(m.Value))
		if m.Unit != "" {
			fmt.Fprintf(t.W, " %s", m.Unit)
		}
		if m.Note != "" {
			fmt.Fprintf(t.W, " (%s)", m.Note)
		}
		fmt.Fprintln(t.W)
	}
	for _, s := range r.Summaries {
		fmt.Fprintf(t.W, "%s: %s ± %s", s.Name, formatMetric(s.Mean), formatMetric(s.CI95))
		if s.Unit != "" {
			fmt.Fprintf(t.W, " %s", s.Unit)
		}
		fmt.Fprintf(t.W, " (95%% CI, n=%d, std %s)\n", s.N, formatMetric(s.Stddev))
	}
	for _, line := range r.Text {
		fmt.Fprintln(t.W, line)
	}
	_, err := fmt.Fprintln(t.W)
	return err
}

// Close implements Sink.
func (t *TextSink) Close() error { return nil }

// formatMetric renders counts as plain integers (12710, never
// 1.271e+04) and everything else with four significant digits.
func formatMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// JSONSink buffers the whole run and writes one indented Snapshot on
// Close.
type JSONSink struct {
	W    io.Writer
	snap Snapshot
}

// Begin implements Sink.
func (j *JSONSink) Begin(m Meta) error {
	j.snap.Meta = m
	j.snap.Results = nil
	return nil
}

// Result implements Sink.
func (j *JSONSink) Result(r Result) error {
	j.snap.Results = append(j.snap.Results, r)
	return nil
}

// Close implements Sink.
func (j *JSONSink) Close() error {
	enc := json.NewEncoder(j.W)
	enc.SetIndent("", "  ")
	return enc.Encode(j.snap)
}

// CSVSink streams every series point and metric as one flat table:
//
//	experiment,kind,label,index,value,unit,note
//
// Series rows have kind "series" and ascending per-series indices;
// metric rows have kind "metric" and index 0. Each replicate summary
// flattens to four rows — kinds "summary-mean", "summary-stddev",
// "summary-ci95" and "summary-n" — sharing the summary's name as their
// label. Free-form text lines are omitted (they are presentation, not
// data).
type CSVSink struct {
	W  io.Writer
	cw *csv.Writer
}

// Begin implements Sink.
func (c *CSVSink) Begin(Meta) error {
	c.cw = csv.NewWriter(c.W)
	return c.cw.Write([]string{"experiment", "kind", "label", "index", "value", "unit", "note"})
}

// Result implements Sink.
func (c *CSVSink) Result(r Result) error {
	fmtF := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Series {
		for i, v := range s.Values {
			if err := c.cw.Write([]string{r.Name, "series", s.Label, strconv.Itoa(i), fmtF(v), s.Unit, ""}); err != nil {
				return err
			}
		}
	}
	for _, m := range r.Metrics {
		if err := c.cw.Write([]string{r.Name, "metric", m.Name, "0", fmtF(m.Value), m.Unit, m.Note}); err != nil {
			return err
		}
	}
	for _, s := range r.Summaries {
		for _, row := range []struct {
			kind string
			v    float64
		}{
			{"summary-mean", s.Mean},
			{"summary-stddev", s.Stddev},
			{"summary-ci95", s.CI95},
			{"summary-n", float64(s.N)},
		} {
			if err := c.cw.Write([]string{r.Name, row.kind, s.Name, "0", fmtF(row.v), s.Unit, ""}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements Sink.
func (c *CSVSink) Close() error {
	c.cw.Flush()
	return c.cw.Error()
}
