package runner

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stats"
)

func demoResult() Result {
	r := Result{Name: "fig0-demo", Seconds: 0.25}
	r.AddSeries("CAS capacity", "bit/s/Hz", stats.NewSample(3, 1, 2))
	r.AddMetric("median gain", 42.5, "%", "paper: ≈40%")
	r.AddMetric("spots measured", 12710, "", "")
	r.AddText("map row: %s", "#..#")
	return r
}

// TestJSONSinkRoundTrip verifies the snapshot decodes back with every
// series value, metric and meta field intact.
func TestJSONSinkRoundTrip(t *testing.T) {
	var buf strings.Builder
	sink := &JSONSink{W: &buf}
	meta := Meta{Tool: "midas-sim", Seed: 2014, Topologies: 60, Parallelism: 8}
	if err := sink.Begin(meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.Result(demoResult()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Meta != meta {
		t.Fatalf("meta = %+v, want %+v", snap.Meta, meta)
	}
	if len(snap.Results) != 1 {
		t.Fatalf("got %d results", len(snap.Results))
	}
	r := snap.Results[0]
	if r.Name != "fig0-demo" {
		t.Fatalf("name = %q", r.Name)
	}
	// SampleSeries sorts ascending.
	want := []float64{1, 2, 3}
	if len(r.Series) != 1 || len(r.Series[0].Values) != 3 {
		t.Fatalf("series = %+v", r.Series)
	}
	for i, v := range r.Series[0].Values {
		if v != want[i] {
			t.Fatalf("series values = %v, want %v", r.Series[0].Values, want)
		}
	}
	if len(r.Metrics) != 2 || r.Metrics[0].Value != 42.5 || r.Metrics[0].Note != "paper: ≈40%" {
		t.Fatalf("metrics = %+v", r.Metrics)
	}
	if len(r.Text) != 1 || r.Text[0] != "map row: #..#" {
		t.Fatalf("text = %+v", r.Text)
	}
}

// TestCSVSinkRows verifies the flat table has a header plus one row per
// series point and per metric.
func TestCSVSinkRows(t *testing.T) {
	var buf strings.Builder
	sink := &CSVSink{W: &buf}
	if err := sink.Begin(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Result(demoResult()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+3+2 { // header + 3 series points + 2 metrics
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	if rows[1][0] != "fig0-demo" || rows[1][1] != "series" || rows[1][4] != "1" {
		t.Fatalf("first series row = %v", rows[1])
	}
	if rows[4][1] != "metric" || rows[4][2] != "median gain" || rows[4][4] != "42.5" {
		t.Fatalf("metric row = %v", rows[4])
	}
}

// TestSinksRenderSummaries verifies every sink carries the replicate
// summaries: JSON round-trips the struct, CSV flattens each summary to
// its four stat rows, and text prints the mean ± CI line.
func TestSinksRenderSummaries(t *testing.T) {
	var w stats.Summary
	w.Add(10)
	w.Add(14)
	w.Add(12)
	r := Result{Name: "fig0-demo"}
	r.Summaries = append(r.Summaries, SummaryOf("median capacity", "bit/s/Hz", &w))

	var jbuf strings.Builder
	jsink := &JSONSink{W: &jbuf}
	if err := jsink.Begin(Meta{Replicates: 3}); err != nil {
		t.Fatal(err)
	}
	if err := jsink.Result(r); err != nil {
		t.Fatal(err)
	}
	if err := jsink.Close(); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(jbuf.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Replicates != 3 {
		t.Errorf("meta replicates = %d, want 3", snap.Meta.Replicates)
	}
	got := snap.Results[0].Summaries
	if len(got) != 1 || got[0].Mean != 12 || got[0].N != 3 || got[0].CI95 != w.CI95() {
		t.Errorf("JSON summaries = %+v, want mean 12, n 3, ci95 %v", got, w.CI95())
	}

	var cbuf strings.Builder
	csink := &CSVSink{W: &cbuf}
	if err := csink.Begin(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := csink.Result(r); err != nil {
		t.Fatal(err)
	}
	if err := csink.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(cbuf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+4 { // header + mean/stddev/ci95/n
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	kinds := map[string]bool{}
	for _, row := range rows[1:] {
		kinds[row[1]] = true
		if row[2] != "median capacity" {
			t.Errorf("summary row label = %q", row[2])
		}
	}
	for _, k := range []string{"summary-mean", "summary-stddev", "summary-ci95", "summary-n"} {
		if !kinds[k] {
			t.Errorf("missing CSV summary kind %q (have %v)", k, kinds)
		}
	}

	var tbuf strings.Builder
	tsink := &TextSink{W: &tbuf}
	if err := tsink.Begin(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := tsink.Result(r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbuf.String(), "median capacity: 12 ± ") ||
		!strings.Contains(tbuf.String(), "(95% CI, n=3, std 2)") {
		t.Errorf("text sink missing the summary line:\n%s", tbuf.String())
	}
}

// TestTextSinkFormat spot-checks the banner, CDF header and metric line,
// and that a long series is downsampled to 20 CDF rows.
func TestTextSinkFormat(t *testing.T) {
	var buf strings.Builder
	sink := &TextSink{W: &buf}
	if err := sink.Begin(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Result(demoResult()); err != nil {
		t.Fatal(err)
	}
	long := make([]float64, 50)
	for i := range long {
		long[i] = float64(i)
	}
	var lr Result
	lr.Name = "fig0-long"
	lr.AddSeries("long", "", stats.NewSample(long...))
	if err := sink.Result(lr); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"==== fig0-demo ====",
		"-- CAS capacity (bit/s/Hz) (n=3, median 2.00)",
		"median gain: 42.5 % (paper: ≈40%)",
		"spots measured: 12710\n", // integer counts never in scientific notation
		"map row: #..#",
		"-- long (n=50, median 24.50)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	_, table, _ := strings.Cut(out, "-- long (n=50, median 24.50)\n")
	if rows := strings.Count(table, "\t"); rows != 20 {
		t.Fatalf("50-value series printed %d CDF rows, want 20:\n%s", rows, table)
	}
}
