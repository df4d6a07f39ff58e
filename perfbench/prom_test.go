package main

import (
	"math"
	"strings"
	"testing"
)

const promBefore = `# HELP midas_job_queue_wait_seconds Time a job waited.
# TYPE midas_job_queue_wait_seconds histogram
midas_job_queue_wait_seconds_bucket{le="0.001"} 3
midas_job_queue_wait_seconds_bucket{le="+Inf"} 4
midas_job_queue_wait_seconds_sum 0.004
midas_job_queue_wait_seconds_count 4
midas_job_run_seconds_sum{scenario="fig12-spatial-reuse"} 0.01
midas_job_run_seconds_count{scenario="fig12-spatial-reuse"} 5
midas_shards_completed_total{status="accepted"} 10
midas_shards_completed_total{status="stale"} 1
midas_escape_total{path="a \"quoted\" } brace"} 2
midas_workers_live 2

`

const promAfter = `midas_job_queue_wait_seconds_bucket{le="0.001"} 9
midas_job_queue_wait_seconds_bucket{le="+Inf"} 10
midas_job_queue_wait_seconds_sum 0.016
midas_job_queue_wait_seconds_count 10
midas_job_run_seconds_sum{scenario="fig12-spatial-reuse"} 0.04
midas_job_run_seconds_count{scenario="fig12-spatial-reuse"} 15
midas_job_run_seconds_sum{scenario="fig14-packet-tagging"} 1
midas_job_run_seconds_count{scenario="fig14-packet-tagging"} 2
midas_shards_completed_total{status="accepted"} 74
midas_shards_completed_total{status="stale"} 1
midas_escape_total{path="a \"quoted\" } brace"} 5 1700000000000
midas_workers_live 2
midas_up NaN
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromReadsSeriesAndValues(t *testing.T) {
	s := mustParse(t, promBefore)
	for k, want := range map[string]float64{
		`midas_job_queue_wait_seconds_bucket{le="+Inf"}`:  4,
		`midas_shards_completed_total{status="accepted"}`: 10,
		`midas_escape_total{path="a \"quoted\" } brace"}`: 2,
		"midas_workers_live":                              2,
	} {
		if got, ok := s[k]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, want)
		}
	}
	if len(s) != 10 {
		t.Errorf("parsed %d series, want 10", len(s))
	}
	if a := mustParse(t, promAfter); !math.IsNaN(a["midas_up"]) {
		t.Errorf("NaN sample parsed as %v", a["midas_up"])
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"midas_x\n",
		`midas_x{a="1" 3` + "\n",
		"midas_x one\n",
		"midas_x 1 2 3\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestDeltaAndHistogramMeans(t *testing.T) {
	d := delta(mustParse(t, promBefore), mustParse(t, promAfter))
	if got := d[`midas_shards_completed_total{status="accepted"}`]; got != 64 {
		t.Errorf("accepted delta = %v, want 64", got)
	}
	if got := d[`midas_shards_completed_total{status="stale"}`]; got != 0 {
		t.Errorf("stale delta = %v, want 0", got)
	}
	// A series that appears only after counts from zero.
	if got := d[`midas_job_run_seconds_count{scenario="fig14-packet-tagging"}`]; got != 2 {
		t.Errorf("new series delta = %v, want 2", got)
	}
	if got := d.sum("midas_shards_completed_total"); got != 64 {
		t.Errorf("sum over labels = %v, want 64", got)
	}
	qw, err := d.histMean("midas_job_queue_wait_seconds", "")
	if err != nil || math.Abs(qw-0.002) > 1e-12 {
		t.Errorf("queue wait mean = %v, %v; want 0.002", qw, err)
	}
	run, err := d.histMean("midas_job_run_seconds", `scenario="fig12-spatial-reuse"`)
	if err != nil || math.Abs(run-0.003) > 1e-12 {
		t.Errorf("fig12 run mean = %v, %v; want 0.003", run, err)
	}
	all, err := d.histMean("midas_job_run_seconds", "")
	if err != nil || math.Abs(all-1.03/12) > 1e-12 {
		t.Errorf("run mean over all scenarios = %v, %v; want %v", all, err, 1.03/12)
	}
	if _, err := d.histMean("midas_shard_lease_seconds", ""); err == nil {
		t.Errorf("mean of an unobserved histogram succeeded")
	}
	if _, err := ratio(1, 0, "x"); err == nil {
		t.Errorf("ratio over zero succeeded")
	}
}
