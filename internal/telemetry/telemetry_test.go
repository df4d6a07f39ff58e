package telemetry

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden exposition file")

func TestCounterAccumulates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("midas_test_total", "test counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("midas_test_gauge", "test gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestCounterFuncRendersAsCounter(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 41
	r.NewCounterFunc("midas_sampled_total", "Externally owned cumulative count.",
		[]string{"tier"}, func() []GaugeSample {
			return []GaugeSample{{LabelValues: []string{"store"}, Value: float64(n)}}
		})
	n++
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE midas_sampled_total counter\n",
		"midas_sampled_total{tier=\"store\"} 42\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestVecCellsAreDistinctAndStable(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("midas_requests_total", "by code", "code")
	v.With("200").Add(2)
	v.With("500").Inc()
	if v.With("200").Value() != 2 || v.With("500").Value() != 1 {
		t.Fatalf("cells mixed up: 200=%v 500=%v", v.With("200").Value(), v.With("500").Value())
	}
	if v.With("200") != v.With("200") {
		t.Fatal("With is not stable for equal label values")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("midas_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("midas_dup_total", "second")
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space", "midas.dots"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			NewRegistry().NewCounter(bad, "x")
		}()
	}
	// "le" is reserved on histograms (it would collide with the bucket
	// label) — reject it everywhere for uniformity.
	defer func() {
		if recover() == nil {
			t.Error(`label "le" did not panic`)
		}
	}()
	NewRegistry().NewCounterVec("midas_ok_total", "x", "le")
}

// TestHistogramBucketBoundaries pins the le-semantics: a value exactly
// on a bucket's upper bound counts into that bucket (inclusive above),
// the next larger value counts into the next bucket, and values above
// the last bound land in +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("midas_lat_seconds", "test", []float64{0.1, 1, 10})

	h.Observe(0.1) // exactly on bound 0 -> bucket 0
	h.Observe(1.0) // exactly on bound 1 -> bucket 1
	h.Observe(10)  // exactly on bound 2 -> bucket 2
	h.Observe(10.000001)
	h.Observe(math.Inf(1)) // +Inf observation -> +Inf bucket
	h.Observe(0)           // below every bound -> bucket 0

	want := []uint64{2, 1, 1} // per-bucket (non-cumulative) counts
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.inf.Load(); got != 2 {
		t.Errorf("+Inf bucket = %d, want 2", got)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	if got := h.Sum(); !math.IsInf(got, 1) {
		t.Errorf("Sum = %v, want +Inf (an Inf observation flows into the sum)", got)
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("midas_sum_seconds", "test", []float64{1})
	for _, v := range []float64{0.25, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Sum(); got != 2.75 {
		t.Errorf("Sum = %v, want 2.75", got)
	}
}

func TestHistogramRejectsNaNAndBadBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("midas_nan_seconds", "test", []float64{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe(NaN) did not panic")
			}
		}()
		h.Observe(math.NaN())
	}()
	for name, buckets := range map[string][]float64{
		"midas_empty":      {},
		"midas_unsorted":   {2, 1},
		"midas_duplicate":  {1, 1},
		"midas_infinity":   {1, math.Inf(1)},
		"midas_nan_bucket": {math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buckets %v did not panic", buckets)
				}
			}()
			NewRegistry().NewHistogram(name, "x", buckets)
		}()
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentObserveRender hammers every instrument type from many
// goroutines while rendering concurrently; run under -race (the
// test-race make target includes this package). Totals are checked
// afterwards, so lost updates fail even without the race detector.
func TestConcurrentObserveRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("midas_conc_total", "c", "worker")
	g := r.NewGauge("midas_conc_gauge", "g")
	h := r.NewHistogramVec("midas_conc_seconds", "h", []float64{0.25, 0.5, 0.75}, "worker")
	r.NewGaugeFunc("midas_conc_func", "f", []string{"k"}, func() []GaugeSample {
		return []GaugeSample{{LabelValues: []string{"a"}, Value: g.Value()}}
	})

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.With(id).Inc()
				g.Add(1)
				h.With(id).Observe(float64(i%4) / 4.0)
			}
		}(w)
	}
	stop := make(chan struct{})
	var renders sync.WaitGroup
	for i := 0; i < 4; i++ {
		renders.Add(1)
		go func() {
			defer renders.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if err := r.Render(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	renders.Wait()

	for w := 0; w < workers; w++ {
		id := string(rune('a' + w))
		if got := c.With(id).Value(); got != perWorker {
			t.Errorf("counter %s = %v, want %d", id, got, perWorker)
		}
		if got := h.With(id).Count(); got != perWorker {
			t.Errorf("histogram %s count = %d, want %d", id, got, perWorker)
		}
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
}

// TestRenderGolden pins the full exposition format byte-for-byte
// against testdata/exposition.golden — HELP/TYPE headers, family and
// series ordering, label escaping, cumulative le-buckets, _sum/_count,
// float formatting. Regenerate after an intentional format change:
//
//	go test ./internal/telemetry -run TestRenderGolden -update
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()

	jobs := r.NewGaugeVec("midas_jobs", "Jobs in the retained table by state.", "state")
	jobs.With("queued").Set(2)
	jobs.With("running").Set(1)

	hits := r.NewCounter("midas_cache_hits_total", "Result-cache hits.")
	hits.Add(41)
	hits.Inc()

	lat := r.NewHistogramVec("midas_queue_wait_seconds",
		"Time from submission to dispatch.", []float64{0.001, 0.01, 0.1, 1}, "scenario")
	for _, v := range []float64{0.0005, 0.001, 0.05, 0.2, 3} {
		lat.With("fig12-spatial-reuse").Observe(v)
	}

	esc := r.NewCounterVec("midas_escape_total", "Help with a backslash \\ and\nnewline.", "path")
	esc.With("say \"hi\"\\\n").Inc()

	r.NewGaugeFunc("midas_up", "Callback gauge.", nil, func() []GaugeSample {
		return []GaugeSample{{Value: 1}}
	})

	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderParses is a light structural check of Render output that
// does not depend on the golden: every non-comment line is
// `name{labels} value` with a parsable float value, and every family
// has HELP before TYPE before samples.
func TestRenderParses(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("midas_a_total", "a").Inc()
	h := r.NewHistogram("midas_b_seconds", "b", []float64{1, 2})
	h.Observe(1.5)
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	sawHelp := map[string]bool{}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			sawHelp[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			if !sawHelp[name] {
				t.Errorf("TYPE before HELP for %s", name)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("sample line %q is not `series value`", line)
		}
	}
}
