// Command midas-loadgen drives a running midas-serve with a
// configurable mix of cached, uncached and coalesced submissions and
// reports end-to-end latency quantiles plus the error rate as JSON —
// with optional SLO gates that make the process exit nonzero when the
// measured service level misses them, so a CI job can fail on a
// latency regression without any external tooling.
//
//	midas-loadgen -url http://host:port [-duration 5s] [-concurrency 8]
//	              [-rate R] [-mix cached=8,uncached=1,coalesced=1]
//	              [-scenario fig12-spatial-reuse] [-topos 2] [-seed 10000]
//	              [-retries N] [-retry-base D]
//	              [-slo-p50 D] [-slo-p90 D] [-slo-p99 D] [-slo-error-rate F]
//	              [-out FILE]
//
// Two driving disciplines:
//
//   - closed loop (default): -concurrency workers each submit, wait for
//     the job to reach a terminal state, and immediately submit again —
//     throughput adapts to the server.
//   - open loop (-rate R > 0): submissions start at a fixed R per
//     second regardless of completions, the discipline that exposes
//     queueing collapse.
//
// Request classes (weights set by -mix):
//
//   - cached: one fixed spec, warmed before measurement — every
//     submission should be answered from the result cache.
//   - uncached: a unique seed per submission — every one is a fresh
//     engine run.
//   - coalesced: submissions share a seed in groups of -coalesce-fanout,
//     so concurrent group members attach to one in-flight run.
//
// The mix is what was *requested*; the report's per-class "outcomes"
// tally what the server actually did (a coalesced-class submission
// arriving after its group leader finished is a cache hit), so drift
// is visible rather than silent.
//
// Latency is end to end: POST /v1/jobs until the job is terminal
// (cache hits are terminal in the submit response; queued jobs are
// polled). Errors are transport failures, non-2xx responses, jobs
// ending failed/cancelled, and completion-poll timeouts.
//
// Transient failures — transport errors (connection refused/reset
// during a server restart window) and 503 responses — are retried up
// to -retries times per exchange with exponential backoff from
// -retry-base, ±50% jitter, honouring a 503's Retry-After when it asks
// for longer. Retries are tallied separately from errors in the
// report (total and per class), so the SLO error gate counts only
// requests that stayed failed after the retry budget, while recovered
// blips remain visible instead of disappearing into the success count.
//
// Exit status: 0 = ran and all SLOs held, 1 = an SLO was violated (or
// nothing completed), 2 = usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

var (
	baseURL     = flag.String("url", "", "base URL of the midas-serve instance (required)")
	duration    = flag.Duration("duration", 5*time.Second, "measurement window")
	concurrency = flag.Int("concurrency", 8, "closed-loop workers (and the in-flight bound)")
	rate        = flag.Float64("rate", 0, "open-loop submissions per second (0 = closed loop)")
	mixFlag     = flag.String("mix", "cached=8,uncached=1,coalesced=1",
		"request-class weights, comma-separated name=weight")
	scenarioName = flag.String("scenario", "fig12-spatial-reuse", "scenario every submission runs")
	topos        = flag.Int("topos", 2, "topologies per submitted spec (keep small: uncached specs run the engine)")
	seedBase     = flag.Int64("seed", 10000, "base seed; classes derive their seeds from it")
	fanout       = flag.Int("coalesce-fanout", 4, "coalesced-class submissions sharing one seed group")
	jobTimeout   = flag.Duration("timeout", 60*time.Second, "per-job completion timeout")
	retries      = flag.Int("retries", 3, "transient-failure retries per HTTP exchange (transport errors and 503s; 0 disables)")
	retryBase    = flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff; doubles per attempt, ±50% jitter")
	retryMax     = flag.Duration("retry-max", 5*time.Second, "retry backoff ceiling (caps the doubling and any server Retry-After)")
	outPath      = flag.String("out", "", "write the JSON report to this file instead of stdout")

	sloP50    = flag.Duration("slo-p50", 0, "fail if overall p50 latency exceeds this (0 = no gate)")
	sloP90    = flag.Duration("slo-p90", 0, "fail if overall p90 latency exceeds this (0 = no gate)")
	sloP99    = flag.Duration("slo-p99", 0, "fail if overall p99 latency exceeds this (0 = no gate)")
	sloErrors = flag.Float64("slo-error-rate", -1, "fail if the error rate exceeds this fraction (negative = no gate)")
)

// classes in mix-flag order.
const (
	classCached    = "cached"
	classUncached  = "uncached"
	classCoalesced = "coalesced"
)

// sample is one completed (or failed) submission.
type sample struct {
	class   string
	outcome string // cached|coalesced|queued|error
	latency time.Duration
	err     bool
	retries int // transient-failure retries spent across submit + polls
}

// jobStatus is the slice of the service's status payload the driver
// needs.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

// latencyStats is the quantile block of the report, in seconds.
type latencyStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// classReport is one request class's section of the report.
type classReport struct {
	Requested int `json:"requested"`
	Errors    int `json:"errors"`
	// Retries counts transient failures that were retried and may have
	// recovered — tallied apart from Errors so the SLO gates never see
	// a blip the retry budget absorbed.
	Retries  int            `json:"retries"`
	Outcomes map[string]int `json:"outcomes"`
	Latency  latencyStats   `json:"latency_seconds"`
}

// report is the JSON document the run emits.
type report struct {
	URL             string                 `json:"url"`
	Scenario        string                 `json:"scenario"`
	Mode            string                 `json:"mode"` // closed|open
	DurationSeconds float64                `json:"duration_seconds"`
	Total           int                    `json:"total"`
	Errors          int                    `json:"errors"`
	Retries         int                    `json:"retries"`
	ErrorRate       float64                `json:"error_rate"`
	ThroughputRPS   float64                `json:"throughput_rps"`
	Latency         latencyStats           `json:"latency_seconds"`
	Classes         map[string]classReport `json:"classes"`
	SLOViolations   []string               `json:"slo_violations"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "midas-loadgen:", err)
		os.Exit(2)
	}
}

func run() error {
	if *baseURL == "" {
		return fmt.Errorf("-url is required")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1 (got %d)", *concurrency)
	}
	if *fanout < 1 {
		return fmt.Errorf("-coalesce-fanout must be >= 1 (got %d)", *fanout)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	d := &driver{
		client: &http.Client{Timeout: 30 * time.Second},
		url:    strings.TrimSuffix(*baseURL, "/"),
		mix:    mix,
	}

	// Warm the cache so the cached class measures hits, not one cold
	// run: submit the fixed spec once and wait for it outside the
	// measured window.
	warmCtx, cancel := context.WithTimeout(context.Background(), *jobTimeout)
	defer cancel()
	if s := d.request(warmCtx, classCached); s.err {
		return fmt.Errorf("warmup submission failed (is %s a midas-serve?)", *baseURL)
	}

	ctx, stop := context.WithTimeout(context.Background(), *duration)
	defer stop()
	start := time.Now()
	if *rate > 0 {
		d.openLoop(ctx)
	} else {
		d.closedLoop(ctx)
	}
	elapsed := time.Since(start)

	rep := d.report(elapsed)
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, body, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(body)
	}
	if len(rep.SLOViolations) > 0 {
		for _, v := range rep.SLOViolations {
			fmt.Fprintln(os.Stderr, "midas-loadgen: SLO violation:", v)
		}
		os.Exit(1)
	}
	return nil
}

// driver owns the shared state of one load run.
type driver struct {
	client *http.Client
	url    string
	mix    []weighted

	next atomic.Int64 // global submission counter: class picking
	// Per-class submission counters drive seed derivation, so the
	// coalesced class's fanout groups are consecutive *within the
	// class* — deriving them from the global counter would spread each
	// group across the whole mix cycle and nothing would ever share a
	// seed while in flight.
	uncachedN  atomic.Int64
	coalescedN atomic.Int64

	mu      sync.Mutex
	samples []sample
}

type weighted struct {
	class string
	limit int64 // cumulative weight bound
}

// parseMix parses "cached=8,uncached=1,coalesced=1" into cumulative
// weight ranges. Omitted classes get weight 0.
func parseMix(s string) ([]weighted, error) {
	weights := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix entry %q is not name=weight", part)
		}
		switch name {
		case classCached, classUncached, classCoalesced:
		default:
			return nil, fmt.Errorf("-mix class %q unknown (want cached, uncached or coalesced)", name)
		}
		w, err := strconv.ParseInt(val, 10, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix weight %q must be a nonnegative integer", val)
		}
		weights[name] = w
	}
	var out []weighted
	var cum int64
	for _, class := range []string{classCached, classUncached, classCoalesced} {
		if w := weights[class]; w > 0 {
			cum += w
			out = append(out, weighted{class: class, limit: cum})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix %q selects no requests", s)
	}
	return out, nil
}

// pick assigns submission n a class by its position in the cumulative
// weight cycle — a deterministic interleaving that honours the mix at
// every window size.
func (d *driver) pick(n int64) string {
	total := d.mix[len(d.mix)-1].limit
	pos := n % total
	for _, w := range d.mix {
		if pos < w.limit {
			return w.class
		}
	}
	return d.mix[0].class // unreachable
}

// closedLoop runs -concurrency workers, each submitting again the
// moment its previous job is terminal. The window deadline only stops
// *starting* requests; an in-flight one completes normally (bounded by
// -timeout), so the window's edge cannot masquerade as server errors.
func (d *driver) closedLoop(ctx context.Context) {
	var wg sync.WaitGroup
	for range *concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := d.next.Add(1)
				d.record(d.request(context.Background(), d.pick(n)))
			}
		}()
	}
	wg.Wait()
}

// openLoop submits at a fixed -rate regardless of completions; each
// submission gets its own goroutine so a slow server cannot throttle
// the arrival process (that pile-up is exactly what the discipline
// measures).
func (d *driver) openLoop(ctx context.Context) {
	interval := time.Duration(float64(time.Second) / *rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
			n := d.next.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.record(d.request(context.Background(), d.pick(n)))
			}()
		}
	}
}

// seedFor derives the spec seed for a class's next submission: cached
// always reuses the base seed, uncached takes a fresh seed per
// submission, coalesced shares one seed per -coalesce-fanout group.
// The ranges are disjoint so classes never alias each other's cache
// entries.
func (d *driver) seedFor(class string) int64 {
	switch class {
	case classUncached:
		return *seedBase + 1_000_000 + d.uncachedN.Add(1)
	case classCoalesced:
		return *seedBase + 2_000_000_000 + d.coalescedN.Add(1)/int64(*fanout)
	default:
		return *seedBase
	}
}

// request submits one spec and follows it to a terminal state,
// returning the end-to-end sample.
func (d *driver) request(ctx context.Context, class string) sample {
	spec := fmt.Sprintf(`{"scenario": %q, "topologies": %d, "seed": %d}`,
		*scenarioName, *topos, d.seedFor(class))
	s := sample{class: class, outcome: "error", err: true}
	start := time.Now()

	// Resubmitting a spec is safe: results are content-addressed, so a
	// duplicate POST lands on the cache or coalesces — which is what
	// makes retrying the submit (not just the polls) correct.
	code, body, tries, ok := d.doTransient(ctx, http.MethodPost, d.url+"/v1/jobs", []byte(spec))
	s.retries += tries
	if !ok || (code != http.StatusOK && code != http.StatusAccepted) {
		return s
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return s
	}

	deadline := start.Add(*jobTimeout)
	for st.State != "done" {
		switch st.State {
		case "failed", "cancelled":
			return s
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return s
		}
		time.Sleep(5 * time.Millisecond)
		tries, ok := d.poll(ctx, st.ID, &st)
		s.retries += tries
		if !ok {
			return s
		}
	}
	s.latency = time.Since(start)
	s.err = false
	switch {
	case st.Cached:
		s.outcome = "cached"
	case st.Coalesced:
		s.outcome = "coalesced"
	default:
		s.outcome = "queued"
	}
	return s
}

// poll refreshes st from GET /v1/jobs/{id}, returning the retries it
// spent.
func (d *driver) poll(ctx context.Context, id string, st *jobStatus) (int, bool) {
	code, body, tries, ok := d.doTransient(ctx, http.MethodGet, d.url+"/v1/jobs/"+id, nil)
	if !ok || code != http.StatusOK {
		return tries, false
	}
	return tries, json.Unmarshal(body, st) == nil
}

// doTransient performs one HTTP exchange, retrying transient failures:
// transport errors and 503 responses, up to -retries times. The
// backoff doubles from -retry-base with ±50% jitter (decorrelating the
// retry herd a restarting server would otherwise face all at once); a
// 503 whose Retry-After asks for longer gets it. Both the doubling and
// the server's ask are capped at -retry-max, so a long retry budget
// (or a confused server clock) cannot park a worker for minutes.
// Returns the last status code and body, the retries spent, and
// ok=false only when the transport kept failing through the final
// attempt.
func (d *driver) doTransient(ctx context.Context, method, url string, reqBody []byte) (code int, body []byte, tries int, ok bool) {
	backoff := *retryBase
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	ceiling := *retryMax
	if ceiling < backoff {
		ceiling = backoff
	}
	for attempt := 0; ; attempt++ {
		var rdr io.Reader
		if reqBody != nil {
			rdr = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rdr)
		if err != nil {
			return 0, nil, attempt, false
		}
		var serverWait time.Duration
		resp, err := d.client.Do(req)
		if err == nil {
			body, _ = io.ReadAll(resp.Body)
			code = resp.StatusCode
			serverWait = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
			resp.Body.Close()
			if code != http.StatusServiceUnavailable {
				return code, body, attempt, true
			}
			// The v1 error envelope mirrors the hint in-band
			// (retry_after_seconds); prefer it over the header so the hint
			// survives header-stripping proxies. Plain-text bodies (a
			// proxy's or ServeMux's own) parse with no hint and fall back
			// to the header value above.
			if e := api.Parse(body); e.RetryAfterSeconds > 0 {
				serverWait = time.Duration(e.RetryAfterSeconds) * time.Second
			}
		}
		if attempt >= *retries || ctx.Err() != nil {
			if err != nil {
				return 0, nil, attempt, false
			}
			return code, body, attempt, true // still 503 after the budget
		}
		sleep := backoff/2 + rand.N(backoff) // uniform in [0.5, 1.5)·backoff
		if serverWait > sleep {
			sleep = serverWait
		}
		if sleep > ceiling {
			sleep = ceiling
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
		}
		if backoff *= 2; backoff > ceiling {
			backoff = ceiling
		}
	}
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds ("120") or HTTP-date ("Fri, 08 Aug 2026 17:30:00 GMT",
// any of the three date layouts http.ParseTime knows). Returns 0 for
// absent, malformed, non-positive or already-past values — "retry at
// your own pace".
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func (d *driver) record(s sample) {
	d.mu.Lock()
	d.samples = append(d.samples, s)
	d.mu.Unlock()
}

// stats computes nearest-rank quantiles over a latency set.
func stats(lat []time.Duration) latencyStats {
	st := latencyStats{Count: len(lat)}
	if len(lat) == 0 {
		return st
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	q := func(p float64) float64 {
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i].Seconds()
	}
	st.Mean = (sum / time.Duration(len(lat))).Seconds()
	st.P50, st.P90, st.P99 = q(0.50), q(0.90), q(0.99)
	st.Max = lat[len(lat)-1].Seconds()
	return st
}

// report folds the samples into the JSON document and evaluates the
// SLO gates.
func (d *driver) report(elapsed time.Duration) report {
	mode := "closed"
	if *rate > 0 {
		mode = "open"
	}
	rep := report{
		URL:             d.url,
		Scenario:        *scenarioName,
		Mode:            mode,
		DurationSeconds: elapsed.Seconds(),
		Classes:         map[string]classReport{},
		SLOViolations:   []string{},
	}
	var all []time.Duration
	perClass := map[string][]time.Duration{}
	for _, s := range d.samples {
		rep.Total++
		cr := rep.Classes[s.class]
		if cr.Outcomes == nil {
			cr.Outcomes = map[string]int{}
		}
		cr.Requested++
		cr.Outcomes[s.outcome]++
		rep.Retries += s.retries
		cr.Retries += s.retries
		if s.err {
			rep.Errors++
			cr.Errors++
		} else {
			all = append(all, s.latency)
			perClass[s.class] = append(perClass[s.class], s.latency)
		}
		rep.Classes[s.class] = cr
	}
	if rep.Total > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Total)
		rep.ThroughputRPS = float64(rep.Total) / elapsed.Seconds()
	}
	rep.Latency = stats(all)
	for class, lat := range perClass {
		cr := rep.Classes[class]
		cr.Latency = stats(lat)
		rep.Classes[class] = cr
	}

	if rep.Total == 0 {
		rep.SLOViolations = append(rep.SLOViolations, "no submissions completed inside the window")
	}
	gate := func(name string, slo time.Duration, got float64) {
		if slo > 0 && got > slo.Seconds() {
			rep.SLOViolations = append(rep.SLOViolations,
				fmt.Sprintf("%s %.4fs exceeds SLO %s", name, got, slo))
		}
	}
	gate("p50", *sloP50, rep.Latency.P50)
	gate("p90", *sloP90, rep.Latency.P90)
	gate("p99", *sloP99, rep.Latency.P99)
	if *sloErrors >= 0 && rep.ErrorRate > *sloErrors {
		rep.SLOViolations = append(rep.SLOViolations,
			fmt.Sprintf("error rate %.4f exceeds SLO %.4f", rep.ErrorRate, *sloErrors))
	}
	return rep
}
