package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func doJSON(t *testing.T, client *http.Client, method, url, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeStatus(t *testing.T, b []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return st
}

// pollDone polls GET /v1/jobs/{id} until the job is terminal — the
// same loop a curl client runs.
func pollDone(t *testing.T, client *http.Client, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, b := doJSON(t, client, http.MethodGet, base+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %s", code, b)
		}
		st := decodeStatus(t, b)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// The full curl session of the README: submit, poll, fetch the result,
// resubmit and observe the cache hit with a byte-identical body.
func TestHTTPJobLifecycleAndCache(t *testing.T) {
	run, calls := countingRun()
	s := New(Config{Workers: 2, Run: run})
	defer mustShutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	spec := `{"scenario": "fig12-spatial-reuse", "topologies": 2, "seed": 7}`
	code, b := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	st := decodeStatus(t, b)
	if st.ID == "" || st.SpecHash == "" || st.Scenario != "fig12-spatial-reuse" {
		t.Fatalf("submit status %+v", st)
	}
	if final := pollDone(t, c, srv.URL, st.ID); final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	code, cold := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, cold)
	}
	var snap runner.Snapshot
	if err := json.Unmarshal(cold, &snap); err != nil {
		t.Fatalf("result is not a snapshot: %v\n%s", err, cold)
	}
	if snap.Meta.Tool != "midas-serve" || len(snap.Results) != 1 {
		t.Fatalf("snapshot meta %+v, %d results", snap.Meta, len(snap.Results))
	}

	// Resubmit: served from cache, 200 (not 202), byte-identical body.
	code, b = doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if code != http.StatusOK {
		t.Fatalf("cached submit: %d %s", code, b)
	}
	st2 := decodeStatus(t, b)
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("cached submit status %+v", st2)
	}
	_, warm := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/"+st2.ID+"/result", "")
	if string(cold) != string(warm) {
		t.Fatalf("cache hit body differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("engine ran %d times over the HTTP lifecycle, want 1", n)
	}

	// /metrics shows the session in Prometheus exposition.
	resp, err := c.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("exposition content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE midas_job_queue_wait_seconds histogram",
		"# TYPE midas_job_run_seconds histogram",
		"midas_cache_hits_total 1",
		"midas_cache_misses_total 1",
		`midas_submissions_total{outcome="cached"} 1`,
		`midas_jobs_finished_total{state="done"} 1`,
		`midas_jobs{state="done"} 2`,
		"midas_job_queue_wait_seconds_count 1",
		`midas_job_run_seconds_count{scenario="fig12-spatial-reuse"} 1`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("exposition missing %q\n%s", want, expo)
		}
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"scenaro": "fig3"}`, http.StatusBadRequest},
		{"no scenario", `{"topologies": 2}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenario": "no-such"}`, http.StatusBadRequest},
		{"invalid spec", `{"scenario": "fig12-spatial-reuse", "topologies": -4}`, http.StatusBadRequest},
		// A count past its bound is refused up front: accepted, it would
		// size an allocation the job goroutine cannot make, and the
		// panic would take the whole process down.
		{"topologies past the bound", `{"scenario":"fig3-naive-scaling-drop","topologies":9007199254740991}`, http.StatusBadRequest},
		// A body past the transport cap is rejected before the JSON
		// decoder materializes it, so a hostile multi-gigabyte value
		// array cannot OOM the server — and the client is told it was
		// size, not syntax.
		{"oversized body", `{"scenario": "fig3", "sweep": {"seed": [` +
			strings.Repeat("1,", maxSpecBytes/2) + `1]}}`, http.StatusRequestEntityTooLarge},
	} {
		if code, b := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", tc.body); code != tc.want {
			t.Errorf("%s: got %d %s, want %d", tc.name, code, b, tc.want)
		}
	}
	if code, b := doJSON(t, c, http.MethodGet, srv.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz after the refused submissions: %d %s", code, b)
	}

	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/j424242", ""); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d", code)
	}
	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/j424242/result", ""); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d", code)
	}
	if code, _ := doJSON(t, c, http.MethodDelete, srv.URL+"/v1/jobs/j424242", ""); code != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d", code)
	}
	// /metrics is the only counter surface.
	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/v1/metrics.json", ""); code != http.StatusNotFound {
		t.Errorf("GET /v1/metrics.json: %d, want 404", code)
	}

	// In-flight job: result is a conflict; cancel flips it to
	// cancelled; its result is then gone; double cancel conflicts.
	code, b := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", `{"scenario": "fig12-spatial-reuse", "topologies": 2, "seed": 9}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, b)
	}
	id := decodeStatus(t, b).ID
	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result", ""); code != http.StatusConflict {
		t.Errorf("result of in-flight job: %d", code)
	}
	if code, b := doJSON(t, c, http.MethodDelete, srv.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, b)
	}
	if st := pollDone(t, c, srv.URL, id); st.State != StateCancelled {
		t.Fatalf("after cancel: %s", st.State)
	}
	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result", ""); code != http.StatusGone {
		t.Errorf("result of cancelled job: %d", code)
	}
	if code, _ := doJSON(t, c, http.MethodDelete, srv.URL+"/v1/jobs/"+id, ""); code != http.StatusConflict {
		t.Errorf("double cancel: %d", code)
	}
}

func TestHTTPScenariosAndHealth(t *testing.T) {
	run, _ := countingRun()
	s := New(Config{Workers: 1, Run: run})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	code, b := doJSON(t, c, http.MethodGet, srv.URL+"/v1/scenarios", "")
	if code != http.StatusOK {
		t.Fatalf("scenarios: %d", code)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal(b, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(scenario.Names()) {
		t.Fatalf("listing has %d scenarios, registry has %d", len(infos), len(scenario.Names()))
	}
	byName := map[string]scenarioInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	fig15, ok := byName["fig15-end-to-end"]
	if !ok {
		t.Fatal("fig15-end-to-end missing from listing")
	}
	if len(fig15.Aliases) != 1 || fig15.Aliases[0] != "fig15" {
		t.Fatalf("fig15 aliases %v", fig15.Aliases)
	}
	if byName["fig12-spatial-reuse"].DefaultSpec.Topologies < 1 {
		t.Fatalf("default spec not populated: %+v", byName["fig12-spatial-reuse"])
	}

	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	mustShutdown(t, s)
	if code, _ := doJSON(t, c, http.MethodGet, srv.URL+"/healthz", ""); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d", code)
	}
	if code, _ := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", `{"scenario": "fig3"}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d", code)
	}
}

// The result endpoint's conditional-request contract: the ETag is the
// spec's canonical hash (strong, stable across restarts because the
// rendering is deterministic), and If-None-Match answers 304 with an
// empty body for exact, weak-prefixed, list and wildcard candidates.
func TestHTTPResultETagConditional(t *testing.T) {
	run, _ := countingRun()
	s := New(Config{Workers: 1, Run: run})
	defer mustShutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	code, b := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", `{"scenario": "fig12-spatial-reuse", "topologies": 2, "seed": 7}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	st := pollDone(t, c, srv.URL, decodeStatus(t, b).ID)
	resultURL := srv.URL + "/v1/jobs/" + st.ID + "/result"

	resp, err := c.Get(resultURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if want := `"` + st.SpecHash + `"`; etag != want {
		t.Fatalf("ETag %q, want the quoted spec hash %q", etag, want)
	}
	if len(body) == 0 {
		t.Fatal("unconditional GET returned no body")
	}

	get := func(ifNoneMatch string) (int, int, string) {
		req, err := http.NewRequest(http.MethodGet, resultURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, len(b), resp.Header.Get("ETag")
	}

	for _, match := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		code, n, tag := get(match)
		if code != http.StatusNotModified || n != 0 {
			t.Errorf("If-None-Match %q: got %d with %d body bytes, want body-less 304", match, code, n)
		}
		if tag != etag {
			t.Errorf("If-None-Match %q: 304 lost the ETag header (%q)", match, tag)
		}
	}
	for _, miss := range []string{`"` + strings.Repeat("0", 64) + `"`, st.SpecHash /* unquoted */} {
		if code, n, _ := get(miss); code != http.StatusOK || n == 0 {
			t.Errorf("If-None-Match %q: got %d with %d body bytes, want full 200", miss, code, n)
		}
	}
}

// Queue saturation is transient backpressure: the submission gets a
// 503 with Retry-After, and /healthz stays 200 but says "busy" —
// distinct from draining's terminal 503.
func TestHTTPQueueFullRetryAfterAndBusyHealth(t *testing.T) {
	release := make(chan struct{})
	run := func(ctx context.Context, _ scenario.Scenario, spec scenario.Spec, _ scenario.RunOptions) (scenario.Result, error) {
		select {
		case <-release:
			return fixedResult(spec), nil
		case <-ctx.Done():
			return scenario.Result{}, ctx.Err()
		}
	}
	s := New(Config{Workers: 1, QueueDepth: 1, Run: run})
	defer mustShutdown(t, s)
	defer close(release) // LIFO: unblock the stub before the drain
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	submit := func(seed string) (int, http.Header, []byte) {
		resp, err := c.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"scenario": "fig12-spatial-reuse", "topologies": 2, "seed": `+seed+`}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, b
	}

	// First job occupies the single worker...
	code, _, b := submit("1")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", code, b)
	}
	waitState(t, s, decodeStatus(t, b).ID, StateRunning)
	// ...second fills the depth-1 queue...
	if code, _, b = submit("2"); code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", code, b)
	}

	// ...so the service is saturated: alive (200) but busy.
	code, body := doJSON(t, c, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"busy"`) {
		t.Errorf("healthz at saturation: %d %s, want 200 busy", code, body)
	}

	// ...and a third distinct spec is rejected with retry guidance. No
	// run has completed yet, so the hint falls back to the eager 1s.
	// The rejection counts as rejected, not as a cache lookup.
	const rejected = `midas_submissions_total{outcome="rejected"}`
	hits, misses := sample(t, s, "midas_cache_hits_total"), sample(t, s, "midas_cache_misses_total")
	code, hdr, b := submit("3")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit at queue-full: %d %s", code, b)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("queue-full Retry-After before any observed run = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(b), "queue full") {
		t.Errorf("queue-full body %s", b)
	}
	if n := sample(t, s, rejected); n != 1 {
		t.Errorf("%s = %v after one queue-full rejection, want 1", rejected, n)
	}
	if h, m := sample(t, s, "midas_cache_hits_total"), sample(t, s, "midas_cache_misses_total"); h != hits || m != misses {
		t.Errorf("queue-full rejection moved the cache counters: hits %v -> %v, misses %v -> %v", hits, h, misses, m)
	}

	// Once run time has been observed, the hint tracks the backlog's
	// drain estimate instead of the old hardcoded constant: mean 5s ×
	// 1 queued / 1 worker = 5.
	s.observeRunTime(5.0)
	if code, hdr, b = submit("4"); code != http.StatusServiceUnavailable {
		t.Fatalf("submit at queue-full: %d %s", code, b)
	}
	if ra := hdr.Get("Retry-After"); ra != "5" {
		t.Errorf("queue-full Retry-After with 5s observed runs = %q, want \"5\"", ra)
	}
}

// The serve-smoke contract, in-process: the HTTP-served snapshot for a
// spec equals midas-sim's -format json output for the same spec except
// for the meta tool name.
func TestHTTPServedResultMatchesDirectRun(t *testing.T) {
	s := New(Config{Workers: 2}) // real engine
	defer mustShutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	spec := scenario.Spec{Scenario: "fig3", Topologies: 2, Seed: 11}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, b := doJSON(t, c, http.MethodPost, srv.URL+"/v1/jobs", string(body))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	st := pollDone(t, c, srv.URL, decodeStatus(t, b).ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	_, served := doJSON(t, c, http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/result", "")

	sc, err := scenario.Find("fig3")
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := scenario.Resolve(sc, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.RunResolved(context.Background(), sc, resolved, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.RenderJSON(resolved.SinkMeta("midas-serve"), res.RunnerResult())
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(want) {
		t.Fatalf("served snapshot diverges from the direct render:\nserved: %s\nwant: %s", served, want)
	}
}
