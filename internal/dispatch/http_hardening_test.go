package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestBodyCapReturns413: dispatch POST bodies over 1MiB are rejected
// with 413 on both endpoints, and regular-size requests still land.
func TestBodyCapReturns413(t *testing.T) {
	// A short worker TTL bounds the empty lease's park to 5ms.
	_, srv := startCoordinator(t, Config{WorkerTTL: 10 * time.Millisecond})
	huge := []byte(`{"worker":"` + strings.Repeat("a", 2<<20) + `"}`)
	for _, path := range []string{"/v1/shards/lease", "/v1/shards/xyz/complete"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body -> %d, want 413", path, resp.StatusCode)
		}
	}
	var lr LeaseResponse
	leaseOne(t, srv.URL, "w", 1, &lr) // normal body still decodes
}

// TestTrailingBodyDataRejected: a lease or complete body must be
// exactly one JSON value. Trailing bytes after a valid object answer
// 400 bad_request and change nothing: no lease is granted and no
// completion is accepted.
func TestTrailingBodyDataRejected(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{Telemetry: reg})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	t.Cleanup(func() { cancel(); <-done })

	var lr LeaseResponse
	waitLease(t, srv.URL, "held", &lr)
	completeURL := srv.URL + "/v1/shards/" + lr.Leases[0].ID + "/complete"
	pendingBefore, leasedBefore := c.shardCounts()

	for _, tc := range []struct{ name, url, body string }{
		{"lease+garbage", srv.URL + "/v1/shards/lease", `{"worker":"a","max":1}garbage`},
		{"lease+second object", srv.URL + "/v1/shards/lease", `{"worker":"a","max":1} {"worker":"b"}`},
		{"complete+garbage", completeURL, `{"worker":"held","error":"boom"}garbage`},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", tc.name, resp.StatusCode)
		}
		if e := api.Parse(body); e.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request (%s)", tc.name, e.Code, e.Message)
		}
	}
	if pending, leased := c.shardCounts(); pending != pendingBefore || leased != leasedBefore {
		t.Errorf("rejected bodies changed the queue: %d pending, %d leased before; %d, %d after",
			pendingBefore, leasedBefore, pending, leased)
	}
	if n := counterValue(t, reg, "midas_shards_completed_total", `status="requeued"`); n != 0 {
		t.Errorf("rejected completion was applied (%v requeued)", n)
	}
	// Trailing whitespace is not trailing data: json.Encoder ends every
	// body it writes with a newline.
	resp, err := http.Post(srv.URL+"/v1/shards/lease", "application/json", strings.NewReader("{\"proto\":2,\"worker\":\"a\",\"max\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newline-terminated lease body -> %d, want 200", resp.StatusCode)
	}
}

// TestWrongListenerSurfacesMuxMessage: Go's ServeMux answers unmatched
// routes in plain text, not in the api envelope. A worker pointed at
// the job API listener instead of the dispatch listener, or at a route
// the dispatch listener does not serve, must still surface the mux's
// own message through postJSON and api.Parse, with an empty Code.
func TestWrongListenerSurfacesMuxMessage(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	jobAPI := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { jobAPI.Close(); _ = svc.Shutdown(context.Background()) })
	_, coord := startCoordinator(t, Config{})

	for _, tc := range []struct {
		name, url, status, message string
	}{
		{"lease on the job API", jobAPI.URL + "/v1/shards/lease", "404 Not Found", "404 page not found"},
		{"POST to a GET-only route", jobAPI.URL + "/v1/scenarios", "405 Method Not Allowed", "Method Not Allowed"},
		{"unserved dispatch route", coord.URL + "/v1/dispatch/status", "404 Not Found", "404 page not found"},
	} {
		var lr LeaseResponse
		err := postJSON(context.Background(), http.DefaultClient, tc.url, LeaseRequest{Proto: ProtoVersion, Worker: "w", Max: 1}, &lr)
		var e *api.Error
		if !errors.As(err, &e) {
			t.Fatalf("%s: error %v does not wrap an *api.Error", tc.name, err)
		}
		if e.Message != tc.message || e.Code != "" {
			t.Errorf("%s: parsed %+v, want message %q and no code", tc.name, e, tc.message)
		}
		if !strings.Contains(err.Error(), tc.status) {
			t.Errorf("%s: error %q does not name status %q", tc.name, err, tc.status)
		}
	}
}

// TestLeaseGrantExpiryRace provokes the handleLease/sweeper race under
// -race: tiny TTLs keep the sweeper expiring and re-granting leases
// while concurrent lease handlers serialize their wire snapshots. The
// old code read sh.attempts after dropping c.mu; this test fails under
// -race against that version.
func TestLeaseGrantExpiryRace(t *testing.T) {
	sc, spec := testSpec(t)
	c, srv := startCoordinator(t, Config{
		LeaseTTL:      2 * time.Millisecond,
		SweepInterval: time.Millisecond,
		BackoffBase:   time.Nanosecond,
		BackoffMax:    2 * time.Millisecond,
		MaxAttempts:   1 << 30,
		WorkerTTL:     4 * time.Millisecond, // an empty grant parks 2ms, not 7.5s
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)

	stop := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				// postJSON directly: errors are expected weather here and
				// t.Fatalf is not goroutine-safe.
				var lr LeaseResponse
				_ = postJSON(context.Background(), http.DefaultClient,
					srv.URL+"/v1/shards/lease",
					LeaseRequest{Proto: ProtoVersion, Worker: fmt.Sprintf("g%d", g), Max: 4}, &lr)
			}
		}(g)
	}
	wg.Wait()
	cancel()
	if out := <-done; out.err == nil {
		t.Fatal("abandoned job completed without any accepted shard")
	}
}

// TestWorkerShutdownAbandonsBatch: a worker whose context fires
// mid-batch publishes the shard already in flight (exactly one
// accepted completion) and abandons the rest instead of computing a
// whole batch nobody is waiting for.
func TestWorkerShutdownAbandonsBatch(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{Telemetry: reg})
	jctx, jcancel := context.WithCancel(context.Background())
	done := dispatchAsync(jctx, c, sc, spec)
	t.Cleanup(func() { jcancel(); <-done })

	// Let the job enqueue fully so the first poll grants the whole
	// 4-shard batch.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if pending, _ := c.shardCounts(); pending == spec.ExpandedRuns() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "quitter", MaxBatch: 4,
			Run: func(_ context.Context, s scenario.Spec) (scenario.Result, error) {
				if runs.Add(1) == 1 {
					cancel() // shutdown arrives with the first shard in flight
				}
				s.Parallelism = 1
				return runShard(context.Background(), s)
			},
		})
	}()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after ctx cancel")
	}

	if n := runs.Load(); n != 1 {
		t.Errorf("worker executed %d shards after shutdown fired, want 1", n)
	}
	if n := counterValue(t, reg, "midas_shards_completed_total", `status="accepted"`); n != 1 {
		t.Errorf("accepted completions = %v, want 1 (in-flight shard still published)", n)
	}
}

// TestCompletePublishDeadlineBoundsShutdown: the final publish runs
// detached from the worker context (an in-flight result must still be
// reported) but under its own deadline, so a hung coordinator cannot
// stretch shutdown to the HTTP client's 30s timeout.
func TestCompletePublishDeadlineBoundsShutdown(t *testing.T) {
	oldTimeout := completePublishTimeout
	completePublishTimeout = 50 * time.Millisecond
	t.Cleanup(func() { completePublishTimeout = oldTimeout })

	var granted atomic.Bool
	unhang := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/lease", func(w http.ResponseWriter, r *http.Request) {
		if granted.CompareAndSwap(false, true) {
			writeJSON(w, http.StatusOK, LeaseResponse{Leases: []ShardLease{
				{ID: "L1", Job: "d1", Shard: 0, Deadline: time.Now().Add(time.Hour)},
			}})
			return
		}
		writeJSON(w, http.StatusOK, LeaseResponse{})
	})
	mux.HandleFunc("POST /v1/shards/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		<-unhang // the hang: never answer while the worker is shutting down
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(unhang) }) // LIFO: release handlers before srv.Close waits on them

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelAt time.Time
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "w",
			Run: func(_ context.Context, _ scenario.Spec) (scenario.Result, error) {
				cancelAt = time.Now()
				cancel()
				return scenario.Result{}, nil
			},
		})
	}()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung on the unanswerable publish")
	}
	// 3 publish attempts x 50ms deadline + 300ms of retry backoff,
	// with slack: far under the 30s an undeadlined publish would take.
	if elapsed := time.Since(cancelAt); elapsed > 3*time.Second {
		t.Errorf("shutdown took %v after ctx cancel, want bounded by the publish deadline", elapsed)
	}
}
