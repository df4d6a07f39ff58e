package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// leaseResult is the outcome of one lease request issued in the
// background.
type leaseResult struct {
	lr  LeaseResponse
	err error
	at  time.Time
}

// parkLease posts a lease request for worker in the background; on an
// empty queue it parks.
func parkLease(ctx context.Context, client *http.Client, base, worker string) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		var lr LeaseResponse
		err := postJSON(ctx, client, base+"/v1/shards/lease",
			LeaseRequest{Proto: ProtoVersion, Worker: worker, Max: 1}, &lr)
		out <- leaseResult{lr, err, time.Now()}
	}()
	return out
}

// waitLive waits until n workers are stamped live: a parked request
// stamps its worker under the same lock hold that captures the wake
// channel, so from then on every enqueue wakes it.
func waitLive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); c.LiveWorkers() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("live workers = %d, want %d", c.LiveWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// singleShardSpec resolves a spec that expands to exactly one shard.
func singleShardSpec(t *testing.T) (scenario.Scenario, scenario.Spec) {
	t.Helper()
	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Resolve(sc, scenario.Spec{Topologies: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return sc, spec
}

// TestParkedLeaseGrantedOnEnqueue: an idle worker's parked request is
// granted as soon as Run enqueues, not at the end of the hold.
func TestParkedLeaseGrantedOnEnqueue(t *testing.T) {
	sc, spec := testSpec(t)
	c, srv := startCoordinator(t, Config{}) // hold = 7.5s
	parked := parkLease(context.Background(), http.DefaultClient, srv.URL, "idle")
	waitLive(t, c, 1)

	ctx, cancel := context.WithCancel(context.Background())
	enqueued := time.Now()
	done := dispatchAsync(ctx, c, sc, spec)
	t.Cleanup(func() { cancel(); <-done })
	select {
	case got := <-parked:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if len(got.lr.Leases) != 1 {
			t.Fatalf("parked request answered with %d leases, want 1", len(got.lr.Leases))
		}
		if d := got.at.Sub(enqueued); d > 50*time.Millisecond {
			t.Errorf("parked request granted %v after Run, want within 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request not granted after Run enqueued")
	}
}

// TestParkedLeaseHonorsRequeueBackoff: a shard requeued while a
// request is parked is granted to it at the shard's readyAt — the
// requeue wakes the request to re-arm its timer, and the backoff is
// neither skipped nor stretched to the end of the hold.
func TestParkedLeaseHonorsRequeueBackoff(t *testing.T) {
	const backoff = 100 * time.Millisecond
	sc, spec := singleShardSpec(t)
	c, srv := startCoordinator(t, Config{BackoffBase: backoff})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	t.Cleanup(func() { cancel(); <-done })

	var first LeaseResponse
	waitLease(t, srv.URL, "failer", &first)
	parked := parkLease(context.Background(), http.DefaultClient, srv.URL, "parker")
	waitLive(t, c, 2)

	failedAt := time.Now()
	var cr CompleteResponse
	postForTest(t, srv.URL+"/v1/shards/"+first.Leases[0].ID+"/complete",
		CompleteRequest{Proto: ProtoVersion, Worker: "failer", Error: "synthetic"}, &cr)
	if cr.Status != "requeued" {
		t.Fatalf("failed completion answered %q, want requeued", cr.Status)
	}
	answered := time.Now()
	select {
	case got := <-parked:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if len(got.lr.Leases) != 1 || got.lr.Leases[0].Attempt != 2 {
			t.Fatalf("parked request answered %+v, want the requeued shard's second attempt", got.lr.Leases)
		}
		if got.at.Before(failedAt.Add(backoff)) {
			t.Errorf("requeued shard granted %v after the failure, before its %v backoff", got.at.Sub(failedAt), backoff)
		}
		if late := got.at.Sub(answered.Add(backoff)); late > 150*time.Millisecond {
			t.Errorf("requeued shard granted %v after its readyAt", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requeued shard not granted to the parked request")
	}
}

// TestCloseReleasesParkedLease: Close answers a parked request with
// 503 "closed" at once instead of leaving it to the hold.
func TestCloseReleasesParkedLease(t *testing.T) {
	c, srv := startCoordinator(t, Config{})
	parked := parkLease(context.Background(), http.DefaultClient, srv.URL, "idle")
	waitLive(t, c, 1)

	closed := time.Now()
	c.Close()
	select {
	case got := <-parked:
		var e *api.Error
		if !errors.As(got.err, &e) || e.Code != "closed" {
			t.Fatalf("parked request after Close: %v, want code closed", got.err)
		}
		if d := got.at.Sub(closed); d > 100*time.Millisecond {
			t.Errorf("Close released the parked request after %v, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the parked request")
	}
}

// TestParkedLeaseClientCancel: a client that gives up on a parked
// request ends its handler, and nothing it started outlives it.
func TestParkedLeaseClientCancel(t *testing.T) {
	c := New(Config{})
	handlerDone := make(chan struct{}, 1)
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		handlerDone <- struct{}{}
	}))
	t.Cleanup(func() { srv.Close(); c.Close() })
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	parked := parkLease(ctx, client, srv.URL, "quitter")
	waitLive(t, c, 1)
	cancel()
	if got := <-parked; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled request returned %v", got.err)
	}
	select {
	case <-handlerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still parked after the client went away")
	}
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the cancel, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedWorkerStaysLive: an idle RunWorker, parked hold after
// hold, stays counted in LiveWorkers for many worker TTLs, and asks
// about once per hold rather than spinning.
func TestParkedWorkerStaysLive(t *testing.T) {
	const ttl = 100 * time.Millisecond // hold = 50ms
	c := New(Config{WorkerTTL: ttl})
	var requests atomic.Int64
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards/lease" {
			requests.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, ID: "idle"}) }()
	t.Cleanup(func() { cancel(); <-workerDone })
	waitLive(t, c, 1)

	const watch = 4 * ttl
	start := requests.Load()
	for end := time.Now().Add(watch); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if n := c.LiveWorkers(); n != 1 {
			t.Fatalf("parked worker dropped out of the live set (live = %d)", n)
		}
	}
	if n := requests.Load() - start; n > int64(watch/(ttl/2))+3 {
		t.Errorf("idle worker sent %d lease requests in %v, want about one per %v hold", n, watch, ttl/2)
	}
}

// TestAbandonedGrantReturnsShards: a client that goes away while its
// request is parked, in the same instant as a shard is enqueued, leaves
// nothing leased — any grant the wake made is handed straight back to
// pending with its attempt uncounted, not left to the lease TTL.
func TestAbandonedGrantReturnsShards(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{LeaseTTL: time.Hour, Telemetry: reg})

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := c.lease(ctx, "gone", 1)
		parked <- err
	}()
	waitLive(t, c, 1)
	cancel()
	jctx, jcancel := context.WithCancel(context.Background())
	done := dispatchAsync(jctx, c, sc, spec)
	t.Cleanup(func() { jcancel(); <-done })
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parked lease returned %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		pending, leased := c.shardCounts()
		if pending == spec.ExpandedRuns() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the race: %d leased, %d pending, want 0 and %d", leased, pending, spec.ExpandedRuns())
		}
		time.Sleep(time.Millisecond)
	}

	// The same with the grant certain: the client is already gone when
	// its request finds the queue full.
	shards := spec.ExpandedRuns() // 4, one full batch
	if _, err := c.lease(ctx, "gone", shards); !errors.Is(err, context.Canceled) {
		t.Fatalf("lease for a gone client returned %v", err)
	}
	if pending, leased := c.shardCounts(); leased != 0 || pending != spec.ExpandedRuns() {
		t.Fatalf("abandoned grant left %d leased, %d pending, want 0 and %d", leased, pending, spec.ExpandedRuns())
	}
	if n := counterValue(t, reg, "midas_shard_requeues_total", `reason="abandoned"`); n < float64(shards) {
		t.Errorf("abandoned requeues = %v, want at least %d", n, shards)
	}
	var lr LeaseResponse
	leaseOne(t, srv.URL, "next", shards, &lr)
	if len(lr.Leases) != shards {
		t.Fatalf("next worker got %d leases, want all %d shards at once", len(lr.Leases), shards)
	}
	for _, l := range lr.Leases {
		if l.Attempt != 1 {
			t.Errorf("shard %d re-granted at attempt %d, want 1: an abandoned grant is not an attempt", l.Shard, l.Attempt)
		}
	}
}

// TestWorkerBacksOffOnRefusal: a worker refused by its coordinator —
// here a proto-1 coordinator refusing proto 2 — backs off from 200ms,
// doubling, instead of spinning on the refusals.
func TestWorkerBacksOffOnRefusal(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		api.Write(w, http.StatusBadRequest, "proto_unsupported", "dispatch: protocol version 2 not supported (max 1)")
	}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, ID: "newer"}); err != nil {
		t.Fatal(err)
	}
	// Requests at 0, 200ms and 600ms.
	if n := requests.Load(); n < 2 || n > 4 {
		t.Errorf("refused worker sent %d lease requests in 700ms, want 3", n)
	}
}
