package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Worker direct-publish: a worker sharing the coordinator's store
// writes each shard result straight into it and completes with a
// hash-plus-digest acknowledgement; the coordinator verifies the blob
// against the store before accepting. These tests run the whole flow
// over the real HTTP protocol (several under -race via make
// test-race), plus every unverifiable-acknowledgement path and the
// lease-expiry store recovery that makes a kill -9 in the
// acknowledgement window lossless.

// openSharedStore opens an independent Store over the directory
// backend at dir — one per simulated process (coordinator or worker).
func openSharedStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	be, err := store.OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestLeaseCarriesHash: a store-backed coordinator advertises each
// shard's content address on the lease — the store key a
// direct-publishing worker must write under.
func TestLeaseCarriesHash(t *testing.T) {
	sc, spec := testSpec(t)
	st := openSharedStore(t, t.TempDir())
	c, srv := startCoordinator(t, Config{Store: st})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	var lr LeaseResponse
	waitLease(t, srv.URL, "inspector", &lr)
	l := lr.Leases[0]
	if l.Hash == "" {
		t.Fatal("store-backed coordinator granted a lease with no hash")
	}
	if got := l.Spec.CanonicalHash(); got != l.Hash {
		t.Errorf("lease hash %s is not the shard spec's canonical hash %s", l.Hash, got)
	}
	if lr.Proto != ProtoVersion {
		t.Errorf("lease response proto = %d, want %d", lr.Proto, ProtoVersion)
	}
	cancel()
	<-done
}

// TestDirectPublishVerified is the happy path end to end: workers with
// their own Store handles over the coordinator's shared directory
// publish every shard directly, every acknowledgement verifies, the
// result is byte-identical to a single-process run, and no shard was
// ever resent inline.
func TestDirectPublishVerified(t *testing.T) {
	sc, spec := testSpec(t)
	want, err := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cst := openSharedStore(t, dir)
	c, srv := startCoordinator(t, Config{Store: cst, Telemetry: reg})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wst := openSharedStore(t, dir) // each worker "process" opens its own handle
		wg.Add(1)
		go func(w int, wst *store.Store) {
			defer wg.Done()
			_ = RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				ID:          fmt.Sprintf("direct%d", w),
				Run:         atWidth(1 + w), // different widths must not matter
				Store:       wst,
			})
		}(w, wst)
	}
	defer wg.Wait()
	defer cancel()

	got, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)

	shards := spec.ExpandedRuns()
	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="verified"`); n != float64(shards) {
		t.Errorf("verified direct publishes = %v, want %d", n, shards)
	}
	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="resend"`); n != 0 {
		t.Errorf("resend verdicts = %v, want 0", n)
	}
	if n := counterValue(t, reg, "midas_shards_completed_total", `status="accepted"`); n != float64(shards) {
		t.Errorf("accepted completions = %v, want %d", n, shards)
	}
}

// TestDirectPublishDisjointStoreFallsBackInline: a worker whose store
// the coordinator cannot see (a misconfigured mount: two different
// directories) gets "resend" for every acknowledgement and falls back
// to inline — the job still completes with correct bytes, just one
// extra round trip per shard.
func TestDirectPublishDisjointStoreFallsBackInline(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	cst := openSharedStore(t, t.TempDir())
	wst := openSharedStore(t, t.TempDir()) // NOT the coordinator's directory
	c, srv := startCoordinator(t, Config{Store: cst, Telemetry: reg})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "stray",
			Run: atWidth(1), Store: wst,
		})
	}()

	got, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, got)

	shards := float64(spec.ExpandedRuns())
	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="resend"`); n != shards {
		t.Errorf("resend verdicts = %v, want %v", n, shards)
	}
	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="verified"`); n != 0 {
		t.Errorf("verified direct publishes = %v, want 0", n)
	}
	if n := counterValue(t, reg, "midas_shards_completed_total", `status="accepted"`); n != shards {
		t.Errorf("accepted completions = %v, want %v", n, shards)
	}
}

// TestDirectPublishUnverifiableAsksResend walks every way an
// acknowledgement can fail verification — wrong hash, missing blob,
// undecodable blob (quarantined), digest mismatch — and confirms each
// gets "resend" with the lease still live, then that a good
// acknowledgement on the same lease is accepted.
func TestDirectPublishUnverifiableAsksResend(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	st := openSharedStore(t, t.TempDir())
	c, srv := startCoordinator(t, Config{Store: st, Telemetry: reg})
	done := dispatchAsync(context.Background(), c, sc, spec)

	var lr LeaseResponse
	waitLease(t, srv.URL, "fumbler", &lr)
	l := lr.Leases[0]
	res, err := runShardForTest(t, l.Spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := scenario.EncodeResultEnvelope(l.Spec, res)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(p []byte) string {
		sum := sha256.Sum256(p)
		return hex.EncodeToString(sum[:])
	}
	ack := func(storedHash, dig string) string {
		t.Helper()
		var cr CompleteResponse
		postForTest(t, srv.URL+"/v1/shards/"+l.ID+"/complete",
			CompleteRequest{Proto: ProtoVersion, Worker: "fumbler", StoredHash: storedHash, Digest: dig}, &cr)
		return cr.Status
	}

	// 1. Acknowledged hash is not the lease's address.
	other := strings.Repeat("ab", 32)
	if s := ack(other, digest(payload)); s != "resend" {
		t.Fatalf("foreign-hash ack status = %q, want resend", s)
	}
	// 2. Right hash, but nothing was ever stored there.
	if s := ack(l.Hash, digest(payload)); s != "resend" {
		t.Fatalf("missing-blob ack status = %q, want resend", s)
	}
	// 3. The stored blob does not decode as a result envelope: resend,
	// and the poisoned entry is quarantined out of the store.
	garbage := []byte("not a result envelope\n")
	if err := st.Put(l.Hash, garbage); err != nil {
		t.Fatal(err)
	}
	if s := ack(l.Hash, digest(garbage)); s != "resend" {
		t.Fatalf("undecodable-blob ack status = %q, want resend", s)
	}
	if _, found := st.Get(l.Hash); found {
		t.Fatal("undecodable blob survived verification un-quarantined")
	}
	// 4. Good blob, but the worker's digest does not match it.
	if err := st.Put(l.Hash, payload); err != nil {
		t.Fatal(err)
	}
	if s := ack(l.Hash, digest(garbage)); s != "resend" {
		t.Fatalf("digest-mismatch ack status = %q, want resend", s)
	}
	// 5. The lease survived all four rebuffs: a good acknowledgement on
	// the very same lease id is verified and accepted.
	if s := ack(l.Hash, digest(payload)); s != "accepted" {
		t.Fatalf("good ack status = %q, want accepted", s)
	}

	// An honest inline fleet finishes the remaining shards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "honest", Run: atWidth(1),
		})
	}()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)

	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="resend"`); n != 4 {
		t.Errorf("resend verdicts = %v, want 4", n)
	}
	if n := counterValue(t, reg, "midas_shards_direct_total", `outcome="verified"`); n != 1 {
		t.Errorf("verified direct publishes = %v, want 1", n)
	}
}

// TestExpiredLeaseRecoveredFromStore is the acknowledgement-window
// crash: a worker publishes every shard result to the shared store and
// then dies before any completion POST (kill -9 between publish and
// acknowledgement). The leases expire — and instead of re-running, the
// coordinator finds each published result in the store and finishes
// the job with zero re-execution and zero accepted completions.
func TestExpiredLeaseRecoveredFromStore(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	st := openSharedStore(t, t.TempDir())
	c, srv := startCoordinator(t, Config{
		Store:       st,
		Telemetry:   reg,
		LeaseTTL:    30 * time.Millisecond,
		BackoffBase: time.Millisecond,
	})
	done := dispatchAsync(context.Background(), c, sc, spec)

	// The doomed worker: lease every shard, publish every result to the
	// store, and vanish without a single completion POST.
	shards := spec.ExpandedRuns()
	leased := make(map[string]ShardLease)
	deadline := time.Now().Add(2 * time.Second)
	for len(leased) < shards {
		if time.Now().After(deadline) {
			t.Fatalf("leased %d of %d shards within deadline", len(leased), shards)
		}
		var lr LeaseResponse
		leaseOne(t, srv.URL, "doomed", shards, &lr)
		for _, l := range lr.Leases {
			leased[l.ID] = l
		}
	}
	for _, l := range leased {
		res, err := runShardForTest(t, l.Spec)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := scenario.EncodeResultEnvelope(l.Spec, res)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(l.Hash, payload); err != nil {
			t.Fatal(err)
		}
	}
	// ... kill -9: no completion ever arrives. The job must still
	// finish, answered entirely from the store at lease expiry.
	out := <-done
	if out.err != nil {
		t.Fatalf("job failed despite every result being in the store: %v", out.err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)

	if n := counterValue(t, reg, "midas_shards_recovered_total", ""); n != float64(shards) {
		t.Errorf("store recoveries = %v, want %d", n, shards)
	}
	if n := counterValue(t, reg, "midas_shards_completed_total", `status="accepted"`); n != 0 {
		t.Errorf("accepted completions = %v, want 0 (nothing was ever POSTed)", n)
	}
	if n := counterValue(t, reg, "midas_shard_requeues_total", `reason="expired"`); n != float64(shards) {
		t.Errorf("expired requeues = %v, want %d", n, shards)
	}
}

// TestWorkerHoldAfterPublishWindow: the HoldAfterPublish hook runs
// after the store publish and before the completion POST — the window
// cluster-e2e's kill -9 phase widens. A worker parked there has
// already made its result durable.
func TestWorkerHoldAfterPublishWindow(t *testing.T) {
	sc, spec := testSpec(t)
	dir := t.TempDir()
	cst := openSharedStore(t, dir)
	c, srv := startCoordinator(t, Config{Store: cst, LeaseTTL: 10 * time.Second})
	done := dispatchAsync(context.Background(), c, sc, spec)

	wst := openSharedStore(t, dir)
	held := make(chan struct{}, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "holder",
			Run: atWidth(1), Store: wst,
			HoldAfterPublish: func() { held <- struct{}{} },
		})
	}()

	// At the moment the hook fires, the blob must already be readable
	// from an independent handle on the shared directory (here: the
	// coordinator's own store) — that is what makes a kill -9 inside
	// the hold recoverable.
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("HoldAfterPublish never fired")
	}
	probe := openSharedStore(t, dir)
	if probe.Stats().Entries == 0 {
		t.Error("no blob visible in the shared store during the acknowledgement window")
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)
}

// TestProtoUnsupportedRejected: both dispatch endpoints refuse a
// request claiming a protocol newer than the coordinator speaks, or
// carrying no version at all (the pre-versioning wire format), with
// the unified error envelope and code "proto_unsupported".
func TestProtoUnsupportedRejected(t *testing.T) {
	_, srv := startCoordinator(t, Config{})
	for _, f := range []struct {
		url  string
		body string
	}{
		{srv.URL + "/v1/shards/lease", `{"proto": 99, "worker": "timetraveler"}`},
		{srv.URL + "/v1/shards/nosuch/complete", `{"proto": 99, "worker": "timetraveler", "error": "x"}`},
		{srv.URL + "/v1/shards/lease", `{"worker": "elder"}`},
		{srv.URL + "/v1/shards/nosuch/complete", `{"worker": "elder", "error": "x"}`},
		{srv.URL + "/v1/shards/lease", `{"proto": 0, "worker": "elder"}`},
	} {
		resp, err := http.Post(f.url, "application/json", strings.NewReader(f.body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
			t.Fatalf("POST %s %s: non-envelope error body: %v", f.url, f.body, derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", f.url, f.body, resp.StatusCode)
		}
		if e.Code != "proto_unsupported" {
			t.Errorf("POST %s %s: code %q, want proto_unsupported", f.url, f.body, e.Code)
		}
	}
}
