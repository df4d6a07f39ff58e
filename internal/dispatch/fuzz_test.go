package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// fuzzJob resolves the 2-shard spec the wire fuzzers dispatch.
func fuzzJob(f *testing.F) (scenario.Scenario, scenario.Spec) {
	f.Helper()
	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		f.Fatal(err)
	}
	spec, err := scenario.Resolve(sc, scenario.Spec{Topologies: 2, Seed: 29, Replicates: 2})
	if err != nil {
		f.Fatal(err)
	}
	if n := len(spec.Shards()); n != 2 {
		f.Fatalf("fuzz spec expands to %d shards, want 2", n)
	}
	return sc, spec
}

// fuzzCoordinator starts a fresh coordinator holding one dispatched
// 2-shard job, so every fuzz input meets the same state. The lease TTL
// is long enough that no lease expires mid-input; the worker TTL is
// short, so a lease request that finds nothing grantable parks for
// 5ms, not for the default hold of 7.5s.
func fuzzCoordinator(t *testing.T, sc scenario.Scenario, spec scenario.Spec) *Coordinator {
	t.Helper()
	c := New(Config{LeaseTTL: time.Minute, WorkerTTL: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	t.Cleanup(func() { cancel(); <-done; c.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for pending, _ := c.shardCounts(); pending != 2; pending, _ = c.shardCounts() {
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return c
}

// postRecorded serves one POST through c's handler without a network
// listener.
func postRecorded(c *Coordinator, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkWireInvariants checks what must hold after any body: only a
// closed coordinator may answer 5xx, every error body is the api
// envelope with a code, and no job counts more finished shards than it
// has.
func checkWireInvariants(t *testing.T, c *Coordinator, rec *httptest.ResponseRecorder) {
	t.Helper()
	body := rec.Body.Bytes()
	if rec.Code >= 500 {
		if e := api.Parse(body); rec.Code != http.StatusServiceUnavailable || e.Code != "closed" {
			t.Fatalf("answered %d %s", rec.Code, body)
		}
	}
	if rec.Code >= 300 {
		if e := api.Parse(body); e.Code == "" {
			t.Fatalf("%d error body carries no code: %s", rec.Code, body)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		if j.finished > j.total {
			t.Fatalf("job %s counts %d finished of %d shards", j.id, j.finished, j.total)
		}
	}
}

// oversized is a body over the 1MiB dispatch cap.
var oversized = []byte(`{"worker":"` + strings.Repeat("a", maxBodyBytes) + `"}`)

// FuzzLeaseRequest posts arbitrary lease bodies to a coordinator with
// one dispatched 2-shard job. Beyond the shared wire invariants, a
// granted batch never exceeds the per-request cap and no shard is
// leased twice.
func FuzzLeaseRequest(f *testing.F) {
	sc, spec := fuzzJob(f)
	f.Add([]byte(`{"proto":1,"worker":"w","max":1}`))
	f.Add([]byte(`{"worker":"w","max":2}`))
	f.Add([]byte(`{"proto":99,"worker":"w"}`))
	f.Add([]byte(`{"proto":1,"worker":"w","max":1}garbage`))
	f.Add([]byte(`{"proto":1,"worker":"","max":-3}`))
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, body []byte) {
		c := fuzzCoordinator(t, sc, spec)
		rec := postRecorded(c, "/v1/shards/lease", body)
		checkWireInvariants(t, c, rec)
		if rec.Code != http.StatusOK {
			return
		}
		var lr LeaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
			t.Fatalf("200 body is not a LeaseResponse: %v", err)
		}
		if len(lr.Leases) > c.cfg.maxBatch() {
			t.Fatalf("granted %d leases, cap is %d", len(lr.Leases), c.cfg.maxBatch())
		}
		seen := map[int]bool{}
		for _, l := range lr.Leases {
			if seen[l.Shard] {
				t.Fatalf("shard %d leased twice in one batch", l.Shard)
			}
			seen[l.Shard] = true
		}
		if pending, leased := c.shardCounts(); leased+pending != 2 {
			t.Fatalf("queue holds %d leased + %d pending shards, want 2", leased, pending)
		}
	})
}

// FuzzCompleteRequest posts arbitrary completion bodies under an
// unknown lease id and then under the live lease of a coordinator with
// one dispatched 2-shard job. Beyond the shared wire invariants, every
// 200 carries a known status and an unknown lease is never accepted.
func FuzzCompleteRequest(f *testing.F) {
	sc, spec := fuzzJob(f)
	res, err := runShard(context.Background(), spec.Shards()[0])
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(CompleteRequest{Proto: ProtoVersion, Worker: "w", Result: &res})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"proto":1,"worker":"w","error":"boom"}`))
	f.Add([]byte(`{"proto":1,"worker":"w","stored_hash":"` + strings.Repeat("ab", 32) + `","digest":"00"}`))
	f.Add([]byte(`{"proto":1,"worker":"w"}`))
	f.Add([]byte(`{"proto":99,"worker":"w","error":"x"}`))
	f.Add(append(append([]byte(nil), valid...), "garbage"...))
	f.Add(oversized)
	statuses := map[string]bool{"accepted": true, "requeued": true, "duplicate": true, "stale": true, "resend": true}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := fuzzCoordinator(t, sc, spec)
		lease := postRecorded(c, "/v1/shards/lease", []byte(`{"proto":1,"worker":"w","max":1}`))
		var lr LeaseResponse
		if err := json.Unmarshal(lease.Body.Bytes(), &lr); err != nil || len(lr.Leases) != 1 {
			t.Fatalf("lease setup: %d %s", lease.Code, lease.Body)
		}
		for _, id := range []string{"no-such-lease", lr.Leases[0].ID} {
			rec := postRecorded(c, "/v1/shards/"+id+"/complete", body)
			checkWireInvariants(t, c, rec)
			if rec.Code != http.StatusOK {
				continue
			}
			var cr CompleteResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || !statuses[cr.Status] {
				t.Fatalf("200 body is not a CompleteResponse with a known status: %s", rec.Body)
			}
			if id != lr.Leases[0].ID && cr.Status == "accepted" {
				t.Fatal("completion under an unknown lease id was accepted")
			}
		}
	})
}
