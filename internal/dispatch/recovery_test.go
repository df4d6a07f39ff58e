package dispatch

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// openStoreAndJournal stands up the durable pair the way midas-serve
// wires them: the journal lives under the store dir, where the store's
// warm scan ignores it.
func openStoreAndJournal(t *testing.T, dir string) (*store.Store, *journal.Journal) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(filepath.Join(dir, "journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, jn
}

// collectLeases polls until n leases have been granted to worker.
func collectLeases(t *testing.T, base, worker string, n int) []ShardLease {
	t.Helper()
	var got []ShardLease
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n {
		var lr LeaseResponse
		leaseOne(t, base, worker, n-len(got), &lr)
		got = append(got, lr.Leases...)
		if time.Now().After(deadline) {
			t.Fatalf("collected %d/%d leases", len(got), n)
		}
		if len(got) < n {
			time.Sleep(time.Millisecond)
		}
	}
	return got
}

// completeLease runs a lease's shard for real and reports it.
func completeLease(t *testing.T, base, worker string, l ShardLease) string {
	t.Helper()
	res, err := runShardForTest(t, l.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	postForTest(t, base+"/v1/shards/"+l.ID+"/complete",
		CompleteRequest{Worker: worker, Result: &res}, &cr)
	return cr.Status
}

// TestJournalResumeAfterRestart is the tentpole contract: a
// coordinator that dies mid-sweep (here: Close, which like kill -9
// leaves the journal entry and the published shard results behind)
// hands the half-finished job to its successor, which re-executes only
// the shards whose results never reached the store and assembles a
// result byte-identical to the single-process run.
func TestJournalResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	sc, spec := testSpec(t) // 4 shards

	// First incarnation: dispatch, let exactly 2 shards complete.
	st1, jn1 := openStoreAndJournal(t, dir)
	c1, srv1 := startCoordinator(t, Config{Store: st1, Journal: jn1})
	done1 := dispatchAsync(context.Background(), c1, sc, spec)
	for _, l := range collectLeases(t, srv1.URL, "early", 2) {
		if got := completeLease(t, srv1.URL, "early", l); got != "accepted" {
			t.Fatalf("pre-crash completion status %q", got)
		}
	}
	srv1.Close()
	c1.Close()
	if out := <-done1; out.err == nil {
		t.Fatal("job survived its coordinator's death")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if jn1.Len() != 1 {
		t.Fatalf("journal holds %d entries after unclean shutdown, want 1", jn1.Len())
	}

	// Second incarnation over the same dir.
	st2, jn2 := openStoreAndJournal(t, dir)
	t.Cleanup(func() { st2.Close() })
	reg := telemetry.NewRegistry()
	c2, srv2 := startCoordinator(t, Config{Store: st2, Journal: jn2, Telemetry: reg})

	rec := c2.Recovered()
	if len(rec) != 1 {
		t.Fatalf("Recovered() = %d entries, want 1", len(rec))
	}
	e := rec[0]
	if e.SpecHash != spec.CanonicalHash() || e.Scenario != sc.Name() {
		t.Fatalf("recovered entry %s/%s, want %s/%s", e.SpecHash, e.Scenario, spec.CanonicalHash(), sc.Name())
	}
	if e.Spec.CanonicalHash() != e.SpecHash {
		t.Fatalf("recovered entry's spec hashes to %s, want %s", e.Spec.CanonicalHash(), e.SpecHash)
	}

	// Re-dispatch from the journal entry, exactly as midas-serve does.
	sc2, err := scenario.Find(e.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	done2 := dispatchAsync(context.Background(), c2, sc2, e.Spec)

	var runs atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv2.URL, ID: "late", Poll: 2 * time.Millisecond,
			Run: func(rctx context.Context, s scenario.Spec) (scenario.Result, error) {
				runs.Add(1)
				s.Parallelism = 1
				return runShard(rctx, s)
			},
		})
	}()
	out := <-done2
	cancel()
	<-workerDone
	if out.err != nil {
		t.Fatalf("resumed dispatch failed: %v", out.err)
	}

	// Zero re-execution of journaled-complete shards: only the 2
	// missing shards ran, the other 2 came from the store.
	if n := runs.Load(); n != 2 {
		t.Errorf("resumed job executed %d shards, want exactly 2", n)
	}
	if n := counterValue(t, reg, "midas_shards_recovered_total", ""); n != 2 {
		t.Errorf("midas_shards_recovered_total = %v, want 2", n)
	}
	if n := counterValue(t, reg, "midas_jobs_resumed_total", ""); n != 1 {
		t.Errorf("midas_jobs_resumed_total = %v, want 1", n)
	}

	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, out.res)

	// The finished job leaves no journal entry to resurrect.
	if jn2.Len() != 0 {
		t.Errorf("journal still holds %d entries after the resumed job finished", jn2.Len())
	}
	if jn3, err := journal.Open(filepath.Join(dir, "journal"), nil); err != nil || jn3.Len() != 0 {
		t.Errorf("journal dir not empty on disk (err %v, %d entries)", err, jn3.Len())
	}
}

// TestSharedSweepPointsRecoveredFromStore: shard-level caching across
// jobs — a second sweep sharing a sweep point with an earlier one
// skips the shared shards via store hits, without any restart.
func TestSharedSweepPointsRecoveredFromStore(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sc, specA := testSpec(t) // sweep seeds {101, 102} × 2 replicates
	specB, err := scenario.Resolve(sc, scenario.Spec{
		Topologies: 2, Seed: 17, Replicates: 2,
		Sweep: map[string][]float64{"seed": {102, 103}},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{Store: st, Telemetry: reg})
	var runs atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "w", Poll: 2 * time.Millisecond,
			Run: func(rctx context.Context, s scenario.Spec) (scenario.Result, error) {
				runs.Add(1)
				s.Parallelism = 1
				return runShard(rctx, s)
			},
		})
	}()

	if _, err := c.Run(context.Background(), sc, specA, scenario.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 4 {
		t.Fatalf("job A executed %d shards, want 4", n)
	}
	gotB, err := c.Run(context.Background(), sc, specB, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// B's seed-102 point (2 replicate shards) came from A's publishes.
	if n := runs.Load(); n != 6 {
		t.Errorf("jobs A+B executed %d shards, want 6 (2 shared shards skipped)", n)
	}
	if n := counterValue(t, reg, "midas_shards_recovered_total", ""); n != 2 {
		t.Errorf("midas_shards_recovered_total = %v, want 2", n)
	}
	wantB, _ := scenario.RunResolved(context.Background(), sc, specB, scenario.RunOptions{})
	assertSameResult(t, wantB, gotB)
}

// TestUndecodableShardEntryRecomputed: a store entry that verifies at
// the byte level but does not decode as a result is quarantined and
// the shard re-executed — never assembled.
func TestUndecodableShardEntryRecomputed(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sc, spec := testSpec(t)
	poisoned := spec.ShardHashes()[0]
	if err := st.Put(poisoned, []byte("not a result")); err != nil {
		t.Fatal(err)
	}

	c, srv := startCoordinator(t, Config{Store: st})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "w", Poll: 2 * time.Millisecond, Parallelism: 1,
		})
	}()
	got, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	assertSameResult(t, want, got)
	if q := st.Stats().Quarantined; q < 1 {
		t.Errorf("poisoned entry not quarantined (%d quarantines)", q)
	}
	// The re-executed shard republished a decodable entry.
	payload, ok := st.Get(poisoned)
	if !ok {
		t.Fatal("shard entry missing after recompute")
	}
	if _, err := scenario.DecodeResultEnvelope(payload); err != nil {
		t.Errorf("republished shard entry still undecodable: %v", err)
	}
}

// TestStaleDispatchJournalEntryRemoved: a Run rejected because the
// coordinator closed between journaling and enqueueing must not leave
// a journal entry for work that never started.
func TestStaleDispatchJournalEntryRemoved(t *testing.T) {
	dir := t.TempDir()
	st, jn := openStoreAndJournal(t, dir)
	t.Cleanup(func() { st.Close() })
	sc, spec := testSpec(t)
	c := New(Config{Store: st, Journal: jn, SweepInterval: 5 * time.Millisecond})
	c.Close()
	if _, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{}); err == nil {
		t.Fatal("Run accepted after Close")
	}
	if jn.Len() != 0 {
		t.Fatalf("rejected Run left %d journal entries", jn.Len())
	}
}

// journalOpCounter counts the writes and removes that reach a journal
// backend.
type journalOpCounter struct {
	store.Backend
	writes, removes atomic.Int64
}

func (b *journalOpCounter) Write(name string, data []byte) error {
	b.writes.Add(1)
	return b.Backend.Write(name, data)
}

func (b *journalOpCounter) Remove(name string) error {
	b.removes.Add(1)
	return b.Backend.Remove(name)
}

// TestJournalWrittenOncePerJob: the journal holds what resume reads —
// the resolved spec — so a dispatched job costs one entry write when
// it is enqueued and one remove when it finishes, however many shards
// it has. Shard completions are recorded by the store alone.
func TestJournalWrittenOncePerJob(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	be, err := store.OpenDir(filepath.Join(dir, "journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cb := &journalOpCounter{Backend: be}
	jn, err := journal.OpenBackend(cb, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, spec := testSpec(t) // 4 shards
	c, srv := startCoordinator(t, Config{Store: st, Journal: jn})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, ID: "w", Poll: 2 * time.Millisecond, Parallelism: 1,
		})
	}()
	if _, err := c.Run(context.Background(), sc, spec, scenario.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if w, r := cb.writes.Load(), cb.removes.Load(); w != 1 || r != 1 {
		t.Errorf("a %d-shard job cost %d journal writes and %d removes, want 1 and 1",
			len(spec.Shards()), w, r)
	}
	if jn.Len() != 0 {
		t.Errorf("journal holds %d entries after the job finished", jn.Len())
	}
}

// TestCompletionClassificationAfterExpiry pins the tombstone taxonomy
// exactly: a shard leased, expired and re-leased answers a completion
// under the NEW lease "accepted", a re-report of that same new id
// "duplicate", and a late publish under the OLD (expired) id "stale" —
// and midas_shards_completed_total counts exactly one event per
// verdict.
func TestCompletionClassificationAfterExpiry(t *testing.T) {
	sc, spec := testSpec(t)
	reg := telemetry.NewRegistry()
	c, srv := startCoordinator(t, Config{
		LeaseTTL:    20 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Telemetry:   reg,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(ctx, c, sc, spec)
	t.Cleanup(func() { cancel(); <-done })

	// Lease every shard and report nothing. Run one shard's engine work
	// now — the result only depends on the spec, and computing it here
	// lets the TTL clock run — then wait for the sweeper to expire and
	// re-grant the whole set.
	early := collectLeases(t, srv.URL, "early", spec.ExpandedRuns())
	old := early[0]
	res, err := runShardForTest(t, old.Spec)
	if err != nil {
		t.Fatal(err)
	}
	late := collectLeases(t, srv.URL, "late", spec.ExpandedRuns())

	// Pair the shard's expired and fresh incarnations.
	var fresh ShardLease
	found := false
	for _, l := range late {
		if l.Job == old.Job && l.Shard == old.Shard {
			fresh, found = l, true
		}
	}
	if !found {
		t.Fatalf("no fresh lease for shard %d among %+v", old.Shard, late)
	}
	if old.ID == fresh.ID {
		t.Fatal("re-lease after expiry reused the lease id")
	}
	report := func(leaseID string) string {
		var cr CompleteResponse
		postForTest(t, srv.URL+"/v1/shards/"+leaseID+"/complete",
			CompleteRequest{Worker: "late", Result: &res}, &cr)
		return cr.Status
	}
	if got := report(fresh.ID); got != "accepted" {
		t.Fatalf("completion under live lease = %q, want accepted", got)
	}
	if got := report(fresh.ID); got != "duplicate" {
		t.Errorf("re-report under completed lease = %q, want duplicate", got)
	}
	if got := report(old.ID); got != "stale" {
		t.Errorf("late publish under expired lease = %q, want stale", got)
	}

	for status, want := range map[string]float64{
		"accepted": 1, "duplicate": 1, "stale": 1, "requeued": 0,
	} {
		if n := counterValue(t, reg, "midas_shards_completed_total", `status="`+status+`"`); n != want {
			t.Errorf("completions{status=%q} = %v, want %v", status, n, want)
		}
	}
}
