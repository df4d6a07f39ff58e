package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Integration tests for the durable result tier (Config.Store): the
// two-tier read-through path, persist-before-done, restart survival,
// and the corruption/fault behaviors the e2e (scripts/drain-e2e.sh)
// proves against the real binary.

// openStore opens a store on dir and registers its Close.
func openStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// The restart-survival pin: a result computed by one Service is served
// by the next one — same store dir, fresh process state — from the
// disk tier, without an engine run, and promoted into memory for the
// submission after that.
func TestStoreRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	spec := specFor(41)

	run1, calls1 := countingRun()
	s1 := New(Config{Workers: 2, Run: run1, Store: openStore(t, store.Config{Dir: dir})})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, st.ID)
	want := renderJob(t, s1, st.ID)
	mustShutdown(t, s1)
	if calls1.Load() != 1 {
		t.Fatalf("cold run calls = %d", calls1.Load())
	}

	// "Restart": a fresh Service over a fresh Store on the same dir.
	run2, calls2 := countingRun()
	s2 := New(Config{Workers: 2, Run: run2, Store: openStore(t, store.Config{Dir: dir})})
	defer mustShutdown(t, s2)

	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.CacheTier != "store" {
		t.Fatalf("restarted submission cached=%v tier=%q, want store hit", st2.Cached, st2.CacheTier)
	}
	if calls2.Load() != 0 {
		t.Fatalf("engine re-ran after restart (calls=%d)", calls2.Load())
	}
	if got := renderJob(t, s2, st2.ID); string(got) != string(want) {
		t.Fatalf("restart-served result not byte-identical:\n%s\nvs\n%s", got, want)
	}

	// The store hit promoted the result into the memory LRU.
	st3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached || st3.CacheTier != "memory" {
		t.Fatalf("promotion missing: cached=%v tier=%q", st3.Cached, st3.CacheTier)
	}
	if hits, storeHits := sample(t, s2, "midas_cache_hits_total"), sample(t, s2, "midas_store_hits_total"); hits != 2 || storeHits != 1 {
		t.Fatalf("after restart: midas_cache_hits_total %v, midas_store_hits_total %v, want 2 and 1", hits, storeHits)
	}
}

// Same survival without the first store ever being Closed — the
// in-process equivalent of kill -9: persist-before-done plus the
// warm scan alone must carry the result across.
func TestStoreSurvivalWithoutClose(t *testing.T) {
	dir := t.TempDir()
	spec := specFor(43)

	run1, _ := countingRun()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Run: run1, Store: st1})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, st.ID)
	want := renderJob(t, s1, st.ID)
	mustShutdown(t, s1)
	// No st1.Close(): the crashed process never got to it.

	run2, calls2 := countingRun()
	s2 := New(Config{Workers: 1, Run: run2, Store: openStore(t, store.Config{Dir: dir})})
	defer mustShutdown(t, s2)
	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.CacheTier != "store" || calls2.Load() != 0 {
		t.Fatalf("result lost without Close: cached=%v tier=%q calls=%d",
			st2.Cached, st2.CacheTier, calls2.Load())
	}
	if got := renderJob(t, s2, st2.ID); string(got) != string(want) {
		t.Fatal("crash-survived result not byte-identical")
	}
}

// A corrupted store entry (bit flip that preserves length, so the warm
// scan admits it) must be quarantined at read time and the spec
// recomputed — never served.
func TestCorruptStoreEntryRecomputedNotServed(t *testing.T) {
	dir := t.TempDir()
	spec := specFor(47)
	hash := mustResolveHash(t, spec)

	run1, _ := countingRun()
	s1 := New(Config{Workers: 1, Run: run1, Store: openStore(t, store.Config{Dir: dir})})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s1, st.ID)
	mustShutdown(t, s1)

	path := filepath.Join(dir, store.EntryRel(hash))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("entry file missing after persist: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	run2, calls2 := countingRun()
	s2 := New(Config{Workers: 1, Run: run2, Store: openStore(t, store.Config{Dir: dir})})
	defer mustShutdown(t, s2)
	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("corrupt entry was served as a cache hit")
	}
	waitDone(t, s2, st2.ID)
	if calls2.Load() != 1 {
		t.Fatalf("corrupt entry did not trigger a recompute (calls=%d)", calls2.Load())
	}
	if q := sample(t, s2, "midas_store_quarantined_total"); q != 1 {
		t.Fatalf("corruption not quarantined: midas_store_quarantined_total %v", q)
	}
}

// An entry that verifies at the byte level but does not decode as a
// result (wrong producer, future format) is quarantined by the service
// and recomputed.
func TestUndecodableStoreEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	spec := specFor(53)
	hash := mustResolveHash(t, spec)

	st := openStore(t, store.Config{Dir: dir})
	if err := st.Put(hash, []byte("not a result {")); err != nil {
		t.Fatal(err)
	}
	run, calls := countingRun()
	s := New(Config{Workers: 1, Run: run, Store: st})
	defer mustShutdown(t, s)

	js, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if js.Cached {
		t.Fatal("undecodable entry served")
	}
	waitDone(t, s, js.ID)
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}
	// The store itself saw a byte-valid hit; the service demoted it.
	if stats := st.Stats(); stats.Quarantined != 1 || stats.Hits != 1 {
		t.Fatalf("unexpected store stats: %+v", stats)
	}
	// The recomputed result must have replaced the quarantined bytes.
	if _, ok := st.Get(hash); !ok {
		t.Fatal("recomputed result not persisted over the quarantined entry")
	}
}

// A store write failure must not fail the job: the result still
// completes and serves from memory, and the error is only a counter.
func TestStoreWriteFailureDoesNotFailJob(t *testing.T) {
	boom := errors.New("injected disk failure")
	st := openStore(t, store.Config{
		Dir:    t.TempDir(),
		Faults: &store.FaultFS{WriteFile: func(string) error { return boom }},
	})
	run, _ := countingRun()
	s := New(Config{Workers: 1, Run: run, Store: st})
	defer mustShutdown(t, s)

	js, err := s.Submit(specFor(59))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s, js.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s) under store write failure", got.State, got.Error)
	}
	if body := renderJob(t, s, js.ID); len(body) == 0 {
		t.Fatal("no result body")
	}
	if stats := st.Stats(); stats.WriteErrors != 1 || stats.Writes != 0 {
		t.Fatalf("write failure not counted: %+v", stats)
	}
}

// mustResolveHash computes the canonical hash the service will use for
// a submitted spec (resolve against the registry first — the hash
// covers the resolved spec, not the overrides).
func mustResolveHash(t *testing.T, overrides scenario.Spec) string {
	t.Helper()
	sc, err := scenario.Find(overrides.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := scenario.Resolve(sc, overrides)
	if err != nil {
		t.Fatal(err)
	}
	return resolved.CanonicalHash()
}
