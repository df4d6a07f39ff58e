package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// hashOf returns a deterministic valid content address for a label.
func hashOf(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	h := hashOf("a")
	payload := []byte(`{"answer": 42}` + "\n")

	s := mustOpen(t, Config{Dir: dir})
	if _, ok := s.Get(h); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(h, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(h)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Fatalf("Bytes = %d, want > payload length %d (header charged)", st.Bytes, len(payload))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the warm scan must rebuild the index from disk alone.
	s2 := mustOpen(t, Config{Dir: dir})
	got2, ok := s2.Get(h)
	if !ok || string(got2) != string(payload) {
		t.Fatalf("entry did not survive reopen: ok=%v payload=%q", ok, got2)
	}
}

func TestReopenWithoutCloseStillServes(t *testing.T) {
	// Skipping Close models a crash: entries are fsynced at Put, so
	// nothing is lost.
	dir := t.TempDir()
	h := hashOf("crash")
	payload := []byte("survives kill -9")
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(h, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// No Close.
	s2 := mustOpen(t, Config{Dir: dir})
	got, ok := s2.Get(h)
	if !ok || string(got) != string(payload) {
		t.Fatalf("entry lost without Close: ok=%v payload=%q", ok, got)
	}
}

func TestTornWriteLeavesNoEntryAndSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	h := hashOf("torn")
	boom := errors.New("injected crash before rename")
	s := mustOpen(t, Config{
		Dir:    dir,
		Faults: &FaultFS{Rename: func(_, _ string) error { return boom }},
	})
	if err := s.Put(h, []byte("never published")); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected %v", err, boom)
	}
	if _, ok := s.Get(h); ok {
		t.Fatal("torn write became visible")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("unexpected stats after torn write: %+v", st)
	}
	// The fault deliberately leaves the temp file, like a real crash.
	tmps, err := os.ReadDir(filepath.Join(dir, tmpDirName))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("want exactly the torn temp file left behind, got %d (err %v)", len(tmps), err)
	}

	// Recovery: once the temp is old enough to be a crash leftover
	// rather than a live writer's, the next Open sweeps it and sees an
	// empty store.
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(filepath.Join(dir, tmpDirName, tmps[0].Name()), old, old); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("store not empty after recovery: %+v", st)
	}
	tmps, _ = os.ReadDir(filepath.Join(dir, tmpDirName))
	if len(tmps) != 0 {
		t.Fatalf("tmp/ not swept at Open: %d files remain", len(tmps))
	}
}

func TestWriteFaultCleansTemp(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected write failure")
	s := mustOpen(t, Config{
		Dir:    dir,
		Faults: &FaultFS{WriteFile: func(string) error { return boom }},
	})
	if err := s.Put(hashOf("w"), []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected %v", err, boom)
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, tmpDirName))
	if len(tmps) != 0 {
		t.Fatalf("temp file not removed after write fault: %d files", len(tmps))
	}
}

func TestTruncatedEntryQuarantinedOnWarmScan(t *testing.T) {
	dir := t.TempDir()
	h := hashOf("truncme")
	payload := []byte("a payload long enough to truncate meaningfully")
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(h, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// Tear off the tail, as a filesystem losing a data extent would.
	path := filepath.Join(dir, EntryRel(h))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, info.Size()-10); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if _, ok := s2.Get(h); ok {
		t.Fatal("truncated entry was served")
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("unexpected stats after truncated warm scan: %+v", st)
	}
	qs, _ := os.ReadDir(filepath.Join(dir, quarantineDirName))
	if len(qs) != 1 {
		t.Fatalf("truncated entry not moved to quarantine: %d files there", len(qs))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated entry still at %s", path)
	}
}

func TestCorruptPayloadQuarantinedOnGet(t *testing.T) {
	// A length-preserving bit flip passes the warm scan's quick check
	// and must be caught by the full checksum at Get.
	dir := t.TempDir()
	h := hashOf("flip")
	payload := []byte("bytes that will be flipped in place")
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(h, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	path := filepath.Join(dir, EntryRel(h))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	s2 := mustOpen(t, Config{Dir: dir})
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("length-preserving flip should pass warm scan, stats %+v", st)
	}
	if _, ok := s2.Get(h); ok {
		t.Fatal("corrupt entry was served")
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("unexpected stats after corrupt Get: %+v", st)
	}
	if _, ok := s2.Get(h); ok {
		t.Fatal("quarantined entry came back")
	}
}

func TestForeignFileQuarantinedOnWarmScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	s.Close()
	// A stray file under a fan-out path whose name is no content address.
	strayDir := filepath.Join(dir, "ab", "cd")
	if err := os.MkdirAll(strayDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(strayDir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if st := s2.Stats(); st.Entries != 0 || st.Quarantined != 1 {
		t.Fatalf("stray file not quarantined: %+v", st)
	}
}

func TestByteBudgetEvictionHonorsRecency(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("x", 1000))
	entrySize := int64(len(frame(payload)))
	// Budget for exactly two entries.
	s := mustOpen(t, Config{Dir: dir, MaxBytes: 2 * entrySize})

	ha, hb, hc := hashOf("a"), hashOf("b"), hashOf("c")
	for _, h := range []string{ha, hb} {
		if err := s.Put(h, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, ok := s.Get(ha); !ok {
		t.Fatal("Get(a)")
	}
	if err := s.Put(hc, payload); err != nil {
		t.Fatalf("Put(c): %v", err)
	}
	if _, ok := s.Get(hb); ok {
		t.Fatal("LRU victim b still present")
	}
	if _, ok := s.Get(ha); !ok {
		t.Fatal("recently-touched a was evicted")
	}
	if _, ok := s.Get(hc); !ok {
		t.Fatal("just-written c was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2*entrySize {
		t.Fatalf("unexpected stats after eviction: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, EntryRel(hb))); !os.IsNotExist(err) {
		t.Fatal("evicted entry's file not deleted")
	}
}

func TestReadRecencyDrivesReopenEviction(t *testing.T) {
	// Recency recorded by Get must survive Close/Open and steer the
	// budget enforcement of the next process.
	dir := t.TempDir()
	payload := []byte(strings.Repeat("y", 500))
	entrySize := int64(len(frame(payload)))
	ha, hb := hashOf("a"), hashOf("b")

	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(ha, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hb, payload); err != nil {
		t.Fatal(err)
	}
	// a was written first but read last.
	if _, ok := s.Get(ha); !ok {
		t.Fatal("Get(a)")
	}
	s.Close()

	// Reopen with room for only one entry: b (older access) must go.
	s2 := mustOpen(t, Config{Dir: dir, MaxBytes: entrySize})
	if _, ok := s2.Get(hb); ok {
		t.Fatal("open-time eviction kept the unread entry")
	}
	if _, ok := s2.Get(ha); !ok {
		t.Fatal("open-time eviction dropped the recently-read entry")
	}
}

func TestGetTouchSurvivesKill(t *testing.T) {
	// The read-heavy kill -9 scenario: a Get moves the blob's mod-time
	// on disk at once, so a process that only reads and dies without
	// Close still steers the next open's eviction.
	dir := t.TempDir()
	payload := []byte(strings.Repeat("h", 500))
	entrySize := int64(len(frame(payload)))
	ha, hb := hashOf("a"), hashOf("b")

	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(ha, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(hb, payload); err != nil {
		t.Fatal(err)
	}
	// Age both blobs, a older than b, so only a Get can reorder them
	// whatever the file system's timestamp granularity.
	pa, pb := filepath.Join(dir, EntryRel(ha)), filepath.Join(dir, EntryRel(hb))
	base := time.Now().Add(-time.Hour)
	if err := os.Chtimes(pa, base, base); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(pb, base.Add(time.Minute), base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ha); !ok {
		t.Fatal("Get(a)")
	}
	ia, err := os.Stat(pa)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := os.Stat(pb)
	if err != nil {
		t.Fatal(err)
	}
	if !ia.ModTime().After(ib.ModTime()) {
		t.Fatalf("Get did not move a's mod-time past b's: a %v, b %v", ia.ModTime(), ib.ModTime())
	}
	// No Close: the store is abandoned as a kill -9 would leave it.

	// The next process has room for one entry: b (older access) must go.
	s2 := mustOpen(t, Config{Dir: dir, MaxBytes: entrySize})
	if _, ok := s2.Get(hb); ok {
		t.Fatal("open-time eviction kept the unread entry")
	}
	if _, ok := s2.Get(ha); !ok {
		t.Fatal("open-time eviction dropped the recently-read entry")
	}
}

func TestOversizeAndInvalidPutRejected(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxBytes: 64})
	if err := s.Put(hashOf("big"), []byte(strings.Repeat("z", 1000))); err == nil {
		t.Fatal("oversize Put accepted")
	}
	if err := s.Put("not-a-hash", []byte("x")); err == nil {
		t.Fatal("invalid hash accepted")
	}
	if err := s.Put(strings.ToUpper(hashOf("case")), []byte("x")); err == nil {
		t.Fatal("uppercase hash accepted")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Entries != 0 {
		// Only the oversize one counts as a write error; invalid
		// hashes are caller bugs rejected before any I/O.
		t.Fatalf("unexpected stats: %+v", st)
	}
	if _, ok := s.Get("also-not-a-hash"); ok {
		t.Fatal("invalid hash Get hit")
	}
}

func TestEvictionRacingConcurrentReads(t *testing.T) {
	// Hammer a budget-constrained store with concurrent reads and
	// writes: every Get must return either the correct payload or a
	// clean miss, never an error, a torn payload, or a race-detector
	// report.
	dir := t.TempDir()
	payload := []byte(strings.Repeat("r", 2000))
	entrySize := int64(len(frame(payload)))
	s := mustOpen(t, Config{Dir: dir, MaxBytes: 3 * entrySize})

	const keys = 8
	hashes := make([]string, keys)
	for i := range hashes {
		hashes[i] = hashOf(fmt.Sprintf("race-%d", i))
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := hashes[(w+i)%keys]
				if err := s.Put(h, payload); err != nil {
					t.Errorf("Put(%s): %v", h[:8], err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				h := hashes[(w*3+i)%keys]
				if got, ok := s.Get(h); ok && string(got) != string(payload) {
					t.Errorf("Get(%s) returned corrupt payload", h[:8])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Bytes > 3*entrySize {
		t.Fatalf("budget not enforced after race: %+v", st)
	}
	if st.Quarantined != 0 {
		t.Fatalf("race produced quarantines: %+v", st)
	}
	// Whatever survived must still verify.
	for _, h := range hashes {
		if got, ok := s.Get(h); ok && string(got) != string(payload) {
			t.Fatalf("surviving entry %s corrupt", h[:8])
		}
	}
}

func TestGarbageManifestIgnored(t *testing.T) {
	// Older versions kept access-time hints in manifest.json (and
	// manifest-<nonce>.json per process). Such files sit outside the
	// fan-out tree: whatever they hold, they are never read, quarantined
	// or charged to the budget.
	dir := t.TempDir()
	h := hashOf("g")
	payload := []byte("x")
	s := mustOpen(t, Config{Dir: dir})
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	strays := map[string]string{
		"manifest.json":   "{torn",
		"manifest-x.json": `{"version":1,"atimes":{"` + h + `":1}}`,
	}
	for name, content := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, Config{Dir: dir})
	st := s2.Stats()
	if st.Entries != 1 || st.Quarantined != 0 || st.Bytes != int64(len(frame(payload))) {
		t.Fatalf("stray manifests changed the index: %+v", st)
	}
	if _, ok := s2.Get(h); !ok {
		t.Fatal("entry lost next to stray manifests")
	}
	for name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s was moved: %v", name, err)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

func TestParseEntryErrors(t *testing.T) {
	good := frame([]byte("payload"))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no newline", []byte("midas-store/v1 abc 3")},
		{"wrong magic", []byte("other/v1 abc 3\nxyz")},
		{"bad length", []byte("midas-store/v1 abc notanum\nxyz")},
		{"negative length", []byte("midas-store/v1 abc -1\nxyz")},
		{"truncated", good[:len(good)-2]},
		{"extra bytes", append(append([]byte{}, good...), 'x')},
	}
	for _, c := range cases {
		if _, err := parseEntry(c.data); err == nil {
			t.Errorf("parseEntry(%s) accepted", c.name)
		}
	}
	if payload, err := parseEntry(good); err != nil || string(payload) != "payload" {
		t.Fatalf("parseEntry(good) = %q, %v", payload, err)
	}
	// Empty payloads are legal.
	if payload, err := parseEntry(frame(nil)); err != nil || len(payload) != 0 {
		t.Fatalf("parseEntry(frame(nil)) = %q, %v", payload, err)
	}
}
