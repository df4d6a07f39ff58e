package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// testEntry builds a valid entry around a real resolved spec, so the
// round trip exercises the same JSON the coordinator journals.
func testEntry(t testing.TB, seed int64) Entry {
	t.Helper()
	sc, err := scenario.Find("fig12-spatial-reuse")
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	spec, err := scenario.Resolve(sc, scenario.Spec{
		Scenario:   "fig12-spatial-reuse",
		Topologies: 2,
		Seed:       seed,
		Replicates: 2,
		Sweep:      map[string][]float64{"seed": {float64(seed + 1), float64(seed + 2)}},
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	shards := spec.ShardHashes()
	return Entry{
		SpecHash: spec.CanonicalHash(),
		Scenario: spec.Scenario,
		Spec:     spec,
		Shards:   shards,
		Done:     make([]bool, len(shards)),
	}
}

func TestRecordSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("fresh journal has %d entries", j.Len())
	}
	a := testEntry(t, 100)
	b := testEntry(t, 200)
	for _, e := range []Entry{a, b} {
		if err := j.Record(e); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}

	j2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := j2.Entries()
	if len(got) != 2 {
		t.Fatalf("reopened journal has %d entries, want 2", len(got))
	}
	want := map[string]Entry{a.SpecHash: a, b.SpecHash: b}
	for _, e := range got {
		w, ok := want[e.SpecHash]
		if !ok {
			t.Fatalf("unexpected entry %s", e.SpecHash)
		}
		if e.Scenario != w.Scenario || len(e.Shards) != len(w.Shards) || len(e.Done) != len(w.Done) {
			t.Fatalf("entry %s round-tripped as %+v, want %+v", e.SpecHash, e, w)
		}
		for i := range e.Shards {
			if e.Shards[i] != w.Shards[i] {
				t.Fatalf("entry %s shard %d hash %s, want %s", e.SpecHash, i, e.Shards[i], w.Shards[i])
			}
		}
		if e.Spec.CanonicalHash() != e.SpecHash {
			t.Fatalf("round-tripped spec hashes to %s, not %s", e.Spec.CanonicalHash(), e.SpecHash)
		}
	}
}

func TestMarkDonePersists(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := testEntry(t, 300)
	if err := j.Record(e); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := j.MarkDone(e.SpecHash, 1); err != nil {
		t.Fatalf("MarkDone: %v", err)
	}
	if err := j.MarkDone(e.SpecHash, 1); err != nil {
		t.Fatalf("MarkDone again: %v", err)
	}
	// A late publish against a job that already finished and was removed
	// must be a silent no-op, not an error.
	if err := j.MarkDone(strings.Repeat("ab", 32), 0); err != nil {
		t.Fatalf("MarkDone on absent entry: %v", err)
	}
	if err := j.MarkDone(e.SpecHash, len(e.Shards)); err == nil {
		t.Fatal("MarkDone out of range did not error")
	}

	j2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got := j2.Entries()
	if len(got) != 1 {
		t.Fatalf("%d entries after reopen, want 1", len(got))
	}
	if want := []bool{false, true, false, false}; !reflect.DeepEqual(got[0].Done, want) {
		t.Fatalf("done flags %v did not survive reopen", got[0].Done)
	}
}

func TestRemoveDeletesEntry(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := testEntry(t, 400)
	if err := j.Record(e); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := j.Remove(e.SpecHash); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := j.Remove(e.SpecHash); err != nil {
		t.Fatalf("Remove again: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("%d entries after Remove, want 0", j.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, e.SpecHash+".json")); !os.IsNotExist(err) {
		t.Fatalf("entry file still on disk after Remove (stat err %v)", err)
	}
	j2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if j2.Len() != 0 {
		t.Fatalf("removed entry resurrected at reopen")
	}
}

func TestOpenDiscardsMalformedEntries(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	good := testEntry(t, 500)
	if err := j.Record(good); err != nil {
		t.Fatalf("Record: %v", err)
	}
	otherHash := strings.Repeat("cd", 32)
	bad := map[string]string{
		"not-a-hash.json":                  `{"spec_hash": "x"}`,
		strings.Repeat("ef", 32) + ".json": "{torn",
		otherHash + ".json":                `{"spec_hash": "` + good.SpecHash + `", "scenario": "fig12-spatial-reuse"}`,
	}
	for name, content := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	// An interrupted write in tmp/ must be swept too.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "leftover.json"), []byte("{"), 0o644); err != nil {
		t.Fatalf("plant tmp leftover: %v", err)
	}

	j2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen over damage: %v", err)
	}
	got := j2.Entries()
	if len(got) != 1 || got[0].SpecHash != good.SpecHash {
		t.Fatalf("reopen kept %+v, want only %s", got, good.SpecHash)
	}
	for name := range bad {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("malformed entry %s not discarded (stat err %v)", name, err)
		}
	}
	des, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatalf("read tmp: %v", err)
	}
	if len(des) != 0 {
		t.Fatalf("tmp/ not swept: %v", des)
	}
}

func TestRecordValidation(t *testing.T) {
	j, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := testEntry(t, 600)

	bad := e
	bad.SpecHash = "nope"
	if err := j.Record(bad); err == nil {
		t.Fatal("Record accepted a non-hash spec hash")
	}
	bad = e
	bad.Scenario = ""
	if err := j.Record(bad); err == nil {
		t.Fatal("Record accepted an entry with no scenario")
	}
	bad = e
	bad.Done = bad.Done[:1]
	if err := j.Record(bad); err == nil {
		t.Fatal("Record accepted mismatched done flags")
	}
	if j.Len() != 0 {
		t.Fatalf("invalid records left %d entries behind", j.Len())
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open("", nil); err == nil {
		t.Fatal("Open(\"\") did not error")
	}
}
