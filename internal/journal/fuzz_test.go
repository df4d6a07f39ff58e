package journal

import (
	"encoding/json"
	"errors"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/store"
)

// FuzzOpenBackend puts one arbitrary blob under an arbitrary name in a
// journal directory and opens it: the journal must either leave the
// blob alone (not an entry name), discard it, or load exactly one entry
// that validates and is filed under its own spec hash — never panic,
// never fail the open.
func FuzzOpenBackend(f *testing.F) {
	e := testEntry(f, 100)
	full, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	e.Shards, e.Done = nil, nil
	specOnly, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	e = testEntry(f, 100)
	e.Done = e.Done[1:]
	ragged, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	name := blobName(e.SpecHash)
	f.Add(name, full)
	f.Add(name, specOnly)
	f.Add(name, ragged)
	f.Add(blobName(strings.Repeat("ab", 32)), specOnly) // misfiled
	f.Add(name, []byte("not json"))
	f.Add("notes.json", specOnly)
	f.Add(e.SpecHash+".txt", specOnly)
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		be, err := store.OpenDir(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if be.Write(name, data) != nil {
			t.Skip() // not a blob name the backend accepts
		}
		j, err := OpenBackend(be, nil)
		if err != nil {
			t.Fatalf("OpenBackend: %v", err)
		}
		entries := j.Entries()
		switch {
		case len(entries) > 1:
			t.Fatalf("one blob loaded as %d entries", len(entries))
		case len(entries) == 1:
			got := entries[0]
			if err := got.validate(); err != nil {
				t.Fatalf("loaded entry does not validate: %v", err)
			}
			if blobName(got.SpecHash) != name {
				t.Fatalf("entry for %s loaded from %q", got.SpecHash, name)
			}
		case !strings.Contains(name, "/") && strings.HasSuffix(name, ".json"):
			if _, err := be.Stat(name); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("rejected entry %q not discarded (stat: %v)", name, err)
			}
		}
	})
}
