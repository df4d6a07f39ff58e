package scenario

import (
	"encoding/json"
	"errors"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

var discardLog = slog.New(slog.DiscardHandler)

func envelopeFixture() (Spec, Result) {
	spec := Spec{Scenario: "fig12-spatial-reuse", Topologies: 2, Seed: 3, Parallelism: 4}
	res := Result{Scenario: spec.Scenario, Text: []string{"fixture"}}
	res.AddMetric("gain", 1.5, "x", "")
	return spec, res
}

func openTestStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open(store.Config{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// TestLoadResultRoundTrip: what PublishResult writes, LoadResult reads
// back — spec canonicalized to parallelism 0, payload byte-identical
// to the canonical encoding — and a missing entry or absent store is
// errNotStored.
func TestLoadResultRoundTrip(t *testing.T) {
	st := openTestStore(t)
	spec, res := envelopeFixture()
	hash := spec.CanonicalHash()
	if _, _, err := LoadResult(nil, discardLog, hash); !errors.Is(err, errNotStored) {
		t.Fatalf("nil store: err = %v, want errNotStored", err)
	}
	if _, _, err := LoadResult(st, discardLog, hash); !errors.Is(err, errNotStored) {
		t.Fatalf("empty store: err = %v, want errNotStored", err)
	}
	written, err := PublishResult(st, hash, spec, res)
	if err != nil {
		t.Fatal(err)
	}
	env, payload, err := LoadResult(st, discardLog, hash)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeResultEnvelope(spec, res)
	if string(written) != string(want) || string(payload) != string(want) {
		t.Errorf("stored bytes differ from the canonical envelope")
	}
	spec.Parallelism = 0
	if !reflect.DeepEqual(env.Spec, spec) || !reflect.DeepEqual(env.Result, res) {
		t.Errorf("round trip changed the envelope:\n got %+v\nwant %+v / %+v", env, spec, res)
	}
}

// TestLoadResultQuarantinesMisfiled: a valid envelope under another
// spec's address is never served — it is quarantined and reported.
func TestLoadResultQuarantinesMisfiled(t *testing.T) {
	st := openTestStore(t)
	spec, res := envelopeFixture()
	other := strings.Repeat("ab", 32)
	if _, err := PublishResult(st, other, spec, res); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadResult(st, discardLog, other); err == nil || errors.Is(err, errNotStored) {
		t.Fatalf("misfiled envelope: err = %v, want an address mismatch", err)
	}
	if _, ok := st.Get(other); ok {
		t.Error("misfiled envelope still served by the store")
	}
	if q := st.Stats().Quarantined; q != 1 {
		t.Errorf("quarantined %d entries, want 1", q)
	}
}

// FuzzLoadResult stores an arbitrary payload under an arbitrary
// address and loads it: LoadResult either errors — and then the entry
// is no longer served — or yields a consistent envelope whose spec
// hashes to that address. It never panics.
func FuzzLoadResult(f *testing.F) {
	st := openTestStore(f)
	spec, res := envelopeFixture()
	hash := spec.CanonicalHash()
	valid, err := EncodeResultEnvelope(spec, res)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	// Rename the result's scenario (the last occurrence), leaving the
	// spec — and so the address — intact.
	cut := strings.LastIndex(string(valid), `"fig12-spatial-reuse"`)
	mismatched := string(valid[:cut]) + `"fig14"` + string(valid[cut+len(`"fig12-spatial-reuse"`):])
	f.Add(hash, valid)
	f.Add(hash, bare)
	f.Add(strings.Repeat("ab", 32), valid) // misfiled
	f.Add(hash, []byte(mismatched))
	f.Add("not-a-hash", valid)
	f.Fuzz(func(t *testing.T, addr string, payload []byte) {
		stored := st.Put(addr, payload) == nil
		env, _, err := LoadResult(st, discardLog, addr)
		if err != nil {
			if _, ok := st.Get(addr); ok {
				t.Fatalf("rejected entry still served: %v", err)
			}
			return
		}
		if !stored {
			t.Fatalf("loaded an envelope from address %q that never stored one", addr)
		}
		if got := env.Spec.CanonicalHash(); got != addr {
			t.Fatalf("loaded envelope's spec hashes to %s, stored under %s", got, addr)
		}
		if env.Spec.Scenario == "" || env.Spec.Scenario != env.Result.Scenario {
			t.Fatalf("inconsistent envelope: spec %q, result %q", env.Spec.Scenario, env.Result.Scenario)
		}
	})
}
