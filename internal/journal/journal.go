// Package journal persists the dispatch coordinator's in-flight job
// state so a restarted coordinator can resume half-finished sweeps
// instead of discarding them. One entry per dispatched job, keyed by
// the resolved spec's content address (scenario.Spec.CanonicalHash):
// the resolved spec, for re-admission. The entry is written once when
// the job is dispatched and removed when the job ends for good (done,
// failed, or cancelled) — but kept when the coordinator shuts down with
// the job still open, which is exactly the state a restart wants to
// see. Which shards of a resumed job are already finished is not
// journaled: the re-admitted job asks the durable result store, which
// is the record of every published shard.
//
// The journal stores its entries through the same Backend seam as the
// result store (store.Backend), rooted at its own directory —
// midas-serve puts it inside the store dir, where the store's warm
// scan ignores it:
//
//	<dir>/<spec-hash>.json   one entry per open dispatched job
//	<dir>/tmp/               in-flight writes (swept by the backend)
//
// Backend.Write carries the write-temp→fsync→rename discipline, so a
// crash at any instant leaves either the previous entry or the new one
// — never a torn file reachable under its final name.
//
// Entries are advisory resume hints, which is what makes a SHARED
// journal backend safe: two coordinators on one shared store dir may
// clobber each other's entry for a spec they both dispatched, or
// remove it when either finishes — the loser of such a race loses a
// resume hint, never a result.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sort"
	"strings"
	"sync"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Entry is one journaled dispatched job.
type Entry struct {
	// SpecHash is the resolved spec's content address — the entry's
	// identity and its file name.
	SpecHash string `json:"spec_hash"`
	// Scenario is the registered scenario name, for re-admission.
	Scenario string `json:"scenario"`
	// Spec is the resolved spec, verbatim, so a restarted process can
	// re-dispatch the job without the original submission.
	Spec scenario.Spec `json:"spec"`
	// Shards and Done are per-shard store addresses and completion
	// flags that resume never reads: the coordinator leaves them empty
	// and never calls MarkDone. They remain only for the benchmark
	// harness's journal probe (perfbench), which measures the cost of
	// per-shard entry rewrites.
	Shards []string `json:"shards,omitempty"`
	Done   []bool   `json:"done,omitempty"`
}

func (e Entry) clone() Entry {
	cp := e
	cp.Shards = append([]string(nil), e.Shards...)
	cp.Done = append([]bool(nil), e.Done...)
	return cp
}

// Journal is a crash-safe journal of open dispatched jobs. All methods
// are safe for concurrent use.
type Journal struct {
	be  store.Backend
	log *slog.Logger

	mu      sync.Mutex
	entries map[string]*Entry
}

// Open opens a journal over a single-process directory backend rooted
// at dir (created if absent) — the common case. See OpenBackend.
func Open(dir string, log *slog.Logger) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: dir is required")
	}
	be, err := store.OpenDir(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return OpenBackend(be, log)
}

// OpenBackend opens a journal over an existing backend (the backend's
// own open already swept interrupted writes) and loads every readable
// entry. A blob that does not parse as a consistent entry is discarded
// with a warning — the shard results it pointed at are still in the
// store, only the resume hint is lost.
func OpenBackend(be store.Backend, log *slog.Logger) (*Journal, error) {
	if be == nil {
		return nil, errors.New("journal: backend is required")
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	j := &Journal{be: be, log: log, entries: make(map[string]*Entry)}
	infos, err := be.List()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, in := range infos {
		name := in.Name
		if strings.Contains(name, "/") || !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if !store.ValidHash(hash) {
			j.discard(name, "file name is not a content address")
			continue
		}
		data, rerr := be.Read(name)
		if rerr != nil {
			j.discard(name, rerr.Error())
			continue
		}
		var e Entry
		if derr := json.Unmarshal(data, &e); derr != nil {
			j.discard(name, derr.Error())
			continue
		}
		if verr := e.validate(); verr != nil {
			j.discard(name, verr.Error())
			continue
		}
		if e.SpecHash != hash {
			j.discard(name, "entry hash does not match its file name")
			continue
		}
		j.entries[hash] = &e
	}
	return j, nil
}

func (e Entry) validate() error {
	if !store.ValidHash(e.SpecHash) {
		return fmt.Errorf("journal: entry spec hash %q is not a content address", e.SpecHash)
	}
	if e.Scenario == "" {
		return errors.New("journal: entry names no scenario")
	}
	if len(e.Done) != len(e.Shards) {
		return fmt.Errorf("journal: entry has %d done flags for %d shards", len(e.Done), len(e.Shards))
	}
	return nil
}

func blobName(hash string) string { return hash + ".json" }

func (j *Journal) discard(name, why string) {
	j.log.Warn("journal entry discarded", "name", name, "reason", why)
	_ = j.be.Remove(name)
}

// Record writes (or overwrites) the entry for e.SpecHash. Called when
// a job is dispatched; re-recording an already-journaled spec replaces
// its entry.
func (j *Journal) Record(e Entry) error {
	if err := e.validate(); err != nil {
		return err
	}
	cp := e.clone()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writeLocked(&cp); err != nil {
		return err
	}
	j.entries[cp.SpecHash] = &cp
	return nil
}

// MarkDone rewrites the entry with shard flagged done (see
// Entry.Shards for who still calls it). A missing entry is a no-op,
// not an error: the job may have already finished and been removed by
// the time a late publish lands.
func (j *Journal) MarkDone(specHash string, shard int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[specHash]
	if !ok {
		return nil
	}
	if shard < 0 || shard >= len(e.Done) {
		return fmt.Errorf("journal: shard %d out of range for %s (%d shards)", shard, specHash, len(e.Done))
	}
	if e.Done[shard] {
		return nil
	}
	e.Done[shard] = true
	return j.writeLocked(e)
}

// Remove deletes the entry for specHash — the job is terminal for good
// and nothing remains to resume. Removing an absent entry is a no-op.
func (j *Journal) Remove(specHash string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[specHash]; !ok {
		return nil
	}
	delete(j.entries, specHash)
	if err := j.be.Remove(blobName(specHash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Entries snapshots the open entries, sorted by spec hash.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, len(j.entries))
	for _, e := range j.entries {
		out = append(out, e.clone())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SpecHash < out[b].SpecHash })
	return out
}

// Len reports how many jobs are journaled open.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// writeLocked persists e through the backend's atomic durable write.
func (j *Journal) writeLocked(e *Entry) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.be.Write(blobName(e.SpecHash), append(data, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
