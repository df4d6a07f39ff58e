// Package store is the durable tier of the result cache: a crash-safe,
// content-addressed store mapping a resolved spec's canonical hash
// (scenario.Spec.CanonicalHash) to the result payload it produced.
// The engine is deterministic in the resolved spec, so a result is
// exactly as content-addressable as the spec that named it — which
// means it can outlive the process that computed it. midas-serve opens
// a Store under its in-memory LRU so a restart, crash, or deploy loses
// nothing: any previously completed spec is served from disk without
// re-running the engine.
//
// The Store owns indexing, verification, quarantine and LRU eviction;
// the bytes live behind the Backend seam (backend.go) — a local
// directory (DirBackend), a shared filesystem several coordinators and
// workers mount at once (SharedDirBackend), or a future object store.
// Blob namespace, regardless of backend:
//
//	<hh>/<hh>/<hash>.json   entries, two-level fan-out by hash prefix
//	tmp/                    in-flight writes (dir backends; swept at open)
//	quarantine/             entries that failed verification
//	manifest.json           access-time hints for LRU eviction
//	manifest-<nonce>.json   per-process hints on a shared backend
//
// An entry blob is a one-line header followed by the payload:
//
//	midas-store/v1 <sha256-hex-of-payload> <payload-length>\n<payload>
//
// The header makes every entry self-verifying: the spec hash in the
// blob name says which computation the bytes claim to be, the header
// says what the bytes must look like. Truncation, torn tails and bit
// flips all fail verification, and a failed entry is quarantined and
// recomputed — never served.
//
// Crash safety is the Backend.Write contract (write-temp → fsync →
// rename on dir backends): there is no state in which a partially
// written entry is reachable under its final name on a correctly
// ordered filesystem, and the header verification catches the
// incorrectly ordered ones.
//
// Eviction is LRU by access time under a byte budget. Access times
// live in memory and are persisted as hints: at Close, and whenever
// the touches since the last flush reach the larger of 64 and the
// entry count. A flush rewrites every entry's hint, so that cadence
// keeps hint upkeep amortized O(1) per touch however large the store
// grows. Losing the manifest — a kill -9 skips Close — only degrades
// the next process's eviction order to blob mod-times, never
// correctness. On a shared backend each process writes its own
// manifest-<nonce>.json and every opener merges all of them, newest
// hint per entry, so siblings never clobber each other's hints.
//
// On a shared backend the index is a snapshot: entries published by
// sibling processes after our open are not in it. Get therefore falls
// through to the backend on an index miss (read-through), verifies,
// and indexes what it finds — which is how two coordinators on one
// shared store serve each other's results with zero re-runs.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	headerMagic       = "midas-store/v1"
	hashHexLen        = 64
	tmpDirName        = "tmp"
	quarantineDirName = "quarantine"
	manifestName      = "manifest.json"
	manifestVersion   = 1
	// manifestFlushEvery bounds how stale the persisted atime hints can
	// get while the process runs: the manifest is rewritten after this
	// many touches, or after one touch per entry once the store holds
	// more — Puts and Gets both move atimes, so both count — and always
	// at Close. Counting only Puts was a real bug: a long read-heavy run
	// that died by kill -9 lost every eviction hint accumulated since
	// its last write.
	manifestFlushEvery = 64
)

// sharedManifestMaxAge is how stale a sibling's manifest blob must be
// before an opener on a shared backend garbage-collects it: well past
// any live process's flush cadence, so only manifests of processes
// long dead are removed. A var so tests can shrink it.
var sharedManifestMaxAge = 24 * time.Hour

// FaultFS injects filesystem failures into a dir backend's write path,
// so tests can prove the crash-recovery behavior without an actual
// crash. A nil hook (or a nil FaultFS) means the real operation runs
// unconditionally; a hook returning an error fails the operation
// before it touches the disk.
type FaultFS struct {
	// WriteFile is consulted before a temp file is written — an
	// entry's, or the manifest's on a periodic flush. Failing it models
	// a full disk or I/O error: Put returns the error and removes the
	// temp file; a manifest flush is skipped (the hints stay in memory
	// until the next cadence point or Close).
	WriteFile func(path string) error
	// Rename is consulted before the temp file is renamed into place.
	// Failing it models a crash between the temp write and the rename
	// (the torn-write window): Put returns the error and the temp file
	// is deliberately left behind, exactly as a real crash would leave
	// it, for the next open's sweep to collect.
	Rename func(oldPath, newPath string) error
}

// Config configures Open.
type Config struct {
	// Backend is the blob tier the store indexes; nil derives a
	// DirBackend from Dir.
	Backend Backend
	// Dir is the store root when Backend is nil; created if absent.
	Dir string
	// MaxBytes is the byte budget across all entry blobs (headers
	// included); exceeding it evicts least-recently-used entries.
	// <= 0 means unbounded.
	MaxBytes int64
	// Faults, when non-nil and Backend is nil, injects write-path
	// failures into the derived DirBackend (tests only).
	Faults *FaultFS
	// Log receives warm-scan and quarantine warnings; nil discards.
	Log *slog.Logger
}

// Stats is a snapshot of the store's state and cumulative counters
// (per process; counters reset at Open).
type Stats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
}

// entry is one indexed entry blob.
type entry struct {
	hash  string
	size  int64 // whole blob (header + payload): what the byte budget charges
	atime int64 // unix nanos of last touch, the LRU eviction key
}

// Store is a crash-safe content-addressed result store. All methods
// are safe for concurrent use; blob reads happen outside the index
// lock, so a Get racing an eviction of the same entry degrades to a
// miss.
type Store struct {
	be       Backend
	shared   bool
	maxBytes int64
	log      *slog.Logger
	// nonce names this process's manifest blob on a shared backend.
	nonce string

	mu      sync.Mutex
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // hash -> element holding *entry
	bytes   int64
	stats   Stats // counter fields only; Entries/Bytes derived in Stats()
	// touchesSinceFlush counts atime movements (Puts and Gets) since
	// the manifest was last persisted; at max(manifestFlushEvery,
	// entries) it flushes.
	touchesSinceFlush int
	manifestDirty     bool
}

// Open opens the store over cfg.Backend (or a DirBackend rooted at
// cfg.Dir), rebuilds the index from a backend listing — quarantining
// any entry that fails the header check — and enforces the byte budget
// on what survives. Dir backends sweep torn writes from tmp/ as part
// of their own open.
func Open(cfg Config) (*Store, error) {
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	be := cfg.Backend
	if be == nil {
		if cfg.Dir == "" {
			return nil, errors.New("store: Config.Backend or Config.Dir is required")
		}
		db, err := OpenDir(cfg.Dir, cfg.Faults)
		if err != nil {
			return nil, err
		}
		be = db
	}
	s := &Store{
		be:       be,
		shared:   be.Shared(),
		maxBytes: cfg.MaxBytes,
		log:      log,
		nonce:    fmt.Sprintf("%d-%x", os.Getpid(), time.Now().UnixNano()),
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
	infos, err := be.List()
	if err != nil {
		return nil, err
	}
	s.warmScan(infos, s.loadManifests(infos))
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// warmScan rebuilds the index from a backend listing. Blobs under a
// well-formed two-level fan-out path whose name is not a matching
// content address, or that fail the cheap header-vs-size check
// (truncation), are quarantined. Everything outside the fan-out tree —
// manifests, quarantine/, a journal sharing the backend — is ignored.
// atimes supplies last-access hints from the manifests; entries they
// do not cover fall back to blob mod-time.
func (s *Store) warmScan(infos []BlobInfo, atimes map[string]int64) {
	var found []*entry
	for _, in := range infos {
		segs := strings.Split(in.Name, "/")
		if len(segs) != 3 || !isFanoutName(segs[0]) || !isFanoutName(segs[1]) {
			continue // manifests, quarantine/, journal/, strays
		}
		hash, ok := HashFromEntryName(segs[2])
		if !ok || hash[:2] != segs[0] || hash[2:4] != segs[1] {
			s.quarantineBlob(in.Name, "name is not a content address")
			continue
		}
		if !s.quickVerify(in.Name, in.Size) {
			s.quarantineBlob(in.Name, "truncated or malformed entry")
			continue
		}
		at := atimes[hash]
		if at == 0 {
			at = in.ModTime.UnixNano()
		}
		found = append(found, &entry{hash: hash, size: in.Size, atime: at})
	}
	// Oldest-accessed first, so pushing front leaves the most recently
	// used entry at the front — the same invariant live Puts maintain.
	sort.Slice(found, func(i, j int) bool { return found[i].atime < found[j].atime })
	for _, e := range found {
		s.entries[e.hash] = s.ll.PushFront(e)
		s.bytes += e.size
	}
}

// Get returns the payload stored under hash. A verification failure
// quarantines the entry and reports a miss, so a corrupted result is
// recomputed rather than served. On a shared backend an index miss
// falls through to the backend itself — a sibling process may have
// published the entry after we opened — and a verified find is indexed
// as if we had written it.
func (s *Store) Get(hash string) ([]byte, bool) {
	if !ValidHash(hash) {
		return nil, false
	}
	s.mu.Lock()
	el, ok := s.entries[hash]
	if !ok {
		s.mu.Unlock()
		if s.shared {
			return s.readThrough(hash)
		}
		s.countMiss()
		return nil, false
	}
	e := el.Value.(*entry)
	e.atime = time.Now().UnixNano()
	s.ll.MoveToFront(el)
	s.manifestDirty = true
	s.touchLocked()
	s.mu.Unlock()

	data, err := s.be.Read(EntryRel(hash))
	if err != nil {
		// A concurrent eviction can remove the blob between the index
		// lookup and the read: that is a miss, not corruption. Drop the
		// index entry if it is somehow still present.
		s.mu.Lock()
		s.dropLocked(hash)
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	payload, err := parseEntry(data)
	if err != nil {
		s.log.Warn("store entry failed verification, quarantined",
			"hash", hash, "error", err.Error())
		s.Quarantine(hash)
		s.countMiss()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return payload, true
}

// readThrough answers an index miss from the backend directly — the
// shared-backend path where a sibling's publish post-dates our open.
// A verified find is indexed (and charged to the byte budget) so later
// Gets hit memory-index-first like any other entry.
func (s *Store) readThrough(hash string) ([]byte, bool) {
	data, err := s.be.Read(EntryRel(hash))
	if err != nil {
		s.countMiss()
		return nil, false
	}
	payload, perr := parseEntry(data)
	if perr != nil {
		s.log.Warn("store entry failed verification, quarantined",
			"hash", hash, "error", perr.Error())
		s.Quarantine(hash)
		s.countMiss()
		return nil, false
	}
	now := time.Now().UnixNano()
	s.mu.Lock()
	if _, ok := s.entries[hash]; !ok {
		s.entries[hash] = s.ll.PushFront(&entry{hash: hash, size: int64(len(data)), atime: now})
		s.bytes += int64(len(data))
		s.manifestDirty = true
		s.evictLocked()
		s.touchLocked()
	}
	s.stats.Hits++
	s.mu.Unlock()
	return payload, true
}

func (s *Store) countMiss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

// Put durably stores payload under hash via the backend's atomic
// write. The entry is indexed (and the budget enforced) only after the
// write returns, so a crash at any point leaves either no entry or a
// complete one. On a shared backend a concurrent Put of the same hash
// by a sibling is harmless: content-addressing means both writers
// carry identical bytes, so last-rename-wins publishes the same entry
// either way.
func (s *Store) Put(hash string, payload []byte) error {
	if !ValidHash(hash) {
		return fmt.Errorf("store: invalid hash %q", hash)
	}
	framed := frame(payload)
	size := int64(len(framed))
	if s.maxBytes > 0 && size > s.maxBytes {
		s.countWriteError()
		return fmt.Errorf("store: entry %s is %d bytes, over the whole-store budget of %d", hash, size, s.maxBytes)
	}
	if err := s.be.Write(EntryRel(hash), framed); err != nil {
		s.countWriteError()
		return fmt.Errorf("store: writing %s: %w", hash, err)
	}

	now := time.Now().UnixNano()
	s.mu.Lock()
	if el, ok := s.entries[hash]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.size = size
		e.atime = now
		s.ll.MoveToFront(el)
	} else {
		s.entries[hash] = s.ll.PushFront(&entry{hash: hash, size: size, atime: now})
		s.bytes += size
	}
	s.stats.Writes++
	s.manifestDirty = true
	s.evictLocked()
	s.touchLocked()
	s.mu.Unlock()
	return nil
}

// touchLocked counts one atime movement toward the periodic manifest
// flush and flushes when the cadence is reached: a flush costs one
// hint per entry, so it waits for at least as many touches as there
// are entries. Called with s.mu held by every path that reorders the
// LRU (Put and Get alike — eviction hints age just as fast under reads
// as under writes).
func (s *Store) touchLocked() {
	s.touchesSinceFlush++
	if s.touchesSinceFlush >= max(manifestFlushEvery, s.ll.Len()) {
		s.flushManifestLocked()
	}
}

func (s *Store) countWriteError() {
	s.mu.Lock()
	s.stats.WriteErrors++
	s.mu.Unlock()
}

// evictLocked deletes least-recently-used entries until the byte
// budget holds. Called with s.mu held; the blob removals happen under
// the lock too, so an eviction and a Put of the same hash cannot
// interleave destructively (a reader that already captured the name
// simply misses).
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes {
		el := s.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.entries, e.hash)
		s.bytes -= e.size
		_ = s.be.Remove(EntryRel(e.hash))
		s.stats.Evictions++
		s.manifestDirty = true
	}
}

// dropLocked removes hash from the index without touching its blob.
func (s *Store) dropLocked(hash string) {
	if el, ok := s.entries[hash]; ok {
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.entries, hash)
		s.bytes -= e.size
		s.manifestDirty = true
	}
}

// Quarantine removes hash from the store and moves its blob into
// quarantine/ — for entries that verified at the byte level but turned
// out to be garbage at a higher one (an undecodable result). The entry
// must never be served again; the bytes are kept for post-mortem
// rather than silently deleted.
func (s *Store) Quarantine(hash string) {
	if !ValidHash(hash) {
		return
	}
	s.mu.Lock()
	s.dropLocked(hash)
	s.stats.Quarantined++
	s.mu.Unlock()
	s.moveAside(EntryRel(hash))
}

// quarantineBlob moves an unindexed blob aside during the warm scan.
func (s *Store) quarantineBlob(name, why string) {
	s.mu.Lock()
	s.stats.Quarantined++
	s.mu.Unlock()
	s.moveAside(name)
	s.log.Warn("store quarantined entry on warm scan", "name", name, "reason", why)
}

// moveAside copies a blob's bytes under quarantine/ (best-effort —
// post-mortem evidence, not data) and removes the original, which is
// the part that must happen: a quarantined entry is never served again.
func (s *Store) moveAside(name string) {
	dst := fmt.Sprintf("%s/%s.%d", quarantineDirName, path.Base(name), time.Now().UnixNano())
	if data, err := s.be.Read(name); err == nil {
		_ = s.be.Write(dst, data)
	}
	_ = s.be.Remove(name)
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	st.Bytes = s.bytes
	return st
}

// Close persists the access-time manifest. The entries themselves are
// already durable (every Put goes through the backend's atomic write);
// skipping Close — a crash — only costs the recency hints.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushManifestLocked()
	return nil
}

// manifest is the persisted access-time hint blob.
type manifest struct {
	Version int              `json:"version"`
	ATimes  map[string]int64 `json:"atimes"`
}

// manifestBlobName is where THIS process flushes its hints: the plain
// manifest.json on a private backend, a per-process manifest-<nonce>
// on a shared one — siblings flushing concurrently must not clobber
// each other's hints.
func (s *Store) manifestBlobName() string {
	if s.shared {
		return fmt.Sprintf("manifest-%s.json", s.nonce)
	}
	return manifestName
}

// isManifestName matches any manifest blob at the namespace root —
// ours, or a sibling's on a shared backend.
func isManifestName(name string) bool {
	if strings.Contains(name, "/") {
		return false
	}
	return name == manifestName ||
		(strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".json"))
}

// loadManifests merges the atime hints of every manifest blob in the
// listing, newest hint per entry — on a shared backend each sibling
// writes its own, and the truth is their union. Any unreadable blob
// degrades to no hints (the hints are not load-bearing). Manifests of
// processes long dead are garbage-collected in passing.
func (s *Store) loadManifests(infos []BlobInfo) map[string]int64 {
	at := make(map[string]int64)
	for _, in := range infos {
		if !isManifestName(in.Name) {
			continue
		}
		if s.shared && time.Since(in.ModTime) > sharedManifestMaxAge {
			_ = s.be.Remove(in.Name)
			continue
		}
		data, err := s.be.Read(in.Name)
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.Version != manifestVersion {
			s.log.Warn("store manifest unreadable, falling back to blob mtimes", "name", in.Name)
			continue
		}
		for h, t := range m.ATimes {
			if t > at[h] {
				at[h] = t
			}
		}
	}
	if len(at) == 0 {
		return nil
	}
	return at
}

// flushManifestLocked rewrites this process's manifest blob from the
// live index. An occasionally stale manifest only reorders eviction.
// Called with s.mu held.
func (s *Store) flushManifestLocked() {
	s.touchesSinceFlush = 0
	if !s.manifestDirty {
		return
	}
	m := manifest{Version: manifestVersion, ATimes: make(map[string]int64, s.ll.Len())}
	for el := s.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		m.ATimes[e.hash] = e.atime
	}
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	if err := s.be.Write(s.manifestBlobName(), data); err != nil {
		s.log.Warn("store manifest write failed", "error", err.Error())
		return
	}
	s.manifestDirty = false
}

// ---------------------------------------------------------------------
// Content-address and entry-framing helpers. Exported where the fuzz
// tests and the service layer need them.

// ValidHash reports whether h is a well-formed content address:
// exactly 64 lowercase hex characters (a sha256). Everything the store
// derives a blob name from goes through this check, so path traversal
// via a hostile "hash" is structurally impossible.
func ValidHash(h string) bool {
	if len(h) != hashHexLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EntryRel returns the backend-relative blob name of a hash's entry:
// two levels of fan-out by hash prefix, so a million entries spread
// over 65536 directories instead of one. The caller must have
// validated the hash.
func EntryRel(hash string) string {
	return hash[:2] + "/" + hash[2:4] + "/" + hash + ".json"
}

// HashFromEntryName inverts EntryRel's file name: "<hash>.json" with a
// valid content address, or ok=false.
func HashFromEntryName(name string) (string, bool) {
	h, found := strings.CutSuffix(name, ".json")
	if !found || !ValidHash(h) {
		return "", false
	}
	return h, true
}

// isFanoutName reports whether a directory name is one fan-out level:
// exactly two lowercase hex characters.
func isFanoutName(name string) bool {
	return len(name) == 2 && ValidHash(strings.Repeat(name, hashHexLen/2))
}

// frame wraps a payload in the self-verifying entry format.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d\n", headerMagic, hex.EncodeToString(sum[:]), len(payload))
	return append([]byte(header), payload...)
}

// parseEntry verifies a framed entry and returns its payload: the
// declared length and checksum must both match, so truncation, torn
// tails and bit flips all surface as errors rather than as data. The
// header parse is strict — exactly the bytes frame would emit — so an
// entry either IS frame(payload) or it does not parse.
func parseEntry(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("no header line")
	}
	header := string(data[:nl])
	rest, ok := strings.CutPrefix(header, headerMagic+" ")
	if !ok {
		return nil, fmt.Errorf("bad header %q", header)
	}
	sumHex, lenStr, ok := strings.Cut(rest, " ")
	if !ok || !ValidHash(sumHex) {
		return nil, fmt.Errorf("bad header %q", header)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || lenStr != strconv.Itoa(n) {
		return nil, fmt.Errorf("bad declared length %q", lenStr)
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("truncated: header declares %d payload bytes, file has %d", n, len(payload))
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// quickVerify is the warm-scan integrity check: the header must parse
// and header + declared payload length must equal the blob size. One
// small ranged read per entry, catches truncation (filesystem-level
// loss of a data tail, out-of-space artifacts, manual tampering); bit
// flips that preserve length are caught by the full checksum at Get.
func (s *Store) quickVerify(name string, size int64) bool {
	// The header is ~95 bytes; 200 covers any legal one.
	buf, err := s.be.ReadHeader(name, 200)
	if err != nil {
		return false
	}
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return false
	}
	fields := strings.Fields(string(buf[:nl]))
	if len(fields) != 3 || fields[0] != headerMagic {
		return false
	}
	declared, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || declared < 0 {
		return false
	}
	return int64(nl)+1+declared == size
}
