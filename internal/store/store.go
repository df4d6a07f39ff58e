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
// directory (DirBackend), which several coordinators and workers may
// open at once on one host or a shared mount, or a future object
// store. Blob namespace, regardless of backend:
//
//	<hh>/<hh>/<hash>.json   entries, two-level fan-out by hash prefix
//	tmp/                    in-flight writes (dir backend; swept at open once an hour old)
//	quarantine/             entries that failed verification
//
// Anything else at the root (a journal directory, or the manifest
// files older versions kept access-time hints in) is ignored.
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
// Eviction is LRU by access time under a byte budget. An entry's
// access time is its blob's mod-time: a Put writes it, a Get touches
// it (Backend.Touch), and the warm scan reads it back. Recency
// therefore survives a kill -9 exactly, and every process opening the
// directory sees every other's reads, with no side file to flush or
// merge.
//
// The index is a snapshot: entries published by other processes after
// our open are not in it. Get therefore falls through to the backend
// on an index miss (read-through), verifies, and indexes what it
// finds — which is how two coordinators on one store serve each
// other's results with zero re-runs.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
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
)

// FaultFS injects filesystem failures into a dir backend's write path,
// so tests can prove the crash-recovery behavior without an actual
// crash. A nil hook (or a nil FaultFS) means the real operation runs
// unconditionally; a hook returning an error fails the operation
// before it touches the disk.
type FaultFS struct {
	// WriteFile is consulted before a temp file is written. Failing it
	// models a full disk or I/O error: the write returns the error and
	// removes the temp file.
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
	Entries     int
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Writes      uint64
	WriteErrors uint64
	Evictions   uint64
	Quarantined uint64
}

// entry is one indexed entry blob.
type entry struct {
	hash  string
	size  int64 // whole blob (header + payload): what the byte budget charges
	atime int64 // unix nanos of last touch (at open: the blob's mod-time), the LRU key
}

// Store is a crash-safe content-addressed result store. All methods
// are safe for concurrent use; blob reads happen outside the index
// lock, so a Get racing an eviction of the same entry degrades to a
// miss.
type Store struct {
	be       Backend
	maxBytes int64
	log      *slog.Logger

	mu      sync.Mutex
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // hash -> element holding *entry
	bytes   int64
	stats   Stats // counter fields only; Entries/Bytes derived in Stats()
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
		maxBytes: cfg.MaxBytes,
		log:      log,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
	infos, err := be.List()
	if err != nil {
		return nil, err
	}
	s.warmScan(infos)
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// warmScan rebuilds the index from a backend listing. Blobs under a
// well-formed two-level fan-out path whose name is not a matching
// content address, or that fail the cheap header-vs-size check
// (truncation), are quarantined. Everything outside the fan-out tree —
// quarantine/, a journal sharing the backend, old manifest files — is
// ignored. Each entry's access time is its blob's mod-time.
func (s *Store) warmScan(infos []BlobInfo) {
	var found []*entry
	for _, in := range infos {
		segs := strings.Split(in.Name, "/")
		if len(segs) != 3 || !isFanoutName(segs[0]) || !isFanoutName(segs[1]) {
			continue // quarantine/, journal/, old manifests, strays
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
		found = append(found, &entry{hash: hash, size: in.Size, atime: in.ModTime.UnixNano()})
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
// recomputed rather than served. An index miss falls through to the
// backend itself — another process may have published the entry after
// we opened — and a verified find is indexed as if we had written it.
// A hit touches the blob, outside the index lock, so the read counts
// toward recency in every process's next warm scan.
func (s *Store) Get(hash string) ([]byte, bool) {
	if !ValidHash(hash) {
		return nil, false
	}
	name := EntryRel(hash)
	now := time.Now()
	s.mu.Lock()
	el, indexed := s.entries[hash]
	if indexed {
		el.Value.(*entry).atime = now.UnixNano()
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()

	data, err := s.be.Read(name)
	if err != nil {
		// Not published anywhere, or a concurrent eviction (ours or a
		// sibling's) removed the blob between the index lookup and the
		// read: a miss, not corruption. Drop the index entry if it is
		// somehow still present.
		s.mu.Lock()
		if indexed {
			s.dropLocked(hash)
		}
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
	if _, ok := s.entries[hash]; !ok && !indexed {
		// A read-through find: index it and charge it to the budget, so
		// later Gets find it in the index like any other entry.
		size := int64(len(data))
		s.entries[hash] = s.ll.PushFront(&entry{hash: hash, size: size, atime: now.UnixNano()})
		s.bytes += size
		s.evictLocked()
	}
	s.stats.Hits++
	s.mu.Unlock()
	// A failed touch costs recency only: the blob may have just been
	// evicted, by us or by another process.
	_ = s.be.Touch(name, now)
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
// complete one. A concurrent Put of the same hash by another process
// is harmless: content-addressing means both writers carry identical
// bytes, so last-rename-wins publishes the same entry either way.
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
	s.evictLocked()
	s.mu.Unlock()
	return nil
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
	}
}

// dropLocked removes hash from the index without touching its blob.
func (s *Store) dropLocked(hash string) {
	if el, ok := s.entries[hash]; ok {
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.entries, hash)
		s.bytes -= e.size
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

// Close is a no-op kept so a Store closes like any other resource:
// every Put is durable when it returns, and recency lives in the blob
// mod-times, so there is nothing left to flush.
func (s *Store) Close() error { return nil }

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
