package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Backend is the blob seam under the store (and the journal): a flat
// namespace of named blobs with atomic whole-blob writes. Names are
// slash-separated relative paths ("ab/cd/<hash>.json", journal entry
// names); the store's verification, quarantine and eviction logic all
// live ABOVE this interface, so a backend only has to get durability
// and atomicity right. Any number of processes may open one namespace
// at once.
//
// The atomicity contract, per method:
//
//   - Write is all-or-nothing AND durable: after Write returns nil, a
//     reader (any process) sees the complete new bytes, and they
//     survive a crash. A crash mid-Write leaves either the previous
//     blob or none — never a torn blob reachable under its name. The
//     dir backend implements this as write-temp → fsync → rename →
//     best-effort directory sync; concurrent Writes of one name are
//     last-rename-wins with each candidate intact, which
//     content-addressing makes correct (every writer of a given name
//     writes identical bytes).
//   - Read returns the complete bytes of some completed Write of that
//     name (fs.ErrNotExist if none). It never observes a torn write.
//   - ReadHeader returns up to max leading bytes — the warm scan's
//     cheap integrity probe; a backend with ranged reads (a local file
//     seek, an S3 ranged GET) should avoid fetching the whole blob.
//   - List enumerates completed blobs only: in-flight temp files are
//     never listed. Ordering is by name; sizes/mod-times are those of
//     the completed writes, or of the latest Touch.
//   - Remove unlinks a completed blob (fs.ErrNotExist if absent) and
//     makes the removal durable best-effort. A remove that a crash
//     resurrects is acceptable to every caller (content-addressed
//     entries re-verify; journal entries replay as no-ops).
//   - Stat reports a completed blob without reading it.
//   - Touch sets a completed blob's mod-time to t (fs.ErrNotExist if
//     absent). The store records LRU recency this way, so a read is
//     remembered across restarts and by every process on the mount.
//
// Design note — a future S3/object-store backend: the contract above
// maps cleanly onto conditional object storage. Write = PutObject
// (single-request puts are already atomic and last-writer-wins; no
// temp/rename dance needed), Read = GetObject, ReadHeader = ranged
// GetObject ("bytes=0-N"), List = paginated ListObjectsV2 under the
// prefix, Remove = DeleteObject, Touch = a metadata-replacing
// CopyObject onto itself. The store's framing header stays
// load-bearing (it turns eventual-consistency artifacts and truncated
// uploads into verification failures → quarantine). The only
// behavioral difference worth documenting is that List is eventually
// consistent, which the warm scan already tolerates: an unlisted entry
// is re-discovered by the read-through path on first Get.
type Backend interface {
	Read(name string) ([]byte, error)
	ReadHeader(name string, max int) ([]byte, error)
	Write(name string, data []byte) error
	Stat(name string) (BlobInfo, error)
	List() ([]BlobInfo, error)
	Remove(name string) error
	Touch(name string, t time.Time) error
}

// BlobInfo describes one completed blob.
type BlobInfo struct {
	Name    string // slash-separated, backend-relative
	Size    int64
	ModTime time.Time
}

// tmpMaxAge is how old a temp file must be before an open sweeps it.
// Other processes on the directory may be mid-Write at any instant;
// their in-flight temps must survive our sweep, while temps this stale
// are crash leftovers by any reasonable lease/request timescale.
const tmpMaxAge = time.Hour

// DirBackend is the local-directory backend: blobs are files under
// root, staged in a tmp/ area and published by write-temp → fsync →
// rename. Several processes (coordinators and workers, on one host or
// an NFS-style mount) may open one root at once: temps are created
// O_EXCL under random names, the open sweep only collects temps older
// than tmpMaxAge (never a live sibling's in-flight write), and
// concurrent publishes of one name are last-rename-wins with either
// candidate complete — which content-addressing makes correct, since
// every writer of a given hash writes identical bytes.
type DirBackend struct {
	root   string
	faults *FaultFS
}

// OpenDir opens (creating if necessary) a directory backend rooted at
// root and sweeps its stale temps. faults injects write-path failures
// (tests only); nil means none.
func OpenDir(root string, faults *FaultFS) (*DirBackend, error) {
	if root == "" {
		return nil, errors.New("store: backend root is required")
	}
	b := &DirBackend{root: root, faults: faults}
	if err := os.MkdirAll(b.tmpDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := b.sweepTmp(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *DirBackend) tmpDir() string { return filepath.Join(b.root, tmpDirName) }

// sweepTmp collects torn writes left in tmp/: a file there is a write
// that never reached its rename — a crash mid-Write — and was never
// visible under its final name, so deleting it IS the recovery. Only
// temps old enough to be crash leftovers are collected; a fresh temp
// may be a live sibling's write in flight.
func (b *DirBackend) sweepTmp() error {
	des, err := os.ReadDir(b.tmpDir())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	now := time.Now()
	for _, de := range des {
		info, ierr := de.Info()
		if ierr != nil {
			continue // vanished under us: a sibling's rename or sweep
		}
		if now.Sub(info.ModTime()) < tmpMaxAge {
			continue
		}
		if err := os.RemoveAll(filepath.Join(b.tmpDir(), de.Name())); err != nil {
			return fmt.Errorf("store: sweeping torn write: %w", err)
		}
	}
	return nil
}

// validName rejects names that would escape the root. Callers only
// pass names the store itself derived from validated hashes, so this
// is defense in depth, not an API.
func validName(name string) error {
	if name == "" || path.IsAbs(name) {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("store: invalid blob name %q", name)
		}
	}
	return nil
}

func (b *DirBackend) blobPath(name string) string {
	return filepath.Join(b.root, filepath.FromSlash(name))
}

func (b *DirBackend) Read(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(b.blobPath(name))
}

func (b *DirBackend) ReadHeader(name string, max int) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(b.blobPath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, max)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

func (b *DirBackend) Stat(name string) (BlobInfo, error) {
	if err := validName(name); err != nil {
		return BlobInfo{}, err
	}
	info, err := os.Stat(b.blobPath(name))
	if err != nil {
		return BlobInfo{}, err
	}
	if info.IsDir() {
		return BlobInfo{}, fmt.Errorf("store: %q is a directory, not a blob", name)
	}
	return BlobInfo{Name: name, Size: info.Size(), ModTime: info.ModTime()}, nil
}

// Touch sets a blob's access and modification times to t. A blob
// evicted or removed by another process reports fs.ErrNotExist.
func (b *DirBackend) Touch(name string, t time.Time) error {
	if err := validName(name); err != nil {
		return err
	}
	return os.Chtimes(b.blobPath(name), t, t)
}

// Write publishes data under name with the crash-safe discipline the
// Backend contract documents: temp in tmp/, fsync, rename, best-effort
// directory sync. A write fault removes the temp (a clean failure); a
// rename fault deliberately leaves it — exactly the state a real crash
// in the torn-write window leaves — for a later open's sweep.
func (b *DirBackend) Write(name string, data []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	final := b.blobPath(name)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp opens O_EXCL under a random name, so no two writers —
	// in this process or another — ever share a temp file.
	f, err := os.CreateTemp(b.tmpDir(), path.Base(name)+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpPath := f.Name()
	if b.faults != nil && b.faults.WriteFile != nil {
		if err := b.faults.WriteFile(tmpPath); err != nil {
			f.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if b.faults != nil && b.faults.Rename != nil {
		if err := b.faults.Rename(tmpPath, final); err != nil {
			return err // temp left behind on purpose: the crash model
		}
	}
	if err := os.Rename(tmpPath, final); err != nil {
		return err
	}
	syncDir(filepath.Dir(final)) // best-effort: entries are self-verifying
	return nil
}

func (b *DirBackend) List() ([]BlobInfo, error) {
	var out []BlobInfo
	tmpAbs := b.tmpDir()
	err := filepath.WalkDir(b.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			// A directory pruned by a concurrent eviction or sweep (this
			// process's or a sibling's): skip it, the walk is a snapshot,
			// not a transaction.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			if p == tmpAbs {
				return filepath.SkipDir
			}
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // vanished mid-walk
		}
		rel, rerr := filepath.Rel(b.root, p)
		if rerr != nil {
			return rerr
		}
		out = append(out, BlobInfo{
			Name:    filepath.ToSlash(rel),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// syncDir fsyncs a directory so a rename or unlink inside it is
// durable. Best-effort: entries are self-verifying and removals may
// legally resurrect, so a failed directory sync costs nothing either
// caller cannot absorb.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Remove unlinks a blob and syncs its directory best-effort, so the
// removal usually survives a crash; a resurrected blob is harmless to
// every caller (see the Backend contract).
func (b *DirBackend) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	p := b.blobPath(name)
	if err := os.Remove(p); err != nil {
		return err
	}
	syncDir(filepath.Dir(p))
	return nil
}
