package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The conformance suite: one set of behavioral assertions run against
// every Backend implementation. A new backend (an object store, say)
// passes by adding one entry to backendImpls — the suite IS the
// contract documented on the Backend interface.

type backendImpl struct {
	name string
	open func(root string, faults *FaultFS) (Backend, error)
}

var backendImpls = []backendImpl{
	{"DirBackend", func(root string, faults *FaultFS) (Backend, error) {
		return OpenDir(root, faults)
	}},
}

func TestBackendConformance(t *testing.T) {
	for _, impl := range backendImpls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("WriteReadStat", func(t *testing.T) { conformWriteReadStat(t, impl) })
			t.Run("ReadHeader", func(t *testing.T) { conformReadHeader(t, impl) })
			t.Run("ListSkipsTempsAndSorts", func(t *testing.T) { conformList(t, impl) })
			t.Run("Remove", func(t *testing.T) { conformRemove(t, impl) })
			t.Run("InvalidNamesRejected", func(t *testing.T) { conformInvalidNames(t, impl) })
			t.Run("WriteFaultIsClean", func(t *testing.T) { conformWriteFault(t, impl) })
			t.Run("RenameFaultTempSweptAtReopen", func(t *testing.T) { conformRenameFault(t, impl) })
			t.Run("TwoWritersSameNameRace", func(t *testing.T) { conformSameNameRace(t, impl) })
			t.Run("OverwriteIsAtomic", func(t *testing.T) { conformOverwrite(t, impl) })
			t.Run("TouchSetsModTime", func(t *testing.T) { conformTouch(t, impl) })
		})
	}
}

func mustBackend(t *testing.T, impl backendImpl, root string, faults *FaultFS) Backend {
	t.Helper()
	be, err := impl.open(root, faults)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func conformWriteReadStat(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	data := []byte("payload bytes")
	if err := be.Write("ab/cd/abcd.json", data); err != nil {
		t.Fatal(err)
	}
	got, err := be.Read("ab/cd/abcd.json")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	info, err := be.Stat("ab/cd/abcd.json")
	if err != nil || info.Size != int64(len(data)) || info.Name != "ab/cd/abcd.json" {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if _, err := be.Read("ab/cd/missing.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Read(missing) = %v, want fs.ErrNotExist", err)
	}
	if _, err := be.Stat("ab/cd/missing.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat(missing) = %v, want fs.ErrNotExist", err)
	}
}

func conformReadHeader(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	if err := be.Write("h.json", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := be.ReadHeader("h.json", 4)
	if err != nil || string(got) != "0123" {
		t.Fatalf("ReadHeader(4) = %q, %v", got, err)
	}
	// max beyond the blob size returns the whole blob, no error.
	got, err = be.ReadHeader("h.json", 100)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("ReadHeader(100) = %q, %v", got, err)
	}
	if _, err := be.ReadHeader("missing.json", 4); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadHeader(missing) = %v, want fs.ErrNotExist", err)
	}
}

func conformList(t *testing.T, impl backendImpl) {
	root := t.TempDir()
	be := mustBackend(t, impl, root, nil)
	names := []string{"zz/top.json", "aa/bb/deep.json", "root.json"}
	for _, n := range names {
		if err := be.Write(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	// A live temp must never be listed.
	if err := os.WriteFile(filepath.Join(root, tmpDirName, "inflight.json.123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa/bb/deep.json", "root.json", "zz/top.json"}
	if len(infos) != len(want) {
		t.Fatalf("List = %+v, want names %v", infos, want)
	}
	for i, n := range want {
		if infos[i].Name != n || infos[i].Size != int64(len(n)) {
			t.Fatalf("List[%d] = %+v, want name %q size %d", i, infos[i], n, len(n))
		}
	}
}

func conformRemove(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	if err := be.Write("a/b.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := be.Remove("a/b.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Read("a/b.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Read after Remove = %v, want fs.ErrNotExist", err)
	}
	if err := be.Remove("a/b.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Remove(missing) = %v, want fs.ErrNotExist", err)
	}
}

func conformInvalidNames(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	for _, name := range []string{"", "/abs.json", "../escape.json", "a/../b.json", "a//b.json", "./x.json"} {
		if err := be.Write(name, []byte("x")); err == nil {
			t.Fatalf("Write(%q) accepted an invalid name", name)
		}
		if _, err := be.Read(name); err == nil {
			t.Fatalf("Read(%q) accepted an invalid name", name)
		}
		if err := be.Remove(name); err == nil {
			t.Fatalf("Remove(%q) accepted an invalid name", name)
		}
	}
}

// conformWriteFault: a failed temp write is a CLEAN failure — the blob
// is absent and no temp file is left behind.
func conformWriteFault(t *testing.T, impl backendImpl) {
	root := t.TempDir()
	boom := errors.New("disk full")
	be := mustBackend(t, impl, root, &FaultFS{
		WriteFile: func(string) error { return boom },
	})
	if err := be.Write("aa/x.json", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Write under fault = %v, want %v", err, boom)
	}
	if _, err := be.Read("aa/x.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("blob exists after failed write: %v", err)
	}
	des, err := os.ReadDir(filepath.Join(root, tmpDirName))
	if err != nil || len(des) != 0 {
		t.Fatalf("tmp/ not clean after write fault: %v entries, err %v", des, err)
	}
}

// conformRenameFault: a crash in the torn-write window (temp written,
// rename never happened) leaves the temp behind, the blob absent, and
// the next open sweeps the temp once it is old enough to be a crash
// leftover rather than a live writer's.
func conformRenameFault(t *testing.T, impl backendImpl) {
	root := t.TempDir()
	boom := errors.New("crash before rename")
	be := mustBackend(t, impl, root, &FaultFS{
		Rename: func(string, string) error { return boom },
	})
	if err := be.Write("aa/x.json", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Write under rename fault = %v, want %v", err, boom)
	}
	if _, err := be.Read("aa/x.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("blob visible after failed rename: %v", err)
	}
	tmp := filepath.Join(root, tmpDirName)
	des, err := os.ReadDir(tmp)
	if err != nil || len(des) != 1 {
		t.Fatalf("want exactly the torn temp in tmp/, got %d entries (err %v)", len(des), err)
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(filepath.Join(tmp, des[0].Name()), old, old); err != nil {
		t.Fatal(err)
	}
	mustBackend(t, impl, root, nil)
	if des, _ := os.ReadDir(tmp); len(des) != 0 {
		t.Fatalf("reopen did not sweep the torn temp: %d entries remain", len(des))
	}
}

// conformSameNameRace: many concurrent writers of one name (identical
// bytes, the content-addressed case) — the final blob must be intact
// and every write must succeed. Run under -race this also proves the
// write path shares no unsynchronized state.
func conformSameNameRace(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	data := bytes.Repeat([]byte("same-bytes-"), 100)
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = be.Write("ab/ra/ce.json", data)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := be.Read("ab/ra/ce.json")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-race blob corrupt: %d bytes, err %v", len(got), err)
	}
}

// conformOverwrite: rewriting a name swaps complete-old for
// complete-new; concurrent readers see one or the other, never a mix.
func conformOverwrite(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	old := bytes.Repeat([]byte("old"), 1000)
	new_ := bytes.Repeat([]byte("new"), 1000)
	if err := be.Write("o.json", old); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			got, err := be.Read("o.json")
			if err != nil {
				continue // raced the rename window on some filesystems; retry
			}
			if !bytes.Equal(got, old) && !bytes.Equal(got, new_) {
				t.Errorf("torn read: %d bytes", len(got))
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := be.Write("o.json", new_); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if got, err := be.Read("o.json"); err != nil || !bytes.Equal(got, new_) {
		t.Fatalf("final read = %d bytes, %v", len(got), err)
	}
}

// conformTouch: Touch moves a blob's mod-time as List and Stat report
// it, and a missing blob reports fs.ErrNotExist.
func conformTouch(t *testing.T, impl backendImpl) {
	be := mustBackend(t, impl, t.TempDir(), nil)
	if err := be.Write("ab/cd/t.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	at := time.Now().Add(-3 * time.Hour).Truncate(time.Second)
	if err := be.Touch("ab/cd/t.json", at); err != nil {
		t.Fatal(err)
	}
	info, err := be.Stat("ab/cd/t.json")
	if err != nil || !info.ModTime.Equal(at) {
		t.Fatalf("Stat after Touch = %+v, %v; want mod-time %v", info, err, at)
	}
	infos, err := be.List()
	if err != nil || len(infos) != 1 || !infos[0].ModTime.Equal(at) {
		t.Fatalf("List after Touch = %+v, %v; want mod-time %v", infos, err, at)
	}
	if err := be.Touch("ab/cd/missing.json", at); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Touch(missing) = %v, want fs.ErrNotExist", err)
	}
	if err := be.Touch("../escape.json", at); err == nil {
		t.Fatal("Touch accepted an invalid name")
	}
}

// --- Several processes on one directory -----------------------------

// TestSharedSweepSparesFreshForeignTemps: a fresh temp in tmp/ may be a
// live sibling's in-flight write — another process's open must not
// collect it. Backend A is mid-Write (its temp created, not yet
// renamed) when B opens the same directory; A's write must still land.
func TestSharedSweepSparesFreshForeignTemps(t *testing.T) {
	root := t.TempDir()
	var opened bool
	a, err := OpenDir(root, &FaultFS{WriteFile: func(string) error {
		if _, err := OpenDir(root, nil); err != nil {
			return err
		}
		opened = true
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Write("ab/cd/inflight.json", []byte("A's write")); err != nil {
		t.Fatalf("A's write failed after B opened mid-write: %v", err)
	}
	if !opened {
		t.Fatal("B never opened during A's write")
	}
	if got, err := a.Read("ab/cd/inflight.json"); err != nil || string(got) != "A's write" {
		t.Fatalf("A's blob = %q, %v", got, err)
	}

	// A temp aged past tmpMaxAge IS a crash leftover: the next open
	// collects it.
	leftover := filepath.Join(root, tmpDirName, "ab.json.123")
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(root, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); err != nil {
		t.Fatalf("open swept a fresh temp: %v", err)
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(leftover, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(root, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("open did not collect an aged crash leftover")
	}
}

// TestSharedStoreReadThrough: the cross-process story end to end — two
// Stores over one directory; what one Puts after the other opened is
// still served by the other, via the index-miss read-through.
func TestSharedStoreReadThrough(t *testing.T) {
	root := t.TempDir()
	a := mustOpen(t, Config{Dir: root})
	b := mustOpen(t, Config{Dir: root})

	h := hashOf("cross-process")
	payload := []byte("computed by A")
	if err := a.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	// B opened before A's Put: an index miss that must fall through.
	got, ok := b.Get(h)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("B.Get via read-through = %q, %v", got, ok)
	}
	st := b.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Bytes != int64(len(frame(payload))) {
		t.Fatalf("read-through did not index the entry: %+v", st)
	}
	// Second Get is a plain index hit.
	if _, ok := b.Get(h); !ok {
		t.Fatal("indexed entry lost")
	}

	// A miss on BOTH tiers is still a miss.
	if _, ok := b.Get(hashOf("never-written")); ok {
		t.Fatal("phantom hit")
	}
	if st := b.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

// TestSharedStoreConcurrentSamePut: processes computing the same spec
// race their Puts of one hash — all must succeed (identical bytes,
// last rename wins) and the entry must verify after.
func TestSharedStoreConcurrentSamePut(t *testing.T) {
	root := t.TempDir()
	h := hashOf("raced")
	payload := bytes.Repeat([]byte("r"), 2048)
	var wg sync.WaitGroup
	stores := make([]*Store, 4)
	for i := range stores {
		stores[i] = mustOpen(t, Config{Dir: root})
	}
	errs := make([]error, len(stores))
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			errs[i] = s.Put(h, payload)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d Put: %v", i, err)
		}
	}
	for i, s := range stores {
		got, ok := s.Get(h)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("store %d post-race Get failed", i)
		}
	}
}

// TestSiblingReadsOrderEviction: a read through one store moves the
// recency every other opener sees — no per-process hint files, no
// merge.
func TestSiblingReadsOrderEviction(t *testing.T) {
	root := t.TempDir()
	ha, hb := hashOf("ma"), hashOf("mb")
	payload := []byte(fmt.Sprintf("%200s", "x"))
	entrySize := int64(len(frame(payload)))

	a, b := mustOpen(t, Config{Dir: root}), mustOpen(t, Config{Dir: root})
	if err := a.Put(hb, payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(ha, payload); err != nil {
		t.Fatal(err)
	}
	// hb was written first, but B's read makes it the more recently
	// used one.
	if _, ok := b.Get(hb); !ok {
		t.Fatal("Get")
	}

	// A budget for one entry must evict ha (older access), not hb.
	c := mustOpen(t, Config{Dir: root, MaxBytes: entrySize})
	if _, ok := c.Get(ha); ok {
		t.Fatal("sibling's read did not order eviction: stale entry kept")
	}
	if _, ok := c.Get(hb); !ok {
		t.Fatal("sibling's read did not order eviction: read entry lost")
	}
}
