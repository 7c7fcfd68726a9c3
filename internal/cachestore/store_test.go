package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func newTestStore(t *testing.T, capacity int64, p Policy) *Store {
	t.Helper()
	s, err := NewStore(filepath.Join(t.TempDir(), "cache"), capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillKey inserts size bytes of src under key through the store's one
// insert path, PutWriter→Commit. A source shorter than size fails the
// commit.
func fillKey(s *Store, key string, size int64, src io.Reader) error {
	f, err := s.PutWriter(key, size)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, io.LimitReader(src, size)); err != nil {
		f.Abort(err)
		return err
	}
	return f.Commit()
}

// readKey reads len(p) bytes of key's committed entry through a lease.
func readKey(s *Store, key string, p []byte) error {
	l, err := s.Lease(key)
	if err != nil {
		return err
	}
	defer l.Release()
	_, err = l.ReadAt(p, 0)
	return err
}

// readAllKey returns key's whole committed entry, read through a lease.
func readAllKey(s *Store, key string) ([]byte, error) {
	l, err := s.Lease(key)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	return io.ReadAll(io.NewSectionReader(l, 0, l.Size()))
}

func TestPutOpenRoundTrip(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	content := []byte("hello hvac cache")
	if err := fillKey(s, "/pfs/data/a.bin", int64(len(content)), bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("/pfs/data/a.bin") {
		t.Fatal("not cached after commit")
	}
	got, err := readAllKey(s, "/pfs/data/a.bin")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestPutDuplicateNoop(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	fillKey(s, "k", 3, strings.NewReader("abc"))
	if err := fillKey(s, "k", 3, strings.NewReader("xyz")); err != nil {
		t.Fatal(err)
	}
	got, _ := readAllKey(s, "k")
	if string(got) != "abc" {
		t.Fatalf("duplicate fill overwrote content: %q", got)
	}
}

func TestShortSourceFails(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	err := fillKey(s, "k", 100, strings.NewReader("only a few bytes"))
	if err == nil {
		t.Fatal("short copy should fail")
	}
	if s.Contains("k") {
		t.Fatal("failed fill left index entry")
	}
	if s.Used() != 0 {
		t.Fatalf("used = %d after failed fill", s.Used())
	}
}

func TestEvictionRemovesFile(t *testing.T) {
	s := newTestStore(t, 10, NewFIFO())
	fillKey(s, "a", 6, strings.NewReader("aaaaaa"))
	fillKey(s, "b", 6, strings.NewReader("bbbbbb")) // evicts a
	if s.Contains("a") {
		t.Fatal("a should be evicted")
	}
	if _, err := s.Lease("a"); err == nil {
		t.Fatal("lease of evicted key should fail")
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files on disk, want 1 (evicted file removed)", len(entries))
	}
}

// TestConcurrentPutsAndReads races fills of 20 colliding keys against
// leases on them. A committed fill must be readable the moment Commit
// returns: the index may never list a key whose file is not yet at its
// content path (a duplicate commit returning early while the winner's
// rename was still pending used to surface here as ENOENT).
func TestConcurrentPutsAndReads(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("file-%d", (w*50+i)%20)
				content := strings.Repeat("x", 128)
				if err := fillKey(s, key, 128, strings.NewReader(content)); err != nil {
					t.Error(err)
					return
				}
				b, err := readAllKey(s, key)
				if err != nil {
					t.Error(err)
					return
				}
				if len(b) != 128 {
					t.Errorf("read %d bytes", len(b))
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Fatalf("len = %d, want 20", s.Len())
	}
}

func TestPurge(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	for i := 0; i < 5; i++ {
		fillKey(s, fmt.Sprintf("k%d", i), 4, strings.NewReader("data"))
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("after purge: len=%d used=%d", s.Len(), s.Used())
	}
	entries, _ := os.ReadDir(s.Dir())
	if len(entries) != 0 {
		t.Fatalf("%d files remain after purge", len(entries))
	}
}

func TestKeyCollisionSafety(t *testing.T) {
	// Similar path names must map to distinct cache files.
	s := newTestStore(t, 1<<20, NewLRU())
	fillKey(s, "/data/f1", 1, strings.NewReader("1"))
	fillKey(s, "/data/f2", 1, strings.NewReader("2"))
	b1, err := readAllKey(s, "/data/f1")
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != "1" {
		t.Fatalf("f1 content = %q", b1)
	}
}

// TestLeaseUnopenableDropsEntry removes a committed file behind the
// store's back: the lease reports ErrUnopenable (not a plain miss), the
// stale entry leaves the index, and a fresh fill makes the key readable
// again.
func TestLeaseUnopenableDropsEntry(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	if err := fillKey(s, "k", 4, strings.NewReader("data")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.pathFor("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lease("k"); !errors.Is(err, ErrUnopenable) {
		t.Fatalf("lease of an unlinked entry: %v, want ErrUnopenable", err)
	}
	if s.Resident("k") || s.Used() != 0 {
		t.Fatalf("stale entry survived: resident=%v used=%d", s.Resident("k"), s.Used())
	}
	if err := fillKey(s, "k", 4, strings.NewReader("data")); err != nil {
		t.Fatal(err)
	}
	if got, err := readAllKey(s, "k"); err != nil || string(got) != "data" {
		t.Fatalf("refilled entry read %q, %v", got, err)
	}
	if n := s.Leases(); n != 0 {
		t.Fatalf("%d leases outstanding after every reader released", n)
	}
}
