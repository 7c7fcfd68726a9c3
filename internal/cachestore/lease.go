package cachestore

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Lease is a ref-counted fd lease on a cached file — the store's only way
// to hand out a cache descriptor. Readers pread through it, and the
// zero-copy serve path hands (fd, off, len) to sendfile while the lease
// pins the pooled handle. Leases are unlink-safe: the store evicting
// (unlinking) the file only marks the handle dead, and the inode survives
// until the last lease releases it, so nothing in the index is ever
// pinned against eviction.
//
// Ownership: every Lease must be Released exactly once (the ownerpass
// analyzer enforces this statically). The *os.File from File is only
// valid until Release.
type Lease struct {
	hp   *handlePool
	pf   *pooledFile
	size int64
}

// leasePool recycles Lease structs so a warm zero-copy serve allocates
// nothing.
var leasePool = sync.Pool{New: func() any { return new(Lease) }}

// ErrUnopenable is Lease's failure for a key the index lists as resident
// whose content file would not open — the index and the directory
// disagree. The store has already dropped the stale entry, so the next
// fill of key re-inserts it.
var ErrUnopenable = errors.New("cachestore: resident entry would not open")

// Lease pins an open descriptor for key's cached file and returns it
// with the file's cached size, taking exactly one counting index access.
// A miss (never filled, or evicted since the caller's probe) returns an
// error; callers read through from the fill or the PFS instead. The
// index probe and the open share one Store.mu critical section, so
// eviction cannot slip between them: a key Contains reports is a file
// Lease can open.
func (s *Store) Lease(key string) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ix.Contains(key) {
		return nil, fmt.Errorf("cachestore: %s not cached", key)
	}
	size, _ := s.ix.Size(key)
	path := s.pathFor(key)
	pf, err := s.hp.acquire(key, path)
	if err != nil {
		s.ix.Remove(key)
		_ = os.Remove(path) // best-effort: whatever is left there is unreadable
		return nil, fmt.Errorf("%w: %s: %v", ErrUnopenable, key, err)
	}
	return s.hp.lease(pf, size), nil
}

// Leases reports how many leases are outstanding — zero once every
// reader has released, which teardown leak checks assert.
func (s *Store) Leases() int { return s.hp.leased() }

// File exposes the leased descriptor; valid only until Release.
func (l *Lease) File() *os.File { return l.pf.f }

// Size reports the cached file's size as indexed at lease time.
func (l *Lease) Size() int64 { return l.size }

// ReadAt preads from the leased descriptor.
func (l *Lease) ReadAt(p []byte, off int64) (int, error) {
	return l.pf.f.ReadAt(p, off)
}

// Share takes another lease on the same descriptor, without an index
// access: the new lease stays valid after l is released, so a holder can
// hand a per-request lease to the transport while keeping its own.
func (l *Lease) Share() *Lease {
	l.hp.ref(l.pf)
	return l.hp.lease(l.pf, l.size)
}

// Release returns the lease: the pooled handle loses one reference (the
// last release of a dead handle closes it) and the Lease struct is
// recycled. Releasing an already-released lease is a no-op.
func (l *Lease) Release() {
	hp, pf := l.hp, l.pf
	if hp == nil {
		return
	}
	*l = Lease{}
	leasePool.Put(l)
	hp.release(pf)
}
