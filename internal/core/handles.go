package core

import (
	"os"
	"sync"

	"hvac/internal/cachestore"
)

// source is where a serve reads one cache key's bytes from: exactly one
// of a lease on the committed cache entry, a reference on the key's
// in-flight fill (its shared descriptor stays readable after Commit), or
// a PFS file (read-through). The read ladder (Server.acquire) resolves
// it; whoever holds it owes one release.
//
// An open handle is its source: handleOpen resolves it once and stores
// it by value, so nothing about a handle is ever written after it is
// published — handleClose and Server.Close release exactly that one
// source.
type source struct {
	lease *cachestore.Lease
	fill  *cachestore.Fill
	pfs   *os.File
	base  int64 // offset of the key's first byte in pfs (segment keys)
	size  int64 // bytes the key holds
	// borrowed marks a per-request view of a handle's PFS file: the
	// handle, not the request, closes it.
	borrowed bool
}

// ReadAt reads the key's bytes at off (relative to the key's start).
func (src source) ReadAt(p []byte, off int64) (int, error) {
	switch {
	case src.lease != nil:
		return src.lease.ReadAt(p, off)
	case src.fill != nil:
		return src.fill.ReadAt(p, off)
	}
	return src.pfs.ReadAt(p, src.base+off)
}

// release drops the source's reference.
func (src source) release() {
	switch {
	case src.lease != nil:
		src.lease.Release()
	case src.fill != nil:
		src.fill.Release()
	case !src.borrowed:
		_ = src.pfs.Close() // read-only handle: nothing to flush
	}
}

// share takes a reference for one request on a handle's source, so a
// close racing the request cannot release the bytes under it. Leases and
// fills are ref-counted; a PFS file is lent as-is, and a close racing
// the read fails it with os.ErrClosed instead of leaking it.
func (src source) share() (source, bool) {
	switch {
	case src.lease != nil:
		src.lease = src.lease.Share()
	case src.fill != nil:
		if !src.fill.Acquire() {
			return source{}, false
		}
	default:
		src.borrowed = true
	}
	return src, true
}

// handleShards is the stripe count of the server's open-handle table. 16
// stripes of RWMutex keep concurrent readers of distinct handles (the
// common case: every client connection reads through its own fd) from
// serializing on one lock, which is what the paper's i×1 multi-instance
// deployments buy with separate processes.
const handleShards = 16

// handleTable is a sharded fd -> source map. Lookups take only the
// owning shard's read lock, so the hot read path never contends with
// opens and closes on other shards.
type handleTable struct {
	shards [handleShards]handleShard
}

type handleShard struct {
	mu sync.RWMutex
	m  map[int64]source
}

func (t *handleTable) shard(fd int64) *handleShard {
	return &t.shards[uint64(fd)%handleShards]
}

// share returns a per-request reference on fd's source. It is taken
// under the shard lock that take needs, so it either completes before a
// racing close releases the handle's reference or finds no handle.
func (t *handleTable) share(fd int64) (source, bool) {
	sh := t.shard(fd)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	src, ok := sh.m[fd]
	if !ok {
		return source{}, false
	}
	return src.share()
}

func (t *handleTable) put(fd int64, src source) {
	sh := t.shard(fd)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[int64]source)
	}
	sh.m[fd] = src
	sh.mu.Unlock()
}

// take removes and returns the source for fd.
func (t *handleTable) take(fd int64) (source, bool) {
	sh := t.shard(fd)
	sh.mu.Lock()
	src, ok := sh.m[fd]
	if ok {
		delete(sh.m, fd)
	}
	sh.mu.Unlock()
	return src, ok
}

// drain empties the table and returns every source, for teardown.
func (t *handleTable) drain() []source {
	var out []source
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, src := range sh.m {
			out = append(out, src)
		}
		sh.m = nil
		sh.mu.Unlock()
	}
	return out
}
