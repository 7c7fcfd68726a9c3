package cachestore

import (
	"os"
	"sync"
)

// handlePool keeps recently used cache files open so a warm lease costs
// a map lookup instead of an open/close pair per request. Entries are
// ref-counted by their leases: eviction (FIFO once the pool is full, or
// an explicit drop when the store evicts the file) marks an entry dead
// and the last lease closes it. Reading from a dropped handle is safe —
// the unlinked file's inode lives until the descriptor closes, and a
// cache key always names the same bytes.
type handlePool struct {
	mu   sync.Mutex
	max  int
	m    map[string]*pooledFile
	fifo []string
	refs int // outstanding references across live and dead entries
}

type pooledFile struct {
	f    *os.File
	refs int
	dead bool
}

func newHandlePool(max int) *handlePool {
	return &handlePool{max: max, m: make(map[string]*pooledFile)}
}

// acquire returns an open file for key, opening path on a pool miss.
// The caller must pass the returned *pooledFile to release exactly
// once. The open runs under the pool lock, which also serialises
// concurrent misses on the same key (one open, not two). Taking the
// path (not a closure) keeps the warm lease path allocation-free.
func (hp *handlePool) acquire(key, path string) (*pooledFile, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if pf, ok := hp.m[key]; ok {
		pf.refs++
		hp.refs++
		return pf, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pf := &pooledFile{f: f, refs: 1}
	hp.refs++
	hp.m[key] = pf
	hp.fifo = append(hp.fifo, key)
	for len(hp.m) > hp.max && len(hp.fifo) > 0 {
		victim := hp.fifo[0]
		hp.fifo = hp.fifo[1:]
		hp.dropLocked(victim)
	}
	return pf, nil
}

// ref takes one more reference on an entry the caller already holds.
func (hp *handlePool) ref(pf *pooledFile) {
	hp.mu.Lock()
	pf.refs++
	hp.refs++
	hp.mu.Unlock()
}

// lease wraps one held reference on pf in a pooled Lease.
func (hp *handlePool) lease(pf *pooledFile, size int64) *Lease {
	l := leasePool.Get().(*Lease)
	l.hp, l.pf, l.size = hp, pf, size
	return l
}

// leased reports the outstanding references.
func (hp *handlePool) leased() int {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.refs
}

// release undoes one acquire or ref; the last release of a dead entry
// closes it.
func (hp *handlePool) release(pf *pooledFile) {
	hp.mu.Lock()
	pf.refs--
	hp.refs--
	dead := pf.dead && pf.refs == 0
	hp.mu.Unlock()
	if dead {
		_ = pf.f.Close() // nothing to report to: readers are gone
	}
}

// drop removes key from the pool (store eviction or purge); in-flight
// readers keep their descriptor until release.
func (hp *handlePool) drop(key string) {
	hp.mu.Lock()
	hp.dropLocked(key)
	hp.mu.Unlock()
}

func (hp *handlePool) dropLocked(key string) {
	pf, ok := hp.m[key]
	if !ok {
		return
	}
	delete(hp.m, key)
	if pf.refs == 0 {
		_ = pf.f.Close() // no readers left; close is best-effort
		return
	}
	pf.dead = true
}

// closeAll drops every pooled handle, for store teardown.
func (hp *handlePool) closeAll() {
	hp.mu.Lock()
	keys := make([]string, 0, len(hp.m))
	for k := range hp.m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		hp.dropLocked(k)
	}
	hp.fifo = nil
	hp.mu.Unlock()
}
