package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hvac/internal/transport"
)

// TestWarmHandleSurvivesEviction opens a warm handle, forces its key
// out of the cache, then reads through the handle: the lease taken at
// open keeps the evicted file's bytes readable, so the read needs no
// re-fill — the PFS open count stays at the original fill's one.
func TestWarmHandleSurvivesEviction(t *testing.T) {
	for _, zc := range []bool{false, true} {
		name := "pooled"
		if zc {
			name = "zero-copy"
		}
		t.Run(name, func(t *testing.T) {
			const size = 64 << 10
			pfsDir := filepath.Join(t.TempDir(), "dataset")
			paths := writePFS(t, pfsDir, 2, size)
			var counts *sync.Map
			servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
				counts = countingOpens(c)
				c.CacheCapacity = size // one file fits: caching the second evicts the first
				c.ZeroCopy = zc
			}, nil)
			srv := servers[0]

			if n := cli.Prefetch(paths[:1]); n != 1 {
				t.Fatalf("prefetch accepted %d files, want 1", n)
			}
			srv.WaitIdle()
			f, err := cli.Open(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if st := srv.Stats(); st.Hits != 1 {
				t.Fatalf("warm open: stats %+v, want one hit", st)
			}

			if n := cli.Prefetch(paths[1:]); n != 1 {
				t.Fatalf("prefetch accepted %d files, want 1", n)
			}
			srv.WaitIdle()
			if srv.store.Resident(paths[0]) {
				t.Fatal("the warm handle's key is still resident; eviction was not forced")
			}

			got := make([]byte, size)
			if n, err := f.ReadAt(got, 0); err != nil || n != size {
				t.Fatalf("read after eviction: %d bytes, %v", n, err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0}, size)) {
				t.Fatal("read after eviction returned the wrong bytes")
			}
			if n := opensOf(counts, paths[0]); n != 1 {
				t.Fatalf("evicted key cost %d PFS opens, want 1 (the original fill only)", n)
			}
			if cs := cli.Stats(); cs.Fallbacks != 0 || cs.Degrades != 0 {
				t.Fatalf("client stats %+v: the read left the server", cs)
			}
		})
	}
}

// TestResidentOpenFailCounted unlinks a committed content file behind
// the store's back: the next open finds the key indexed but unopenable,
// counts it in ResidentOpenFails, and still serves the PFS bytes through
// the miss rungs, which re-fill the key.
func TestResidentOpenFailCounted(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 4096)
	cacheDir := filepath.Join(t.TempDir(), "nvme")
	srv, err := StartServer(ServerConfig{ListenAddr: "127.0.0.1:0", PFSDir: pfsDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := bytes.Repeat([]byte{0}, 4096)

	readAll := func() []byte {
		t.Helper()
		open := srv.handle(&transport.Request{Op: transport.OpOpen, Path: paths[0]})
		if !open.OK() {
			t.Fatal(open.Error())
		}
		resp := srv.handle(&transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: open.Size})
		if !resp.OK() {
			t.Fatal(resp.Error())
		}
		got := append([]byte(nil), resp.Data...)
		resp.Release()
		if c := srv.handle(&transport.Request{Op: transport.OpClose, Handle: open.Handle}); !c.OK() {
			t.Fatal(c.Error())
		}
		return got
	}

	if r := srv.handle(&transport.Request{Op: transport.OpPrefetch, Path: paths[0]}); !r.OK() {
		t.Fatal(r.Error())
	}
	srv.WaitIdle()
	entries, err := os.ReadDir(cacheDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want the one content file", len(entries), err)
	}
	if err := os.Remove(filepath.Join(cacheDir, entries[0].Name())); err != nil {
		t.Fatal(err)
	}

	if got := readAll(); !bytes.Equal(got, want) {
		t.Fatal("open of an unopenable resident entry returned the wrong bytes")
	}
	if n := srv.Stats().ResidentOpenFails; n != 1 {
		t.Fatalf("ResidentOpenFails = %d, want 1", n)
	}
	srv.WaitIdle()
	if got := readAll(); !bytes.Equal(got, want) {
		t.Fatal("re-filled entry returned the wrong bytes")
	}
	if st := srv.Stats(); st.ResidentOpenFails != 1 || st.Hits != 1 {
		t.Fatalf("after the re-fill: stats %+v, want ResidentOpenFails 1 and one hit", st)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestCloseRacesColdReadNoLeak races OpClose against each cold handle's
// first read, 200 times. Whatever order they land in, the handle's one
// source is released exactly once: after Server.Close the process is
// back to its baseline descriptor count and no lease is outstanding.
func TestCloseRacesColdReadNoLeak(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	const iters = 200
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, iters, 4096)
	start := func() *Server {
		srv, err := StartServer(ServerConfig{
			ListenAddr: "127.0.0.1:0",
			PFSDir:     pfsDir,
			CacheDir:   filepath.Join(t.TempDir(), "nvme"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	// A first server brings up the runtime's poller descriptors, which
	// outlive it; the baseline is taken after they exist.
	start().Close()
	baseline := openFDs(t)

	srv := start()
	for i := 0; i < iters; i++ {
		open := srv.handle(&transport.Request{Op: transport.OpOpen, Path: paths[i]})
		if !open.OK() {
			t.Fatal(open.Error())
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			srv.handle(&transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: 4096}).Release()
		}()
		go func() {
			defer wg.Done()
			srv.handle(&transport.Request{Op: transport.OpClose, Handle: open.Handle}).Release()
		}()
		wg.Wait()
	}
	srv.WaitIdle()
	store := srv.store
	srv.Close()

	if n := store.Leases(); n != 0 {
		t.Fatalf("%d leases outstanding after Server.Close", n)
	}
	// Descriptors other tests' connections left behind may still be
	// closing; only a count above the baseline is a leak.
	deadline := time.Now().Add(2 * time.Second)
	for n := openFDs(t); n > baseline; n = openFDs(t) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open after Server.Close, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
