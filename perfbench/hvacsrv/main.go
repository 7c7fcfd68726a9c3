// Command hvacsrv is the benchmark's HVAC server process: hvac.StartServer
// with hvacd's defaults (random eviction, zero-copy serves on Linux),
// plus a PFS-open counter on the ServerConfig.OpenPFS seam and a line
// protocol on standard input and output (package report) through which
// the benchmark reads the server's stats, CPU and peak RSS at each phase
// boundary. It exits when its standard input closes or reads "quit".
//
//	hvacsrv -pfs DIR -cache DIR [-capacity BYTES] [-evict random|clairvoyant] [-seed N] [-sample-queue 5ms]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"hvac"
	"hvac/perfbench/report"
)

// pfsCounter counts opens and bytes through the OpenPFS seam.
type pfsCounter struct {
	mu    sync.Mutex
	opens int64
	bytes int64
	lat   []time.Duration // open latencies since the last report
}

func (p *pfsCounter) open(path string) (*os.File, error) {
	start := time.Now()
	f, err := os.Open(path)
	d := time.Since(start)
	var size int64
	if err == nil {
		if fi, serr := f.Stat(); serr == nil {
			size = fi.Size()
		}
	}
	p.mu.Lock()
	p.opens++
	p.bytes += size
	p.lat = append(p.lat, d)
	p.mu.Unlock()
	return f, err
}

// take returns the counters and the median open latency since the
// previous call.
func (p *pfsCounter) take() (opens, bytes int64, p50 time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.lat); n > 0 {
		sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
		p50 = p.lat[(n-1)/2]
	}
	p.lat = p.lat[:0]
	return p.opens, p.bytes, p50
}

// queueSampler records the highest mover queue depth it sees.
type queueSampler struct {
	mu   sync.Mutex
	max  int64
	stop chan struct{}
	done chan struct{}
}

func startQueueSampler(srv *hvac.Server, every time.Duration) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d := srv.Stats().QueueDepth
				q.mu.Lock()
				if d > q.max {
					q.max = d
				}
				q.mu.Unlock()
			case <-q.stop:
				return
			}
		}
	}()
	return q
}

// take returns the maximum since the previous call and resets it.
func (q *queueSampler) take() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	m := q.max
	q.max = 0
	return m
}

func (q *queueSampler) close() {
	if q != nil {
		close(q.stop)
		<-q.done
	}
}

func snapshot(srv *hvac.Server, capacity int64, pfs *pfsCounter, q *queueSampler) report.Server {
	r := report.Server{
		Stats:       srv.Stats(),
		CachedBytes: srv.CachedBytes(),
		Capacity:    capacity,
	}
	r.OpenCount, r.OpenSumNS = histSum(srv.OpenLatency().Count(), srv.OpenLatency().Mean())
	r.ReadCount, r.ReadSumNS = histSum(srv.ReadLatency().Count(), srv.ReadLatency().Mean())
	r.CopyCount, r.CopySumNS = histSum(srv.CopyLatency().Count(), srv.CopyLatency().Mean())
	var p50 time.Duration
	r.PFSOpens, r.PFSBytes, p50 = pfs.take()
	r.PFSOpenP50NS = int64(p50)
	r.QueueDepthMax = q.take()
	r.CPUNS = int64(report.ProcessCPU())
	r.HWMKiB = report.PeakRSSKiB()
	return r
}

func histSum(n int64, mean time.Duration) (int64, int64) { return n, n * int64(mean) }

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		pfsDir   = flag.String("pfs", "", "dataset directory on the PFS (required)")
		cacheDir = flag.String("cache", "", "node-local cache directory (required)")
		capacity = flag.Int64("capacity", 1600e9, "cache capacity in bytes (hvacd's default)")
		evict    = flag.String("evict", "random", "eviction policy: random|clairvoyant")
		seed     = flag.Uint64("seed", 0, "seed for random eviction")
		sampleQ  = flag.Duration("sample-queue", 0, "sample the mover queue depth at this interval (0 = off)")
	)
	flag.Parse()
	if *pfsDir == "" || *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "hvacsrv: -pfs and -cache are required")
		os.Exit(2)
	}
	var policy hvac.EvictionPolicy
	switch *evict {
	case "random":
		policy = hvac.RandomEviction(*seed)
	case "clairvoyant":
		policy = hvac.ClairvoyantEviction()
	default:
		fmt.Fprintf(os.Stderr, "hvacsrv: unknown eviction policy %q\n", *evict)
		os.Exit(2)
	}
	pfs := &pfsCounter{}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr:    *listen,
		PFSDir:        *pfsDir,
		CacheDir:      *cacheDir,
		CacheCapacity: *capacity,
		Policy:        policy,
		// hvacd's -zero-copy flag defaults on for Linux; the struct's
		// zero value is off.
		ZeroCopy: runtime.GOOS == "linux",
		OpenPFS:  pfs.open,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvacsrv: %v\n", err)
		os.Exit(1)
	}
	var q *queueSampler
	if *sampleQ > 0 {
		q = startQueueSampler(srv, *sampleQ)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(report.Ready{Addr: srv.Addr()}); err != nil {
		q.close()
		srv.Close()
		os.Exit(1)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := in.Text(); cmd {
		case report.CmdStats:
		case report.CmdIdle:
			srv.WaitIdle()
		case report.CmdQuit:
			q.close()
			srv.Close()
			_ = out.Encode(snapshot(srv, *capacity, pfs, nil)) // the reader may be gone; exit regardless
			return
		default:
			fmt.Fprintf(os.Stderr, "hvacsrv: unknown command %q\n", cmd)
			continue
		}
		if err := out.Encode(snapshot(srv, *capacity, pfs, q)); err != nil {
			break
		}
	}
	q.close()
	srv.Close()
}
