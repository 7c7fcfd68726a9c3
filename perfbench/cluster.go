package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"hvac"
	"hvac/internal/transport"
	"hvac/perfbench/report"
)

// serverProc is one hvacsrv process.
type serverProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	addr string
}

// serverArgs configures one server process.
type serverArgs struct {
	bin, pfs, cache string
	capacity        int64
	evict           string
	seed            uint64
	sampleQueue     time.Duration
}

func startServer(a serverArgs) (*serverProc, error) {
	cmd := exec.Command(a.bin,
		"-pfs", a.pfs, "-cache", a.cache,
		"-capacity", strconv.FormatInt(a.capacity, 10),
		"-evict", a.evict, "-seed", strconv.FormatUint(a.seed, 10),
		"-sample-queue", a.sampleQueue.String())
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", a.bin, err)
	}
	s := &serverProc{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	s.out.Buffer(make([]byte, 64<<10), 1<<20)
	var ready report.Ready
	if err := s.read(&ready); err != nil {
		s.kill()
		return nil, fmt.Errorf("server start-up: %w", err)
	}
	s.addr = ready.Addr
	return s, nil
}

func (s *serverProc) read(v any) error {
	if !s.out.Scan() {
		if err := s.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(s.out.Bytes(), v)
}

// query sends one command and decodes the server's report.
func (s *serverProc) query(cmd string) (report.Server, error) {
	var r report.Server
	if _, err := io.WriteString(s.in, cmd+"\n"); err != nil {
		return r, fmt.Errorf("server %s: %w", s.addr, err)
	}
	err := s.read(&r)
	return r, err
}

// stop closes the server and waits for the process to exit, returning
// its final report.
func (s *serverProc) stop() (report.Server, error) {
	r, err := s.query(report.CmdQuit)
	_ = s.in.Close() // the process exits on quit or on this EOF
	if werr := s.cmd.Wait(); err == nil {
		err = werr
	}
	return r, err
}

func (s *serverProc) kill() {
	_ = s.in.Close()         // a live server exits on EOF
	_ = s.cmd.Process.Kill() // and a wedged one is killed
	_ = s.cmd.Wait()         // reap; the exit status of a killed process is not news
}

// pooledClient is one core.Client with the span its caller is in.
type pooledClient struct {
	c   *hvac.Client
	cur atomic.Uint64
	// readAlls counts ReadAll calls, for the open-outcome identity.
	readAlls int64
}

// clientPool holds one client per loader worker, as the paper runs one
// interposed client per DataLoader worker process. A call checks a
// client out for its duration.
type clientPool struct {
	ch      chan *pooledClient
	clients []*pooledClient
	rec     *recorder    // nil: untraced
	errors  atomic.Int64 // transport errors seen by the traced links
}

const (
	numServers = 2
	numClients = 2 // the load generator's concurrency: nproc on the reference box
)

// newPool builds numClients clients of the servers at addrs; a non-nil
// rec decorates every client's links with traced ones.
func newPool(addrs []string, datasetDir string, rec *recorder) (*clientPool, error) {
	p := &clientPool{ch: make(chan *pooledClient, numClients), rec: rec}
	for i := 0; i < numClients; i++ {
		pc := &pooledClient{}
		cfg := hvac.ClientConfig{Servers: addrs, DatasetDir: datasetDir}
		if rec != nil {
			opts := clientOptions(cfg)
			cfg.DialTransport = func(addr string) hvac.Transport {
				return &tracedLink{inner: transport.DialWith(addr, opts), rec: rec, cur: &pc.cur, errors: &p.errors}
			}
		}
		c, err := hvac.NewClient(cfg)
		if err != nil {
			p.close()
			return nil, err
		}
		pc.c = c
		p.clients = append(p.clients, pc)
		p.ch <- pc
	}
	return p, nil
}

// call runs fn on a client checked out of the pool, inside a span
// named name under parent.
func (p *clientPool) call(name string, parent uint64, fn func(c *hvac.Client)) {
	pc := <-p.ch
	defer func() { p.ch <- pc }()
	id := p.rec.newID()
	pc.cur.Store(id)
	p.rec.record(name, id, parent, func() { fn(pc.c) })
	if name == spanReadAll {
		pc.readAlls++
	}
}

// stats sums the pool's client counters.
//
//hvac:pair-split open-outcome sums whole per-client snapshots, each of which already counts one outcome per open
func (p *clientPool) stats() (st hvac.ClientStats, readAlls int64) {
	for _, pc := range p.clients {
		s := pc.c.Stats()
		st.Redirected += s.Redirected
		st.Passthrough += s.Passthrough
		st.Fallbacks += s.Fallbacks
		st.Degrades += s.Degrades
		st.Retries += s.Retries
		st.BatchFallbacks += s.BatchFallbacks
		readAlls += pc.readAlls
	}
	return st, readAlls
}

func (p *clientPool) close() {
	for _, pc := range p.clients {
		pc.c.Close()
	}
	p.clients = nil
}

// cluster is the benchmark's server processes.
type cluster struct {
	servers []*serverProc
	addrs   []string
	caches  []string // the servers' cache directories
}

// startCluster launches the servers, each with a new cache directory
// under work.
func startCluster(bin, work string, ds *sampleSet, w *workload, seed uint64, sampleQueue time.Duration) (*cluster, error) {
	cl := &cluster{}
	capacity := int64(float64(ds.bytes) * w.cacheFrac / numServers)
	for i := 0; i < numServers; i++ {
		cache := filepath.Join(work, fmt.Sprintf("cache%d", i))
		cl.caches = append(cl.caches, cache)
		s, err := startServer(serverArgs{
			bin: bin, pfs: ds.dir, cache: cache,
			capacity: capacity, evict: w.evict, seed: seed + uint64(i), sampleQueue: sampleQueue,
		})
		if err != nil {
			cl.kill()
			return nil, err
		}
		cl.servers = append(cl.servers, s)
		cl.addrs = append(cl.addrs, s.addr)
	}
	return cl, nil
}

// query sends cmd to every server.
func (cl *cluster) query(cmd string) ([]report.Server, error) {
	out := make([]report.Server, len(cl.servers))
	for i, s := range cl.servers {
		r, err := s.query(cmd)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// stop closes the servers, returns their final reports and removes
// their caches, so that the next set-up does not pay for the unlinks.
func (cl *cluster) stop() ([]report.Server, error) {
	var errs []error
	out := make([]report.Server, len(cl.servers))
	for i, s := range cl.servers {
		r, err := s.stop()
		out[i] = r
		errs = append(errs, err)
	}
	cl.servers = nil
	for _, dir := range cl.caches {
		errs = append(errs, os.RemoveAll(dir))
	}
	return out, errors.Join(errs...)
}

// kill tears the servers down without waiting for reports.
func (cl *cluster) kill() {
	for _, s := range cl.servers {
		s.kill()
	}
	cl.servers = nil
}
