package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"hvac"
	"hvac/loader"
	"hvac/perfbench/report"
)

// epochResult is one epoch's measurements.
type epochResult struct {
	samples   int
	bytes     int64
	wait      time.Duration   // step waits plus plan install: the epoch with the benchmark's own checking taken out
	steps     []time.Duration // per-step batch waits
	clientCPU time.Duration
	before    []report.Server // server reports at the epoch's start and end
	after     []report.Server
	clientPFS int64 // client-side PFS bytes (fallbacks and degrades, estimated at the mean sample size)
}

func (e epochResult) mib() float64 { return float64(e.bytes) / (1 << 20) }

func (e epochResult) serverCPU() time.Duration {
	var ns int64
	for i := range e.after {
		ns += e.after[i].CPUNS - e.before[i].CPUNS
	}
	return time.Duration(ns)
}

func (e epochResult) pfsBytes() int64 {
	n := e.clientPFS
	for i := range e.after {
		n += e.after[i].PFSBytes - e.before[i].PFSBytes
	}
	return n
}

// realRun drives one real workload on one cluster.
type realRun struct {
	w    *workload
	ds   *sampleSet
	cl   *cluster
	pool *clientPool
	chk  *checker
	ldr  *loader.Loader
	seed uint64
	// step is the id of the loader step in progress: the parent of the
	// client spans its fetches record. Only the loader goroutine writes
	// it, between fetches.
	step uint64
}

// newLoader builds the loader over the run's client pool.
func (r *realRun) newLoader() error {
	src := func(path string) (data []byte, err error) {
		r.pool.call(spanReadAll, r.step, func(c *hvac.Client) { data, err = c.ReadAll(path) })
		return data, err
	}
	cfg := loader.Config{Paths: r.ds.paths(), BatchSize: r.w.batch, Workers: numClients, Seed: r.seed}
	if r.w.planned {
		cfg.BatchSource = func(paths []string) (out [][]byte, err error) {
			r.pool.call(spanReadBatch, r.step, func(c *hvac.Client) { out, err = c.ReadBatch(paths) })
			return out, err
		}
	}
	ldr, err := loader.New(src, cfg)
	r.ldr = ldr
	return err
}

// epoch runs epoch e: the plan install when the workload plans, then the
// loader's batches, each checked by the oracle. A step's wait runs from
// the end of one batch callback to the start of the next, so the
// oracle's own hashing is not charged to the system.
func (r *realRun) epoch(e int) (epochResult, error) {
	var res epochResult
	before, err := r.cl.query(report.CmdStats)
	if err != nil {
		return res, err
	}
	cs0, _ := r.pool.stats()
	cpu0 := report.ProcessCPU()
	rec := r.pool.rec
	if r.w.planned {
		start := time.Now()
		order := r.ldr.EpochOrder(e)
		var perr error
		r.pool.call(spanInstallPlan, 0, func(c *hvac.Client) { _, perr = c.InstallPlan(int64(e), order, 0) })
		if perr != nil {
			return res, fmt.Errorf("install plan: %w", perr)
		}
		res.wait += time.Since(start)
	}
	r.chk.startEpoch(e)
	last := time.Now()
	stepStart := rec.now()
	r.step = rec.newID()
	lerr := r.ldr.Epoch(e, func(b loader.Batch) error {
		now := time.Now()
		d := now.Sub(last)
		res.steps = append(res.steps, d)
		res.wait += d
		rec.add(span{id: r.step, name: spanStep, start: stepStart, end: rec.now()})
		for i, p := range b.Paths {
			r.chk.sample(p, b.Data[i])
		}
		last = time.Now()
		stepStart = rec.now()
		r.step = rec.newID()
		return nil
	})
	if lerr != nil {
		r.chk.fail(fmt.Errorf("epoch %d: %w", e, lerr))
	}
	res.clientCPU = report.ProcessCPU() - cpu0
	r.chk.endEpoch()
	res.samples, res.bytes = r.chk.delivered, r.chk.bytes
	cs1, _ := r.pool.stats()
	if n := (cs1.Fallbacks - cs0.Fallbacks) + (cs1.Degrades - cs0.Degrades); n > 0 && res.samples > 0 {
		res.clientPFS = n * res.bytes / int64(res.samples)
	}
	res.before = before
	res.after, err = r.cl.query(report.CmdStats)
	return res, err
}

// phase runs epochs from first on until seconds have passed and the
// steps taken give the workload's tail percentile minBeyond samples
// beyond it (bounded by maxPhase).
func (r *realRun) phase(first int, seconds float64) ([]epochResult, error) {
	var out []epochResult
	start := time.Now()
	steps := 0
	e := first
	for {
		res, err := r.epoch(e)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		steps += len(res.steps)
		e++
		el := time.Since(start)
		if el.Seconds() >= seconds && beyond(steps, r.w.tailQ) >= minBeyond {
			return out, nil
		}
		if el > maxPhase {
			return nil, fmt.Errorf("%d steps in %v: too few for p%g with %d beyond", steps, el, 100*r.w.tailQ, minBeyond)
		}
	}
}

// maxPhase caps a timed phase that has not yet taken enough steps.
const maxPhase = 60 * time.Second

// checkSpace refuses to start when dir's file system cannot hold need
// bytes with a 10% margin.
func checkSpace(dir string, need int64) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	free := int64(st.Bavail) * int64(st.Bsize)
	if free < need+need/10 {
		return fmt.Errorf("%s: %d MiB free, need %d MiB", dir, free>>20, need>>20)
	}
	return nil
}

// runReal runs a real workload: generate the dataset, set up
// setupRepeats times (launch the servers, build the clients, run one
// untimed epoch that fills the cache and wait for its fills to land),
// keep the last deployment, run warmupEpochs untimed epochs on it, time
// the phase after them, and check the stat identities once the servers
// are idle. A traced run sets up once, warms up, then alternates
// untraced and traced epochs, and reports the per-layer metrics instead
// of the end-to-end ones.
func runReal(w *workload, o options) (*result, error) {
	work := filepath.Join(o.root, ".bench_build", "work", w.name)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dsBytes := int64(w.files) * w.meanSize
	if err := checkSpace(work, dsBytes+int64(float64(dsBytes)*w.cacheFrac)); err != nil {
		return nil, err
	}
	ds, err := generate(filepath.Join(work, "pfs"), o.seed, w.files, w.meanSize, w.sigma)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	chk := newChecker(ds)
	run := &realRun{w: w, ds: ds, chk: chk, seed: o.seed}
	var pools []*clientPool
	defer func() {
		for _, p := range pools {
			p.close()
		}
		if run.cl != nil {
			run.cl.kill()
		}
	}()
	repeats, sample := setupRepeats, time.Duration(0)
	if o.trace {
		repeats, sample = 1, 5*time.Millisecond
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if run.cl != nil {
			run.pool.close()
			if _, err := run.cl.stop(); err != nil {
				return nil, err
			}
		}
		// Write back the dataset and the previous caches first, so that
		// neither set-up nor the timed phase shares the disk with it.
		syscall.Sync()
		start := time.Now()
		if run.cl, err = startCluster(filepath.Join(filepath.Dir(o.self), "hvacsrv"), work, ds, w, o.seed, sample); err != nil {
			return nil, err
		}
		if run.pool, err = newPool(run.cl.addrs, ds.dir, nil); err != nil {
			return nil, err
		}
		pools = []*clientPool{run.pool}
		if err := run.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	syscall.Sync()
	// The first epochs after set-up run slower than the ones after them
	// on every workload; they are run untimed.
	for e := 1; e <= warmupEpochs; e++ {
		if _, err := run.epoch(e); err != nil {
			return nil, err
		}
	}
	first := 1 + warmupEpochs

	res := &result{metrics: map[string]float64{}}
	var timed []epochResult
	if o.trace {
		// Alternate untraced and traced epochs so that both see the same
		// conditions; the traced ones give the per-layer metrics.
		traced := *run
		rec := newRecorder()
		if traced.pool, err = newPool(run.cl.addrs, ds.dir, rec); err != nil {
			return nil, err
		}
		pools = append(pools, traced.pool)
		if err := traced.newLoader(); err != nil {
			return nil, err
		}
		var untraced []epochResult
		start := time.Now()
		for e := first; len(timed) == 0 || time.Since(start).Seconds() < o.seconds; e += 2 {
			u, err := run.epoch(e)
			if err != nil {
				return nil, err
			}
			t, err := traced.epoch(e + 1)
			if err != nil {
				return nil, err
			}
			untraced, timed = append(untraced, u), append(timed, t)
		}
		end, err := run.cl.query(report.CmdIdle)
		if err != nil {
			return nil, err
		}
		cs, _ := traced.pool.stats()
		layerMetrics(res.metrics, layerInput{
			epochs: timed, untraced: untraced, spans: rec.snapshot(),
			client: cs, linkErrors: traced.pool.errors.Load(), end: end,
		})
		if err := rec.write(o.spansPath(w)); err != nil {
			return nil, err
		}
	} else {
		if timed, err = run.phase(first, o.seconds); err != nil {
			return nil, err
		}
		endToEnd(res.metrics, w, timed, setups)
	}

	idle, err := run.cl.query(report.CmdIdle)
	if err != nil {
		return nil, err
	}
	for i, r := range idle {
		if err := serverIdentities(i, r.Stats); err != nil {
			chk.fail(err)
		}
	}
	for _, p := range pools {
		if err := p.openIdentity(); err != nil {
			chk.fail(err)
		}
	}
	for _, p := range pools {
		p.close()
	}
	pools = nil
	final, err := run.cl.stop()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		var hwm int64
		for _, r := range final {
			hwm += r.HWMKiB
		}
		res.metrics["peak_rss_mib"] = float64(hwm) / 1024
	}
	res.attempted, res.failed, res.firstErr = chk.attempted, chk.failed, chk.firstErr
	steps := 0
	for _, e := range timed {
		steps += len(e.steps)
	}
	res.note = fmt.Sprintf("%d timed epochs, %d steps; step_tail_ms is p%g", len(timed), steps, 100*w.tailQ)
	return res, nil
}

// setUp runs the untimed first epoch and waits for its fills to land.
func (r *realRun) setUp() error {
	if err := r.newLoader(); err != nil {
		return err
	}
	if _, err := r.epoch(0); err != nil {
		return err
	}
	_, err := r.cl.query(report.CmdIdle)
	return err
}

// warmupEpochs is how many untimed epochs run between the last set-up
// and the timed phase.
const warmupEpochs = 2

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median.
const setupRepeats = 3

// endToEnd derives the end-to-end metrics from the timed epochs: rates
// and CPU per MiB over the whole timed phase, step times percentiles
// over all steps. The host's speed drifts within a run; totals average
// over that drift where a median over epochs would follow whichever
// speed held longest.
func endToEnd(m map[string]float64, w *workload, timed []epochResult, setups []float64) {
	var steps []float64
	var wait, ccpu, scpu time.Duration
	var samples int
	var pfs, bytes int64
	for _, e := range timed {
		samples += e.samples
		wait += e.wait
		ccpu += e.clientCPU
		scpu += e.serverCPU()
		for _, s := range e.steps {
			steps = append(steps, float64(s)/1e6)
		}
		pfs += e.pfsBytes()
		bytes += e.bytes
	}
	mib := float64(bytes) / (1 << 20)
	m["samples_per_s"] = ratio(float64(samples), wait.Seconds())
	m["step_p50_ms"] = quantile(steps, 0.5)
	m["step_tail_ms"] = quantile(steps, w.tailQ)
	m["client_cpu_ms_per_mib"] = ratio(float64(ccpu)/1e6, mib)
	m["server_cpu_ms_per_mib"] = ratio(float64(scpu)/1e6, mib)
	m["pfs_read_ratio"] = ratio(float64(pfs), float64(bytes))
	m["setup_s"] = median(setups)
}
