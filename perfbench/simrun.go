package main

import (
	"fmt"
	"time"

	"hvac/internal/dataset"
	"hvac/internal/sim"
	"hvac/internal/summit"
	"hvac/internal/train"
	"hvac/internal/vfs"
	"hvac/perfbench/report"
)

// sim_train: ResNet50 on ImageNet-21K scaled 1/1024 on 128 simulated
// Summit nodes with HVAC(1×1). The small per-rank batch gives rank 0
// enough steps per epoch for a tail percentile of simulator wall time
// per training step.
const (
	simNodes        = 128
	simProcsPerNode = 2
	simBatch        = 4
	simEpochs       = 2
	simScale        = 1.0 / 1024
)

// simRepeat is one simulated training job's outcome.
type simRepeat struct {
	setup, wall, cpu time.Duration
	steps            []time.Duration // wall time between rank 0's step completions
	events           uint64
	res              *train.Result
	served, fetched  int64
	hits, misses     int64
}

// stepFS wraps rank 0's file system and stamps the wall clock each time
// rank 0 closes the last file of a step.
type stepFS struct {
	vfs.FS
	bounds []int // cumulative file counts at which a step completes
	closes int
	stamps []time.Time
}

func (s *stepFS) Close(p *sim.Proc, h vfs.Handle) error {
	err := s.FS.Close(p, h)
	s.closes++
	if len(s.stamps) < len(s.bounds) && s.closes == s.bounds[len(s.stamps)] {
		s.stamps = append(s.stamps, time.Now())
	}
	return err
}

// rank0Bounds lists the cumulative file counts at which rank 0 finishes
// each step, mirroring train.Run's strided sharding.
func rank0Bounds(n, world, batch, epochs int) []int {
	var out []int
	total := 0
	for e := 0; e < epochs; e++ {
		for base := 0; base < n; base += world * batch {
			for b := 0; b < batch && base+b*world < n; b++ {
				total++
			}
			out = append(out, total)
		}
	}
	return out
}

// simulate sets up a fresh simulated cluster and runs the job once.
func simulate(seed uint64, rec *recorder) (simRepeat, error) {
	var r simRepeat
	start := time.Now()
	data := dataset.ImageNet21K().Scale(simScale)
	eng := sim.NewEngine()
	cluster := summit.NewCluster(eng, simNodes, data.Namespace())
	cluster.RegisterJob(simNodes * simProcsPerNode)
	job := cluster.StartHVAC(summit.HVACOptions{InstancesPerNode: 1, EvictionSeed: seed})
	r.setup = time.Since(start)

	world := simNodes * simProcsPerNode
	rank0 := &stepFS{bounds: rank0Bounds(data.TrainFiles, world, simBatch, simEpochs)}
	fsFor := func(node, proc int) vfs.FS {
		fs := job.FS()(node, proc)
		if node == 0 && proc == 0 {
			rank0.FS = fs
			return rank0
		}
		return fs
	}
	cfg := train.Config{
		Model: train.ResNet50(), Data: data, Nodes: simNodes, ProcsPerNode: simProcsPerNode,
		BatchSize: simBatch, Epochs: simEpochs, Seed: seed,
	}
	ev0, cpu0 := eng.Events(), report.ProcessCPU()
	runID, t0 := rec.newID(), rec.now()
	begin := time.Now()
	res, err := train.Run(eng, cfg, fsFor)
	r.wall = time.Since(begin)
	r.cpu = report.ProcessCPU() - cpu0
	if err != nil {
		return r, err
	}
	if len(rank0.stamps) != len(rank0.bounds) {
		return r, fmt.Errorf("rank 0 finished %d of %d steps", len(rank0.stamps), len(rank0.bounds))
	}
	rec.add(span{id: runID, name: spanSimRun, start: t0, end: rec.now()})
	r.events = eng.Events() - ev0
	r.res = res
	prev := begin
	for _, t := range rank0.stamps {
		r.steps = append(r.steps, t.Sub(prev))
		rec.add(span{id: rec.newID(), parent: runID, name: spanSimStep,
			start: t0 + int64(prev.Sub(begin)), end: t0 + int64(t.Sub(begin))})
		prev = t
	}
	st := job.TotalStats()
	r.served, r.fetched, r.hits, r.misses = st.BytesServed, st.BytesFetched, st.Hits, st.Misses
	return r, nil
}

// simPhase repeats the simulated job until seconds have passed, at least
// two repeats ran, and the steps give the tail percentile minBeyond
// samples beyond it. Every repeat must match the first exactly in
// virtual time and event count.
func simPhase(w *workload, seed uint64, seconds float64, rec *recorder, chk *simCheck) ([]simRepeat, error) {
	var out []simRepeat
	start := time.Now()
	steps := 0
	for {
		r, err := simulate(seed, rec)
		if err != nil {
			return nil, err
		}
		chk.repeat(r)
		out = append(out, r)
		steps += len(r.steps)
		el := time.Since(start)
		if len(out) >= 2 && el.Seconds() >= seconds && beyond(steps, w.tailQ) >= minBeyond {
			return out, nil
		}
		if el > maxPhase {
			return nil, fmt.Errorf("%d steps in %v: too few for p%g with %d beyond", steps, el, 100*w.tailQ, minBeyond)
		}
	}
}

// sameAs reports whether r repeats f's deterministic outputs exactly:
// virtual time, event count, cache hits and misses, and I/O time.
func (r *simRepeat) sameAs(f *simRepeat) bool {
	return r.res.TrainTime == f.res.TrainTime && r.events == f.events &&
		r.hits == f.hits && r.misses == f.misses && r.res.IOTime == f.res.IOTime
}

// simCheck is sim_train's correctness oracle.
type simCheck struct {
	files             int
	first             *simRepeat
	attempted, failed int64
	firstErr          error
}

func (c *simCheck) repeat(r simRepeat) {
	want := int64(simEpochs * c.files)
	c.attempted += want
	bad := r.res.ReadErrors
	if n := want - r.res.FilesRead - r.res.ReadErrors; n > 0 {
		bad += n
	}
	var err error
	switch {
	case r.res.ReadErrors != 0:
		err = fmt.Errorf("%d read errors", r.res.ReadErrors)
	case r.res.FilesRead != want:
		err = fmt.Errorf("FilesRead %d, want epochs × files = %d", r.res.FilesRead, want)
	case c.first != nil && !r.sameAs(c.first):
		err = fmt.Errorf("repeat diverged: virtual %v, %d events, %d/%d hits/misses, I/O %v; first run %v, %d events, %d/%d, %v",
			r.res.TrainTime, r.events, r.hits, r.misses, r.res.IOTime,
			c.first.res.TrainTime, c.first.events, c.first.hits, c.first.misses, c.first.res.IOTime)
		bad = want
	}
	if err != nil {
		c.failed += bad
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	if c.first == nil {
		c.first = &r
	}
}

// runSim runs sim_train. A traced run splits its time between an
// untraced and a traced phase.
func runSim(w *workload, o options) (*result, error) {
	chk := &simCheck{files: dataset.ImageNet21K().Scale(simScale).TrainFiles}
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	reps, err := simPhase(w, o.seed, seconds, nil, chk)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	rate := func(rs []simRepeat) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.res.FilesRead)/r.wall.Seconds())
		}
		return median(xs)
	}
	m := res.metrics
	if o.trace {
		rec := newRecorder()
		traced, err := simPhase(w, o.seed, seconds, rec, chk)
		if err != nil {
			return nil, err
		}
		m["trace.overhead_frac"] = 1 - ratio(rate(traced), rate(reps))
		var evRate []float64
		for _, r := range traced {
			evRate = append(evRate, float64(r.events)/r.wall.Seconds())
		}
		r := traced[0]
		m["sim.events_per_sample"] = ratio(float64(r.events), float64(r.res.FilesRead))
		m["sim.events_per_s"] = median(evRate)
		m["sim.virtual_s"] = r.res.TrainTime.Seconds()
		m["summit.hvac_hit_ratio"] = ratio(float64(r.hits), float64(r.hits+r.misses))
		m["train.io_frac"] = ratio(float64(r.res.IOTime), float64(r.res.IOTime+r.res.ComputeTime))
		reps = traced
		if err := rec.write(o.spansPath(w)); err != nil {
			return nil, err
		}
	} else {
		var setups, ccpu, scpu, steps []float64
		for _, r := range reps {
			setups = append(setups, r.setup.Seconds())
			ccpu = append(ccpu, ratio(float64(r.cpu)/1e6, float64(r.res.BytesRead)/(1<<20)))
			scpu = append(scpu, ratio(float64(r.cpu)/1e6, float64(r.served)/(1<<20)))
			for _, s := range r.steps {
				steps = append(steps, float64(s)/1e6)
			}
		}
		r := reps[0]
		m["samples_per_s"] = rate(reps)
		m["step_p50_ms"] = quantile(steps, 0.5)
		m["step_tail_ms"] = quantile(steps, w.tailQ)
		m["client_cpu_ms_per_mib"] = median(ccpu)
		m["server_cpu_ms_per_mib"] = median(scpu)
		m["pfs_read_ratio"] = ratio(float64(r.fetched), float64(r.res.BytesRead))
		m["setup_s"] = median(setups)
		m["peak_rss_mib"] = float64(report.PeakRSSKiB()) / 1024
	}
	steps := 0
	for _, r := range reps {
		steps += len(r.steps)
	}
	res.attempted, res.failed, res.firstErr = chk.attempted, chk.failed, chk.firstErr
	res.note = fmt.Sprintf("%d simulated jobs, %d events and %.3f virtual s each, %d rank-0 steps; step_tail_ms is p%g",
		len(reps), reps[0].events, reps[0].res.TrainTime.Seconds(), steps, 100*w.tailQ)
	return res, nil
}
