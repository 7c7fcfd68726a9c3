package main

import (
	"fmt"

	"hvac"
	"hvac/perfbench/report"
)

// serverIdentities checks a quiescent server's declared stat identities.
// Segment caching is off in every workload, so no segment Reads enter
// the served side.
func serverIdentities(i int, st hvac.ServerStats) error {
	if st.Hits+st.ReadThroughs != st.Opens+st.BatchEntries {
		return fmt.Errorf("server %d: Hits %d + ReadThroughs %d != Opens %d + BatchEntries %d",
			i, st.Hits, st.ReadThroughs, st.Opens, st.BatchEntries)
	}
	if st.ZeroCopySends+st.ZeroCopyFallbacks != st.ZeroCopyEligible {
		return fmt.Errorf("server %d: ZeroCopySends %d + ZeroCopyFallbacks %d != ZeroCopyEligible %d",
			i, st.ZeroCopySends, st.ZeroCopyFallbacks, st.ZeroCopyEligible)
	}
	return nil
}

// openIdentity checks the clients' open outcomes against the opens the
// benchmark issued: every ReadAll opens once, and ReadBatch opens only
// for entries it degrades (at most BatchFallbacks of them).
func (p *clientPool) openIdentity() error {
	st, opens := p.stats()
	got := st.Redirected + st.Passthrough + st.Fallbacks
	if got < opens || got > opens+st.BatchFallbacks {
		return fmt.Errorf("clients: Redirected %d + Passthrough %d + Fallbacks %d != %d opens issued (+ up to %d batch fallbacks)",
			st.Redirected, st.Passthrough, st.Fallbacks, opens, st.BatchFallbacks)
	}
	return nil
}

// layerInput is what a traced run leaves to derive per-layer metrics
// from: its traced epochs, the untraced epochs interleaved with them, the
// spans, the traced clients' counters, and the idle servers' final
// reports.
type layerInput struct {
	epochs, untraced []epochResult
	spans            []span
	client           hvac.ClientStats
	linkErrors       int64
	end              []report.Server
}

// serverDelta sums a server counter's growth over the servers and the
// given epochs.
func serverDelta(epochs []epochResult, f func(report.Server) int64) float64 {
	var n int64
	for _, e := range epochs {
		for i := range e.after {
			n += f(e.after[i]) - f(e.before[i])
		}
	}
	return float64(n)
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(m map[string]float64, in layerInput) {
	samples, steps := 0, 0
	var tracedRates, untracedRates []float64
	for _, e := range in.epochs {
		samples += e.samples
		steps += len(e.steps)
		tracedRates = append(tracedRates, float64(e.samples)/e.wait.Seconds())
	}
	for _, e := range in.untraced {
		untracedRates = append(untracedRates, float64(e.samples)/e.wait.Seconds())
	}
	ns := float64(samples)
	m["trace.overhead_frac"] = 1 - ratio(median(tracedRates), median(untracedRates))

	children := map[uint64][]interval{}
	byName := map[string][]span{}
	for _, s := range in.spans {
		children[s.parent] = append(children[s.parent], s.interval())
		byName[s.name] = append(byName[s.name], s)
	}
	durs := func(name string, unit float64) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.dur())/unit)
		}
		return out
	}
	selfSum := func(names ...string) float64 {
		var t float64
		for _, name := range names {
			for _, s := range byName[name] {
				t += float64(selfTime(s.interval(), children[s.id]))
			}
		}
		return t
	}

	// loader
	m["loader.self_ms_per_step"] = ratio(selfSum(spanStep)/1e6, float64(steps))

	// core.client
	m["core.client.readall_p50_ms"] = quantile(durs(spanReadAll, 1e6), 0.5)
	m["core.client.readall_p99_ms"] = quantile(durs(spanReadAll, 1e6), 0.99)
	m["core.client.readbatch_p50_ms"] = quantile(durs(spanReadBatch, 1e6), 0.5)
	var plan float64
	for _, d := range durs(spanInstallPlan, 1e6) {
		plan += d
	}
	m["core.client.installplan_ms_per_epoch"] = ratio(plan, float64(len(in.epochs)))
	m["core.client.self_us_per_sample"] = ratio(selfSum(spanReadAll, spanReadBatch)/1e3, ns)
	m["core.client.fallbacks"] = float64(in.client.Fallbacks)
	m["core.client.degrades"] = float64(in.client.Degrades)
	m["core.client.batch_fallbacks"] = float64(in.client.BatchFallbacks)

	// transport
	var rpcs int
	var busy float64
	for name, ss := range byName {
		if _, ok := transportSpans[name]; ok {
			rpcs += len(ss)
			for _, s := range ss {
				busy += float64(s.dur())
			}
		}
	}
	m["transport.rpcs_per_sample"] = ratio(float64(rpcs), ns)
	for _, op := range []string{"open", "read", "close", "batch", "plan"} {
		m["transport."+op+"_rtt_p50_us"] = quantile(durs("transport."+op, 1e3), 0.5)
	}
	m["transport.read_rtt_p99_us"] = quantile(durs("transport.read", 1e3), 0.99)
	m["transport.busy_ms_per_sample"] = ratio(busy/1e6, ns)
	m["transport.errors"] = float64(in.linkErrors)
	m["transport.retries"] = float64(in.client.Retries)

	// core.server
	d := func(f func(report.Server) int64) float64 { return serverDelta(in.epochs, f) }
	hits := d(func(r report.Server) int64 { return r.Stats.Hits })
	rts := d(func(r report.Server) int64 { return r.Stats.ReadThroughs })
	reads := d(func(r report.Server) int64 { return r.Stats.Reads })
	m["core.server.open_mean_us"] = ratio(d(func(r report.Server) int64 { return r.OpenSumNS })/1e3, d(func(r report.Server) int64 { return r.OpenCount }))
	m["core.server.read_mean_us"] = ratio(d(func(r report.Server) int64 { return r.ReadSumNS })/1e3, d(func(r report.Server) int64 { return r.ReadCount }))
	m["core.server.hit_ratio"] = ratio(hits, hits+rts)
	m["core.server.zerocopy_send_frac"] = ratio(d(func(r report.Server) int64 { return r.Stats.ZeroCopySends }), reads)
	m["core.server.zerocopy_mib"] = d(func(r report.Server) int64 { return r.Stats.ZeroCopyBytes }) / (1 << 20)
	m["core.server.batch_entries_per_rpc"] = ratio(d(func(r report.Server) int64 { return r.Stats.BatchEntries }), float64(len(byName["transport.batch"])))

	// core.mover and core.planner
	fills := d(func(r report.Server) int64 { return r.Stats.Misses })
	planned := d(func(r report.Server) int64 { return r.Stats.PlanPrefetches })
	demand := max(fills-planned, 0)
	m["core.mover.fills_per_sample"] = ratio(fills, ns)
	m["core.mover.demand_fills_per_sample"] = ratio(demand, ns)
	m["core.mover.copy_mean_ms"] = ratio(d(func(r report.Server) int64 { return r.CopySumNS })/1e6, d(func(r report.Server) int64 { return r.CopyCount }))
	var qmax int64
	for _, e := range in.epochs {
		for _, r := range e.after {
			qmax = max(qmax, r.QueueDepthMax)
		}
	}
	m["core.mover.queue_depth_max"] = float64(qmax)
	m["core.mover.demand_rejects"] = d(func(r report.Server) int64 { return r.Stats.DemandRejects })
	m["core.mover.prefetch_drops"] = d(func(r report.Server) int64 { return r.Stats.PrefetchDrops })
	m["core.planner.prefetches_per_sample"] = ratio(planned, ns)
	m["core.planner.demand_fill_frac"] = ratio(demand, fills)

	// cachestore
	var cached, capacity int64
	for _, r := range in.end {
		cached += r.CachedBytes
		capacity += r.Capacity
	}
	m["cachestore.evictions_per_sample"] = ratio(d(func(r report.Server) int64 { return r.Stats.Evictions }), ns)
	m["cachestore.resident_frac"] = ratio(float64(cached), float64(capacity))

	// place: the busiest server's serves over the mean.
	var top, all float64
	for i := range in.end {
		var serves int64
		for _, e := range in.epochs {
			a, b := e.after[i].Stats, e.before[i].Stats
			serves += a.Opens + a.BatchEntries - b.Opens - b.BatchEntries
		}
		top = max(top, float64(serves))
		all += float64(serves)
	}
	m["place.max_server_share"] = ratio(top, all/float64(len(in.end)))

	// pfs
	m["pfs.opens_per_sample"] = ratio(d(func(r report.Server) int64 { return r.PFSOpens }), ns)
	m["pfs.mib_per_sample"] = ratio(d(func(r report.Server) int64 { return r.PFSBytes })/(1<<20), ns)
	var p50s []float64
	for _, e := range in.epochs {
		for _, r := range e.after {
			if r.PFSOpenP50NS > 0 {
				p50s = append(p50s, float64(r.PFSOpenP50NS)/1e3)
			}
		}
	}
	m["pfs.open_p50_us"] = median(p50s)
}

// transportSpans are the span names the traced links record.
var transportSpans = func() map[string]struct{} {
	out := map[string]struct{}{}
	for _, name := range opSpan {
		out[name] = struct{}{}
	}
	return out
}()
