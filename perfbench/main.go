// Command perfbench is the repository's benchmark: end-to-end and
// per-layer metrics of HVAC over three workloads, one per invocation.
//
//	bash perfbench/run.sh --workload evict_large --seed 1 --seconds 10 --trace 0
//
// The real workloads (evict_large, planned_batch) generate a
// seeded dataset under .bench_build, start two hvacsrv server processes
// on this machine and read every sample through loader → hvac.Client
// over TCP, checking each delivered byte. sim_train runs a simulated
// ResNet50 job on 128 simulated Summit nodes. With --trace 0 the last
// line of standard output is a JSON object with the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, and
// the spans are written to .bench_build/traces. NOTES.md lists every
// metric, workload and known gap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hvac/internal/dataset"
)

// workload is one benchmark input set.
type workload struct {
	name string
	// Dataset: files with log-normal sizes of the given mean and sigma.
	files    int
	meanSize int64
	sigma    float64
	// cacheFrac is the total cache capacity over both servers as a share
	// of the dataset.
	cacheFrac float64
	evict     string
	batch     int
	// planned installs each epoch's order as a plan and reads batches
	// through Client.ReadBatch.
	planned bool
	// tailQ is the percentile step_tail_ms reports: the highest of p99
	// and p90 with at least minBeyond steps beyond it in every run.
	tailQ float64
	sim   bool
}

var (
	imagenet = dataset.ImageNet21K()
	cosmo    = dataset.CosmoUniverse()
)

var workloads = []*workload{
	{name: "evict_large", files: 192, meanSize: cosmo.MeanFileSize, sigma: cosmo.SizeSigma,
		cacheFrac: 0.5, evict: "random", batch: 8, tailQ: 0.90},
	{name: "planned_batch", files: 4096, meanSize: imagenet.MeanFileSize, sigma: imagenet.SizeSigma,
		cacheFrac: 0.85, evict: "clairvoyant", batch: 32, planned: true, tailQ: 0.90},
	{name: "sim_train", sim: true, tailQ: 0.90},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0.
var endToEndMetrics = []metricDef{
	{"samples_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"step_tail_ms", "ms"},
	{"client_cpu_ms_per_mib", "ms/MiB"},
	{"server_cpu_ms_per_mib", "ms/MiB"},
	{"pfs_read_ratio", "ratio"},
	{"verified_frac", "frac"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// layerMetricDefs are reported with --trace 1. A metric of a layer the
// workload leaves idle reads 0.
var layerMetricDefs = []metricDef{
	{"loader.self_ms_per_step", "ms"},
	{"core.client.readall_p50_ms", "ms"},
	{"core.client.readall_p99_ms", "ms"},
	{"core.client.readbatch_p50_ms", "ms"},
	{"core.client.installplan_ms_per_epoch", "ms"},
	{"core.client.self_us_per_sample", "us"},
	{"core.client.fallbacks", "count"},
	{"core.client.degrades", "count"},
	{"core.client.batch_fallbacks", "count"},
	{"transport.rpcs_per_sample", "count"},
	{"transport.open_rtt_p50_us", "us"},
	{"transport.read_rtt_p50_us", "us"},
	{"transport.close_rtt_p50_us", "us"},
	{"transport.batch_rtt_p50_us", "us"},
	{"transport.plan_rtt_p50_us", "us"},
	{"transport.read_rtt_p99_us", "us"},
	{"transport.busy_ms_per_sample", "ms"},
	{"transport.errors", "count"},
	{"transport.retries", "count"},
	{"core.server.open_mean_us", "us"},
	{"core.server.read_mean_us", "us"},
	{"core.server.hit_ratio", "frac"},
	{"core.server.zerocopy_send_frac", "frac"},
	{"core.server.zerocopy_mib", "MiB"},
	{"core.server.batch_entries_per_rpc", "count"},
	{"core.mover.fills_per_sample", "count"},
	{"core.mover.demand_fills_per_sample", "count"},
	{"core.mover.copy_mean_ms", "ms"},
	{"core.mover.queue_depth_max", "count"},
	{"core.mover.demand_rejects", "count"},
	{"core.mover.prefetch_drops", "count"},
	{"core.planner.prefetches_per_sample", "count"},
	{"core.planner.demand_fill_frac", "frac"},
	{"cachestore.evictions_per_sample", "count"},
	{"cachestore.resident_frac", "frac"},
	{"place.max_server_share", "ratio"},
	{"pfs.opens_per_sample", "count"},
	{"pfs.mib_per_sample", "MiB"},
	{"pfs.open_p50_us", "us"},
	{"sim.events_per_sample", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.virtual_s", "s"},
	{"summit.hvac_hit_ratio", "frac"},
	{"train.io_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// options are the command-line settings of one run.
type options struct {
	root    string // checkout root, the working directory; all files live under root/.bench_build
	self    string // this executable, beside which hvacsrv is built
	seed    uint64
	seconds float64
	trace   bool
}

// spansPath is where a traced run of w writes its spans.
func (o options) spansPath(w *workload) string {
	return filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.spans", w.name, o.seed))
}

// result is one run's outcome before formatting.
type result struct {
	metrics           map[string]float64
	attempted, failed int64
	firstErr          error
	note              string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: evict_large|planned_batch|sim_train")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "timed phase length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o := options{root: root, self: self, seed: *seed, seconds: *seconds, trace: *trace == 1}
	var res *result
	if w.sim {
		res, err = runSim(w, o)
	} else {
		res, err = runReal(w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := emit(res, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints a human-readable summary and then the result line.
func emit(res *result, traced bool) error {
	defs := endToEndMetrics
	if traced {
		defs = layerMetricDefs
	} else {
		res.metrics["verified_frac"] = 1 - ratio(float64(res.failed), float64(res.attempted))
	}
	out := output{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	if res.note != "" {
		fmt.Println(res.note)
	}
	fmt.Printf("attempted %d, failed %d\n", res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Printf("first failure: %v\n", res.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
