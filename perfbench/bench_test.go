package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hvac"
	"hvac/loader"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5000, 0.99, true},
		{1000, 0.99, true}, // exactly 10 beyond p99
		{999, 0.90, true},  // 9 beyond p99, 99 beyond p90
		{100, 0.90, true},  // exactly 10 beyond p90
		{99, 0, false},     // 9 beyond p90
		{0, 0, false},
	} {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has %d beyond", c.n, 100*got, beyond(c.n, got))
		}
	}
	// The nearest-rank p90 of 1..100 is 90: ten samples lie above it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// [10,30] and [20,40] overlap: their union covers 30, not 40.
		// [90,120] sticks out of the parent: only 10 of it counts.
		{"overlapping", []interval{{20, 40}, {10, 30}, {50, 60}, {90, 120}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"covering", []interval{{-5, 50}, {40, 105}}, 0},
		{"outside", []interval{{100, 110}, {-10, 0}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// epochThrough runs one loader epoch over src and checks every batch.
func epochThrough(t *testing.T, ds *sampleSet, chk *checker, src loader.Source) {
	t.Helper()
	ldr, err := loader.New(src, loader.Config{Paths: ds.paths(), BatchSize: 4, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	chk.startEpoch(0)
	err = ldr.Epoch(0, func(b loader.Batch) error {
		for i, p := range b.Paths {
			chk.sample(p, b.Data[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	chk.endEpoch()
}

func TestOracleDetectsCorruption(t *testing.T) {
	ds, err := generate(t.TempDir(), 11, 24, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	victim := ds.files[5].path

	chk := newChecker(ds)
	epochThrough(t, ds, chk, os.ReadFile)
	if chk.failed != 0 || chk.attempted != 24 {
		t.Fatalf("clean epoch: %d failed of %d (%v)", chk.failed, chk.attempted, chk.firstErr)
	}

	for name, src := range map[string]loader.Source{
		"flipped byte": func(p string) ([]byte, error) {
			b, err := os.ReadFile(p)
			if p == victim {
				b[len(b)/2] ^= 0x01
			}
			return b, err
		},
		"swapped file": func(p string) ([]byte, error) {
			if p == victim {
				p = ds.files[6].path
			}
			return os.ReadFile(p)
		},
		"shifted offset": func(p string) ([]byte, error) {
			b, err := os.ReadFile(p)
			if p == victim {
				b = append(b[8:], make([]byte, 8)...)
			}
			return b, err
		},
	} {
		chk := newChecker(ds)
		epochThrough(t, ds, chk, src)
		if chk.failed != 1 || chk.attempted != 24 {
			t.Errorf("%s: %d failed of %d, want 1 of 24 (%v)", name, chk.failed, chk.attempted, chk.firstErr)
		}
	}

	// Exactly once: a duplicate and a missing sample both count.
	chk = newChecker(ds)
	chk.startEpoch(1)
	for i, f := range ds.files {
		if i == 5 {
			continue
		}
		b, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		chk.sample(f.path, b)
		if i == 6 {
			chk.sample(f.path, b)
		}
	}
	chk.endEpoch()
	if chk.failed != 2 || chk.attempted != 25 {
		t.Errorf("duplicate and missing: %d failed of %d, want 2 of 25", chk.failed, chk.attempted)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	gen := func(seed uint64) (*sampleSet, [][]byte) {
		ds, err := generate(t.TempDir(), seed, 16, 8192, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var content [][]byte
		for _, f := range ds.files {
			b, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			content = append(content, b)
		}
		return ds, content
	}
	order := func(ds *sampleSet, seed uint64) []string {
		ldr, err := loader.New(os.ReadFile, loader.Config{Paths: ds.paths(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, p := range ldr.EpochOrder(1) {
			names = append(names, filepath.Base(p))
		}
		return names
	}
	a, ca := gen(7)
	b, cb := gen(7)
	c, cc := gen(8)
	for i := range ca {
		if !bytes.Equal(ca[i], cb[i]) || a.files[i].sum != b.files[i].sum {
			t.Fatalf("seed 7 twice: file %d differs", i)
		}
	}
	same := 0
	for i := range ca {
		if bytes.Equal(ca[i], cc[i]) {
			same++
		}
	}
	if same != 0 {
		t.Errorf("seeds 7 and 8 generated %d identical files", same)
	}
	if !slices.Equal(order(a, 7), order(b, 7)) {
		t.Error("seed 7 twice: shuffles differ")
	}
	if slices.Equal(order(a, 7), order(c, 8)) {
		t.Error("seeds 7 and 8: identical shuffles")
	}
}

func TestRank0Bounds(t *testing.T) {
	// 10 files, 4 ranks, batch 2: rank 0 reads k = 0, 4 | 8 per epoch.
	if got, want := rank0Bounds(10, 4, 2, 2), []int{2, 3, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("rank0Bounds = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the reported metrics in
// step: the same workloads, metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, layerMetricDefs}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestTransportSpansLinkToClientSpans reads through a traced pool
// against an in-process server: every RPC span must name the client
// call that caused it as its parent.
func TestTransportSpansLinkToClientSpans(t *testing.T) {
	dir := t.TempDir()
	ds, err := generate(filepath.Join(dir, "pfs"), 5, 8, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr: "127.0.0.1:0", PFSDir: ds.dir, CacheDir: filepath.Join(dir, "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := newRecorder()
	pool, err := newPool([]string{srv.Addr()}, ds.dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.close()
	chk := newChecker(ds)
	chk.startEpoch(0)
	for _, f := range ds.files {
		var data []byte
		pool.call(spanReadAll, 0, func(c *hvac.Client) { data, err = c.ReadAll(f.path) })
		if err != nil {
			t.Fatal(err)
		}
		chk.sample(f.path, data)
	}
	chk.endEpoch()
	if chk.failed != 0 {
		t.Fatalf("%d samples failed: %v", chk.failed, chk.firstErr)
	}
	clientSpans := map[uint64]bool{}
	var rpcs []span
	for _, s := range rec.snapshot() {
		switch {
		case s.name == spanReadAll:
			clientSpans[s.id] = true
		default:
			rpcs = append(rpcs, s)
		}
	}
	if len(clientSpans) != len(ds.files) || len(rpcs) != 3*len(ds.files) {
		t.Fatalf("%d client spans and %d RPC spans, want %d and %d", len(clientSpans), len(rpcs), len(ds.files), 3*len(ds.files))
	}
	for _, s := range rpcs {
		if !clientSpans[s.parent] {
			t.Errorf("RPC span %d (%s) has parent %d, not a client span", s.id, s.name, s.parent)
		}
	}
}
