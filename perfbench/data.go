package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"hvac/internal/sim"
)

// castagnoli is hardware-accelerated on amd64 and arm64, so checking
// every delivered byte costs little next to the read it checks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sampleFile is one generated dataset file and its expected content hash.
type sampleFile struct {
	path string
	size int64
	sum  uint32
}

// sampleSet is a generated PFS directory: every file's bytes come from a
// stream seeded by (seed, file index), so a swapped file or a read at the
// wrong offset changes the hash.
type sampleSet struct {
	dir   string
	files []sampleFile
	index map[string]int
	bytes int64
}

// sizes draws n file sizes from a log-normal with the given mean and
// sigma (the dataset package's size model), seeded by seed.
func sizes(seed uint64, n int, mean int64, sigma float64) []int64 {
	rng := sim.NewRNG(seed ^ 0x5eed5122e5)
	mu := math.Log(float64(mean)) - sigma*sigma/2
	out := make([]int64, n)
	for i := range out {
		sz := int64(rng.LogNormal(mu, sigma))
		if sz < 1024 {
			sz = 1024
		}
		out[i] = sz
	}
	return out
}

// fillContent writes file idx's bytes starting at byte offset off (a
// multiple of 8) into buf.
func fillContent(buf []byte, seed uint64, idx int, off int64) {
	state := seed*0x9e3779b97f4a7c15 ^ uint64(idx)*0xbf58476d1ce4e5b9
	var w [8]byte
	for i := 0; i < len(buf); i += 8 {
		x := splitmix(state + uint64(off)/8 + uint64(i)/8)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generate writes n files under dir and returns their manifest.
func generate(dir string, seed uint64, n int, mean int64, sigma float64) (*sampleSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := &sampleSet{dir: dir, index: make(map[string]int, n)}
	buf := make([]byte, 1<<20)
	for i, size := range sizes(seed, n, mean, sigma) {
		path := filepath.Join(dir, fmt.Sprintf("s%05d.rec", i))
		sum, err := writeSample(path, buf, seed, i, size)
		if err != nil {
			return nil, err
		}
		ds.index[path] = i
		ds.files = append(ds.files, sampleFile{path: path, size: size, sum: sum})
		ds.bytes += size
	}
	return ds, nil
}

func writeSample(path string, buf []byte, seed uint64, idx int, size int64) (uint32, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var sum uint32
	for off := int64(0); off < size; off += int64(len(buf)) {
		chunk := buf
		if rest := size - off; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		fillContent(chunk, seed, idx, off)
		sum = crc32.Update(sum, castagnoli, chunk)
		if _, err := f.Write(chunk); err != nil {
			_ = f.Close() // the write error is the one to report
			return 0, err
		}
	}
	return sum, f.Close()
}

// paths lists the dataset's files in index order.
func (ds *sampleSet) paths() []string {
	out := make([]string, len(ds.files))
	for i, f := range ds.files {
		out[i] = f.path
	}
	return out
}

// checker is the correctness oracle: it verifies every delivered sample
// against the manifest and that each epoch delivers each sample exactly
// once.
type checker struct {
	ds        *sampleSet
	seen      []int // the pass that last delivered each file
	pass      int   // epochs started so far; set-up epochs repeat epoch numbers
	epoch     int
	delivered int // this epoch
	bytes     int64

	attempted, failed int64
	firstErr          error
}

func newChecker(ds *sampleSet) *checker {
	return &checker{ds: ds, seen: make([]int, len(ds.files))}
}

func (c *checker) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// startEpoch resets the per-epoch tally.
func (c *checker) startEpoch(e int) {
	c.pass++
	c.epoch, c.delivered, c.bytes = e, 0, 0
}

// sample checks one delivered sample.
func (c *checker) sample(path string, data []byte) {
	c.attempted++
	i, ok := c.ds.index[path]
	if !ok {
		c.fail(fmt.Errorf("delivered unknown path %s", path))
		return
	}
	if c.seen[i] == c.pass {
		c.fail(fmt.Errorf("%s delivered twice in epoch %d", path, c.epoch))
		return
	}
	c.seen[i] = c.pass
	switch want := c.ds.files[i]; {
	case int64(len(data)) != want.size:
		c.fail(fmt.Errorf("%s: %d bytes, want %d", path, len(data), want.size))
	case crc32.Checksum(data, castagnoli) != want.sum:
		c.fail(fmt.Errorf("%s: content hash mismatch", path))
	default:
		c.delivered++
		c.bytes += int64(len(data))
	}
}

// endEpoch counts every sample the epoch did not deliver as failed.
func (c *checker) endEpoch() {
	for i, e := range c.seen {
		if e != c.pass {
			c.attempted++
			c.fail(fmt.Errorf("%s not delivered in epoch %d", c.ds.files[i].path, c.epoch))
		}
	}
}
