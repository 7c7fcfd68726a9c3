// Package report is the line protocol between the benchmark and its
// server command: one JSON object per line, written by the server on
// start-up and in answer to each command read from its standard input.
package report

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"

	"hvac"
)

// Commands the server reads, one per line.
const (
	CmdStats = "stats" // report now
	CmdIdle  = "idle"  // wait until no fill is in flight, then report
	CmdQuit  = "quit"  // close the server, report, exit
)

// Ready is the server's first line: where it listens.
type Ready struct {
	Addr string `json:"addr"`
}

// Server is one snapshot of a server process. Counters and sums are
// cumulative since start-up; the benchmark takes deltas between phase
// boundaries.
type Server struct {
	Stats hvac.ServerStats `json:"stats"`
	// Latency histograms as count and sum: a phase's mean is
	// Δsum / Δcount.
	OpenCount   int64 `json:"open_count"`
	OpenSumNS   int64 `json:"open_sum_ns"`
	ReadCount   int64 `json:"read_count"`
	ReadSumNS   int64 `json:"read_sum_ns"`
	CopyCount   int64 `json:"copy_count"`
	CopySumNS   int64 `json:"copy_sum_ns"`
	CachedBytes int64 `json:"cached_bytes"`
	Capacity    int64 `json:"capacity"`
	// CPUNS is the process's user+sys CPU time; HWMKiB its peak RSS
	// (VmHWM).
	CPUNS  int64 `json:"cpu_ns"`
	HWMKiB int64 `json:"hwm_kib"`
	// PFS traffic through ServerConfig.OpenPFS. PFSBytes adds the size
	// of every file opened there: each open feeds one whole-file fill or
	// read-through.
	PFSOpens int64 `json:"pfs_opens"`
	PFSBytes int64 `json:"pfs_bytes"`
	// PFSOpenP50NS is the median PFS open latency since the previous
	// report (0 when there was none).
	PFSOpenP50NS int64 `json:"pfs_open_p50_ns"`
	// QueueDepthMax is the highest sampled mover queue depth since the
	// previous report; 0 unless the server samples (-sample-queue).
	QueueDepthMax int64 `json:"queue_depth_max"`
}

// ProcessCPU is the calling process's user+sys CPU time.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSKiB is the calling process's peak resident set size (VmHWM),
// 0 where /proc is unavailable.
func PeakRSSKiB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseInt(string(f[0]), 10, 64)
				return v
			}
		}
	}
	return 0
}
