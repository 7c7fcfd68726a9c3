package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// beyond reports how many of n sorted samples lie above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest of p99 and p90 that has at least
// minBeyond samples beyond it among n, and false when neither has.
func tailQuantile(n int) (float64, bool) {
	for _, q := range []float64{0.99, 0.90} {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (mean of the middle two for an
// even count), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it covered by the
// union of its children's intervals (children may overlap each other
// and stick out of the parent).
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, curStart, curEnd int64
	open := false
	for _, c := range cs {
		if open && c.start <= curEnd {
			curEnd = max(curEnd, c.end)
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = c.start, c.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return time.Duration(parent.end - parent.start - covered)
}
