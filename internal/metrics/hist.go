package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file is the one latency histogram of the module: the registry's
// histogram families (exported on /v1/metrics) and the SLO plane's
// per-shard verb, lag and window accounting all record into a Hist.

// Histogram geometry: bucket 0 holds [0, 256ns); bucket i holds
// [256ns<<(i-1), 256ns<<i); the last bucket holds everything from
// 256ns<<26 (about 17.18s) up. Power-of-two bounds make the index one
// bits.Len64.
const (
	histBuckets = 28
	histBase    = 256 // ns; upper bound of bucket 0
)

func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if ns < histBase {
		return 0
	}
	i := bits.Len64(ns) - 8 // histBase == 1<<8
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper returns the inclusive-side upper bound of bucket i, the
// value quantile estimates report (conservative: never under-reports).
func bucketUpper(i int) time.Duration { return time.Duration(histBase << i) }

// bucketLower returns the lower bound of bucket i.
func bucketLower(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return time.Duration(histBase << (i - 1))
}

// Hist is a lock-free fixed-bucket latency histogram. Record is one
// atomic add per field; concurrent Records never block each other. The
// zero value is ready, and a nil *Hist (a nil registry's) records nothing.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // ns
}

// Record adds one sample. Nil-safe.
func (h *Hist) Record(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Reset zeroes the histogram (the SLO plane's window rotation).
// Concurrent Records may lose or double a straggling sample across the
// reset boundary; windows are statistics, not ledgers.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Snapshot copies the histogram's counters at one (racy but per-field
// atomic) instant. Nil-safe: a nil histogram is empty.
func (h *Hist) Snapshot() HistSnap {
	var s HistSnap
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	return s
}

// HistSnap is an immutable histogram snapshot; Merge folds shards
// together, which is exact for bucketed counts (the striped-vs-serial
// oracle property).
type HistSnap struct {
	Counts [histBuckets]uint64
	Count  uint64
	SumNS  int64
}

// Merge adds another snapshot's counts into s.
func (s *HistSnap) Merge(o HistSnap) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q*Count; zero when
// empty.
func (s HistSnap) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// CountOver counts samples in buckets entirely above d — the burn-rate
// numerator, at bucket resolution (the bucket straddling d is not
// counted, so the estimate is conservative).
func (s HistSnap) CountOver(d time.Duration) uint64 {
	var n uint64
	for i := range s.Counts {
		if bucketLower(i) >= d && s.Counts[i] > 0 {
			n += s.Counts[i]
		}
	}
	return n
}

// Mean returns the average sample, zero when empty.
func (s HistSnap) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}
