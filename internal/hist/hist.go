// Package hist is the one latency histogram of the serving stack:
// log-linear buckets in the HdrHistogram scheme (Tene, hdrhistogram.org),
// every power of two split into 16 linear sub-buckets, beside the exact
// count, sum and max. A reported quantile is the top of the bucket that
// holds the nearest-rank sample, clamped to the max: never below the exact
// value, at most 1/16 above it, and never above Max.
//
// Hist records concurrently with atomic adds and allocates nothing.
// Snapshot is its plain copy. Snapshots merge by addition (stats shards,
// tenants, fleets) and subtract into interval views, so the samples
// recorded between two readings are the difference of the two: a recent
// window needs no rotation period.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	subBits = 4
	// buckets covers every non-negative int64: values below 2·16 get a
	// bucket each, and each higher power of two gets 16.
	buckets = (64 - subBits) << subBits
)

// bucketOf returns the bucket index of v.
func bucketOf(v uint64) int {
	shift := max(bits.Len64(v)-1-subBits, 0)
	return shift<<subBits + int(v>>shift)
}

// top returns the largest value that falls in bucket i.
func top(i int) int64 {
	shift := max(i>>subBits-1, 0)
	lo := uint64(i-shift<<subBits) << shift
	return int64(lo + 1<<shift - 1)
}

// Hist is a concurrent latency histogram. The zero value is empty.
type Hist struct {
	counts [buckets]atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
	// n is bumped after the bucket and the max, so a reader that loads n
	// first finds every sample it counts in the buckets.
	n atomic.Uint64
}

// Observe records one latency; negative values record as 0.
func (h *Hist) Observe(d time.Duration) {
	v := max(int64(d), 0)
	h.counts[bucketOf(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); m = h.max.Load() {
	}
	h.n.Add(1)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n.Load() }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the recorded samples,
// read in place without a snapshot; 0 when there are none.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.n.Load()
	return quantile(q, n, h.max.Load(), func(i int) uint64 { return h.counts[i].Load() })
}

// AddTo merges the recorded samples into s.
func (h *Hist) AddTo(s *Snapshot) {
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] += c
		s.n += c
	}
	s.sum += h.sum.Load()
	s.max = max(s.max, h.max.Load())
}

// Snapshot is a plain copy of a Hist, or the merge or difference of such
// copies. The zero value is empty.
type Snapshot struct {
	counts [buckets]uint64
	n, sum uint64
	max    int64
}

// Add merges o into s: s then holds the samples of both.
func (s *Snapshot) Add(o *Snapshot) {
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.n += o.n
	s.sum += o.sum
	s.max = max(s.max, o.max)
}

// Sub removes the samples of an earlier reading of the same histograms
// from s, leaving those recorded between the two. The interval's own max
// was never recorded: it becomes the top of the highest bucket left,
// clamped to s's max. Counts clamp at zero, so a reset between the two
// readings cannot wrap them around.
func (s *Snapshot) Sub(earlier *Snapshot) {
	s.n, s.sum = 0, s.sum-min(s.sum, earlier.sum)
	highest := -1
	for i, c := range s.counts {
		c -= min(c, earlier.counts[i])
		s.counts[i] = c
		if c > 0 {
			s.n += c
			highest = i
		}
	}
	if highest < 0 {
		s.max = 0
		return
	}
	s.max = min(s.max, top(highest))
}

// Count returns the number of samples.
func (s *Snapshot) Count() uint64 { return s.n }

// Quantile returns the q-quantile (0 ≤ q ≤ 1); 0 when there are no samples.
func (s *Snapshot) Quantile(q float64) time.Duration {
	return quantile(q, s.n, s.max, func(i int) uint64 { return s.counts[i] })
}

// Summary returns the p50, p95, p99, max and mean; all 0 when there are
// no samples.
func (s *Snapshot) Summary() (p50, p95, p99, max, mean time.Duration) {
	if s.n == 0 {
		return 0, 0, 0, 0, 0
	}
	return s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99),
		time.Duration(s.max), time.Duration(s.sum / s.n)
}

// quantile returns the top of the bucket holding the sample of 0-based
// rank ⌊q·(n−1)⌋, clamped to maxv.
func quantile(q float64, n uint64, maxv int64, count func(int) uint64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i := range buckets {
		if cum += count(i); cum > rank {
			return time.Duration(min(top(i), maxv))
		}
	}
	return time.Duration(maxv)
}
