package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of the
// sorted values: the smallest value with at least p of the sample at or
// below it. It returns 0 for an empty sample.
func percentile[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle of the values (the mean of the middle two for
// an even count); 0 when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(values))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so a spread
// computed here equals the one the benchmark's driver computes. It needs
// at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	cut := func(i int) float64 {
		// Clamping j before taking delta extrapolates past the ends
		// for a small sample, as Python does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is one slot of a run: a second or half of closed or open loop,
// with the machine's and the daemon's CPU accounting taken at its edges.
type window struct {
	Kind string `json:"kind"` // "closed", "traced" or "open"
	// StolenShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window (/proc/stat steal). No figure
	// depends on it; it tells a reader why a window reads worse.
	StolenShare float64 `json:"stolen_share"`
	InstPerS    float64 `json:"inst_per_s"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	// CPUUsPerInst is the daemon's CPU time over the window by verified
	// instance.
	CPUUsPerInst float64 `json:"cpu_us_per_inst"`
	// Requests is how many fully verified requests the latency figures
	// rest on.
	Requests int `json:"requests"`
}

// measure fills a window's load figures from its samples. elapsed is the
// window's own wall time, the tail of its last requests included. A
// request with any failed instance contributes its verified instances
// and no latency.
func (w *window) measure(samples []sample, elapsed time.Duration) {
	inst := 0
	for _, s := range samples {
		inst += s.ok
	}
	lats := latencies(samples)
	w.InstPerS = float64(inst) / elapsed.Seconds()
	w.P50Ms = ms(percentile(lats, 0.50))
	w.P90Ms = ms(percentile(lats, 0.90))
	w.Requests = len(lats)
}

// overWindows reports one figure of a run from its windows of one kind:
// the best decile, the nearest-rank 10th percentile of a figure where
// lower is better and the 90th where higher is. A neighbour on a shared
// machine takes the CPU in bursts of seconds, and a burst only ever makes
// a window worse, a p90 many times worse; the median window of a run that
// was disturbed half the time says what the neighbour did. The best
// decile needs a tenth of the windows undisturbed, and is not the single
// best window, which on some runs is a fast outlier.
func overWindows(ws []window, kind string, higherIsBetter bool, f func(window) float64) float64 {
	vals := windowValues(ws, kind, f)
	slices.Sort(vals)
	if higherIsBetter {
		return percentile(vals, 0.9)
	}
	return percentile(vals, 0.1)
}

// windowValues is one figure of every window of a kind, in run order.
func windowValues(ws []window, kind string, f func(window) float64) []float64 {
	var vals []float64
	for _, w := range ws {
		if w.Kind == kind {
			vals = append(vals, f(w))
		}
	}
	return vals
}

// latencies returns the sorted latencies of the fully verified requests.
func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.ok == s.n {
			out = append(out, s.latency())
		}
	}
	slices.Sort(out)
	return out
}
