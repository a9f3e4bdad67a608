package hist

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// samples draws the property test's distributions, in nanoseconds.
func samples(rng *rand.Rand) map[string][]int64 {
	draw := func(n int, f func() float64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(f())
		}
		return out
	}
	return map[string][]int64{
		"uniform":   draw(5000, func() float64 { return rng.Float64() * 10e6 }),
		"lognormal": draw(5000, func() float64 { return math.Exp(rng.NormFloat64()*1.5 + math.Log(1e6)) }),
		"bimodal": draw(5000, func() float64 {
			if rng.Intn(20) == 0 {
				return 100e6 * (1 + rng.Float64()*0.2)
			}
			return 1e6 * (1 + rng.Float64()*0.2)
		}),
		"repeated": draw(1000, func() float64 { return 123457 }),
		"single":   {4242},
		"tiny":     draw(200, func() float64 { return float64(rng.Intn(40)) }),
	}
}

func snapshotOf(vs []int64) Snapshot {
	var h Hist
	for _, v := range vs {
		h.Observe(time.Duration(v))
	}
	var s Snapshot
	h.AddTo(&s)
	return s
}

// TestQuantileProperties: against the exact sorted samples, every reported
// quantile is the nearest-rank value or at most 1/16 above it, p99 never
// exceeds the exact max, merging equals histogramming the union, and
// subtracting a merged part leaves the other part.
func TestQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, vs := range samples(rng) {
		t.Run(name, func(t *testing.T) {
			s := snapshotOf(vs)
			sorted := slices.Sorted(slices.Values(vs))
			for _, q := range []float64{0.50, 0.95, 0.99} {
				exact := sorted[int(q*float64(len(sorted)-1))]
				got := int64(s.Quantile(q))
				if got < exact || got-exact > exact/16 {
					t.Errorf("p%v = %d, exact %d: off by more than 1/16", q*100, got, exact)
				}
			}
			p50, _, p99, maxv, mean := s.Summary()
			if maxv != time.Duration(sorted[len(sorted)-1]) || p99 > maxv || p50 > p99 {
				t.Errorf("p50 %v p99 %v max %v, exact max %d", p50, p99, maxv, sorted[len(sorted)-1])
			}
			var sum int64
			for _, v := range vs {
				sum += v
			}
			if want := time.Duration(sum / int64(len(vs))); mean != want {
				t.Errorf("mean = %v, want %v", mean, want)
			}

			cut := rng.Intn(len(vs))
			a, b := snapshotOf(vs[:cut]), snapshotOf(vs[cut:])
			merged := a
			merged.Add(&b)
			if merged != s {
				t.Fatal("merge(a, b) differs from the histogram of a ∪ b")
			}
			merged.Sub(&a)
			// An interval's max is known to its bucket only.
			if merged.max < b.max || bucketOf(uint64(merged.max)) != bucketOf(uint64(b.max)) {
				t.Fatalf("merge(a, b) − a: max %d, b's max %d", merged.max, b.max)
			}
			merged.max = b.max
			if merged != b {
				t.Fatal("merge(a, b) − a differs from b")
			}
		})
	}
}

// TestSubEmptyAndReset: subtracting a reading from itself leaves nothing,
// and an earlier reading larger than the later one (a reset in between)
// leaves only what the later one holds beyond it.
func TestSubEmptyAndReset(t *testing.T) {
	s := snapshotOf([]int64{1e6, 2e6, 3e6})
	same := s
	same.Sub(&s)
	if same.Count() != 0 || same.Quantile(0.99) != 0 || same != (Snapshot{}) {
		t.Fatalf("s − s holds %d samples", same.Count())
	}
	after := snapshotOf([]int64{5e3})
	after.Sub(&s)
	if after.Count() != 1 || after.Quantile(0.99) > 5312 { // 5µs + 1/16
		t.Fatalf("after reset: count %d p99 %v", after.Count(), after.Quantile(0.99))
	}
}

// TestConcurrentObserveSnapshot runs Observe on several goroutines against
// readers that snapshot, merge, subtract and read quantiles in place; under
// -race it checks the histogram's synchronization, and at the end that no
// sample was lost.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const writers, each = 4, 5000
	const largest = time.Duration((writers*each - 1) * 1000)
	var h Hist
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			var cur Snapshot
			h.AddTo(&cur)
			if p99 := h.Quantile(0.99); p99 > largest {
				t.Errorf("in-place p99 %v above the largest sample %v", p99, largest)
			}
			iv := cur
			iv.Sub(&prev)
			var total Snapshot
			total.Add(&prev)
			total.Add(&iv)
			if total.Count() != cur.Count() {
				t.Errorf("prev + (cur − prev) counts %d, cur %d", total.Count(), cur.Count())
			}
			prev = cur
		}
	}()
	var writersWG sync.WaitGroup
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := range each {
				h.Observe(time.Duration((w*each + i) * 1000))
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	var s Snapshot
	h.AddTo(&s)
	if h.Count() != writers*each || s.Count() != writers*each {
		t.Fatalf("count %d, snapshot %d, want %d", h.Count(), s.Count(), writers*each)
	}
	if got := s.Quantile(1); got != largest {
		t.Fatalf("max quantile %v, want %v", got, largest)
	}
}
