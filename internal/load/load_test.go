package load

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ranges records every request a run sends.
type ranges struct {
	mu   sync.Mutex
	sent [][2]int
}

func (r *ranges) add(lo, hi int) {
	r.mu.Lock()
	r.sent = append(r.sent, [2]int{lo, hi})
	r.mu.Unlock()
}

// check asserts that the recorded requests cover [0, count) exactly once
// in ranges of batch instances, the last one carrying the remainder.
func (r *ranges) check(t *testing.T, count, batch int) {
	t.Helper()
	seen := make([]int, count)
	for _, rg := range r.sent {
		lo, hi := rg[0], rg[1]
		if lo%batch != 0 || hi-lo != min(batch, count-lo) {
			t.Fatalf("request [%d, %d) is not a batch of %d", lo, hi, batch)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("instance %d sent %d times", i, n)
		}
	}
}

// TestRunSendsEveryIndexOnce covers both loops, with a count that is not
// a multiple of the batch.
func TestRunSendsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"closed", Plan{Count: 103, Batch: 4, Concurrency: 3}},
		{"closed-unbatched", Plan{Count: 50, Concurrency: 8}},
		{"poisson", Plan{Count: 103, Batch: 4, Rate: 1e9, Seed: 7}},
		{"arrivals", Plan{Count: 103, Batch: 4, Arrivals: func(int) time.Duration { return 0 }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r ranges
			err := Run(context.Background(), tc.plan, func(lo, hi int, done func(struct{})) {
				r.add(lo, hi)
				done(struct{}{})
			})
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, tc.plan.Count, max(tc.plan.Batch, 1))
		})
	}
}

// TestClosedPeakOutstanding: the closed loop keeps min(Concurrency,
// ⌈Count/Batch⌉) requests out at its peak and never more, whether done
// fires inside send or later on another goroutine. The first wave of
// requests holds its completion until the whole wave is out, so the peak
// is reached deterministically.
func TestClosedPeakOutstanding(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want int
	}{
		{Plan{Count: 100, Batch: 3, Concurrency: 5}, 5},
		{Plan{Count: 10, Batch: 4, Concurrency: 8}, 3},
		{Plan{Count: 7, Concurrency: 7}, 7},
	} {
		for _, async := range []bool{false, true} {
			var out, peak, started atomic.Int64
			wave := make(chan struct{})
			var r ranges
			finish := func(done func(struct{})) {
				if started.Add(1) == int64(tc.want) {
					close(wave)
				}
				<-wave
				out.Add(-1)
				done(struct{}{})
			}
			err := Run(context.Background(), tc.plan, func(lo, hi int, done func(struct{})) {
				r.add(lo, hi)
				n := out.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if async {
					go finish(done)
				} else {
					finish(done)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got != int64(tc.want) {
				t.Errorf("%+v async=%v: peak outstanding %d, want %d", tc.plan, async, got, tc.want)
			}
			r.check(t, tc.plan.Count, max(tc.plan.Batch, 1))
		}
	}
}

// TestArrivalsNeverEarly: an explicit schedule fires each request no
// sooner than its offset, in schedule order.
func TestArrivalsNeverEarly(t *testing.T) {
	at := func(lo int) time.Duration { return time.Duration(lo) * 300 * time.Microsecond }
	start := time.Now()
	last := -1
	err := Run(context.Background(), Plan{Count: 40, Batch: 2, Arrivals: at}, func(lo, hi int, done func(struct{})) {
		if early := at(lo) - time.Since(start); early > 0 {
			t.Errorf("request %d fired %v early", lo, early)
		}
		if lo <= last {
			t.Errorf("request %d fired after %d", lo, last)
		}
		last = lo
		done(struct{}{})
	})
	if err != nil || last != 38 {
		t.Fatalf("err=%v last=%d", err, last)
	}
}

// TestPoissonScheduleUnchanged pins the open loop's due times to the two
// formulas the in-process and remote generators used before they shared
// this pacer: one instance per request, and batches of four.
func TestPoissonScheduleUnchanged(t *testing.T) {
	const rate = 2500.0
	for seed := int64(1); seed <= 3; seed++ {
		for _, batch := range []int{1, 4} {
			s := newSchedule(Plan{Rate: rate, Seed: seed})
			rng := rand.New(rand.NewSource(seed))
			start := time.Unix(0, 0)
			next := start
			for k := 0; k < 1000; k++ {
				lo := k * batch
				if got, want := s.next(lo, lo+batch), next.Sub(start); got != want {
					t.Fatalf("seed %d batch %d request %d: due %v, want %v", seed, batch, k, got, want)
				}
				if batch == 1 {
					next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
				} else {
					next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(batch) * float64(time.Second)))
				}
			}
		}
	}
}

// TestRunCancel: a cancel stops both loops, Run returns ctx.Err() only
// after every started request's done ran, and no send starts afterwards.
func TestRunCancel(t *testing.T) {
	for _, plan := range []Plan{
		{Count: 1 << 20, Concurrency: 4},
		{Count: 1 << 20, Rate: 50, Seed: 1}, // the second arrival is ~20ms out
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int64
		var returned atomic.Bool
		err := Run(ctx, plan, func(lo, hi int, done func(struct{})) {
			if returned.Load() {
				t.Error("send after Run returned")
			}
			if started.Add(1) == 1 {
				cancel()
			}
			go func() {
				time.Sleep(time.Millisecond)
				finished.Add(1)
				done(struct{}{})
			}()
		})
		returned.Store(true)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want context.Canceled", plan, err)
		}
		if s, f := started.Load(), finished.Load(); s != f || s > int64(max(plan.Concurrency, 1)) {
			t.Fatalf("%+v: %d sends started, %d done before Run returned", plan, s, f)
		}
		time.Sleep(5 * time.Millisecond) // a send after Run returned would land here
	}
}

// TestClosedSyncDoneAllocs pins the closed loop's per-request cost: with
// done firing inside send, a chain allocates nothing per request; one
// allocation per request would read as 1 here.
func TestClosedSyncDoneAllocs(t *testing.T) {
	const count = 20000
	send := func(lo, hi int, done func(struct{})) { done(struct{}{}) }
	allocs := testing.AllocsPerRun(5, func() {
		Run(context.Background(), Plan{Count: count, Concurrency: 4}, send)
	})
	if per := allocs / count; per >= 0.01 {
		t.Fatalf("%.3f allocs per request (%.0f per run), want 0", per, allocs)
	}
}
