package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The dispatcher's admission bound (Config.MaxInFlightTasks), tested on the
// dispatcher alone: launches are offered with Submit, exactly as inst.launch
// offers them, and completed by a test backend.

// peakBackend tracks how many queries are on it at once. Every other round
// trip completes inline on the submitting goroutine, the rest on a new one,
// which holds the dispatcher's busy gauge while it delivers — as the
// service's run queue does for the instance a completion wakes — so the
// batch a completion admits a parked query into is cut when it goes quiet.
type peakBackend struct {
	d                   *dispatcher
	inside, peak, trips atomic.Int64
}

func (b *peakBackend) Exec(qs []Query, each func(int, error)) {
	n := int64(len(qs))
	now := b.inside.Add(n)
	for p := b.peak.Load(); now > p && !b.peak.CompareAndSwap(p, now); p = b.peak.Load() {
	}
	done := func() {
		b.d.hold()
		defer b.d.release()
		b.inside.Add(-n)
		for i := range len(qs) {
			each(i, nil)
		}
	}
	if b.trips.Add(1)%2 == 0 {
		done()
		return
	}
	go done()
}

// TestAdmissionBoundAndNoLostWakeup hammers the bound far past its limit:
// 64 launchers each offer a query and wait for its completion, 200 times
// over, on own flights, on heap flights of the single-flight table and
// through the batcher. The queries on the backend may never exceed the
// limit, and every launcher must finish — a lost permit hand-over would
// leave a flight parked forever. Run it under -race -cpu 1,2,4 (make race).
func TestAdmissionBoundAndNoLostWakeup(t *testing.T) {
	const launchers, rounds = 64, 200
	s, _ := quickstart(t)
	configs := []struct {
		name  string
		query QueryConfig
		keyed bool
	}{
		{"own", QueryConfig{}, false},
		{"heap", QueryConfig{Dedup: true}, true},
		{"batched", QueryConfig{BatchSize: 3, BatchWindow: 20 * time.Microsecond}, false},
	}
	for _, cfg := range configs {
		for limit := 1; limit <= 4; limit++ {
			t.Run(fmt.Sprintf("%s/limit%d", cfg.name, limit), func(t *testing.T) {
				b := &peakBackend{}
				d := newDispatcher(b, false, limit, cfg.query)
				b.d = d
				var wg sync.WaitGroup
				wg.Add(launchers)
				for g := range launchers {
					go func() {
						defer wg.Done()
						done := make(chan struct{}, 1)
						own := d.ownFlight(func(error) { done <- struct{}{} })
						var args []byte
						for i := range rounds {
							args = fmt.Appendf(args[:0], "%d/%d", g, i) // unique: no dedup hits
							d.hold()                                    // a launching instance is busy until it goes idle
							d.Submit(s, 1, args, cfg.keyed, 1, own)
							d.release()
							<-done
						}
					}()
				}
				finished := make(chan struct{})
				go func() { wg.Wait(); close(finished) }()
				select {
				case <-finished:
				case <-time.After(2 * time.Minute):
					t.Fatalf("launchers still waiting (n=%d): lost wake-up", d.n.Load())
				}
				if got := b.peak.Load(); got > int64(limit) {
					t.Errorf("%d queries on the backend at once", got)
				}
				d.bmu.Lock()
				defer d.bmu.Unlock()
				if n := d.n.Load(); n != 0 || d.permits != 0 || len(d.waiting) != 0 {
					t.Errorf("after drain n=%d permits=%d waiting=%d, want 0 0 0", n, d.permits, len(d.waiting))
				}
			})
		}
	}
}

// heldTrips is a Backend that completes nothing on its own: the test
// completes each round trip, in any order.
type heldTrips struct {
	trips []heldTrip
}

type heldTrip struct {
	costs []int
	each  func(int, error)
}

func (b *heldTrips) Exec(qs []Query, each func(int, error)) {
	costs := make([]int, len(qs))
	for i, q := range qs {
		costs[i] = q.Cost
	}
	b.trips = append(b.trips, heldTrip{costs, each})
}

// complete finishes the i-th round trip that reached the backend.
func (b *heldTrips) complete(i int) {
	for j := range b.trips[i].costs {
		b.trips[i].each(j, nil)
	}
}

// TestAdmissionParksAtLimit: with every permit held, the next launches
// return to their launcher at once, their queries parked, not sent and not
// completed; each completion then admits the longest-parked one, and every
// waiter is called exactly once.
func TestAdmissionParksAtLimit(t *testing.T) {
	s, _ := quickstart(t)
	b := &heldTrips{}
	d := newDispatcher(b, false, 2, QueryConfig{})
	const n = 5
	var calls [n]int
	for i := range n {
		own := d.ownFlight(func(error) { calls[i]++ })
		returned := make(chan struct{})
		go func() { d.Submit(s, 1, nil, false, i, own); close(returned) }()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("launch %d blocked its launcher", i)
		}
	}
	sent := func() (costs []int) {
		for _, tr := range b.trips {
			costs = append(costs, tr.costs...)
		}
		return costs
	}
	if got := fmt.Sprint(sent()); got != "[0 1]" {
		t.Fatalf("queries on the backend %s, want [0 1]: the limit of 2 was passed", got)
	}
	if calls != [n]int{} || d.parked.Load() != 3 {
		t.Fatalf("waiters called %v, parked %d; want none called, 3 parked", calls, d.parked.Load())
	}
	// Completions in the order 1, 0, 2, 3, 4 of the round trips: each one
	// sends the longest-parked query on.
	for k, trip := range []int{1, 0, 2, 3, 4} {
		b.complete(trip)
		want := []int{0, 1, 2, 3, 4}[:min(n, k+3)]
		if got := fmt.Sprint(sent()); got != fmt.Sprint(want) {
			t.Fatalf("after completion %d the backend holds %s, want %v: a completion did not admit the longest-parked query", k+1, got, want)
		}
	}
	if calls != [n]int{1, 1, 1, 1, 1} {
		t.Fatalf("waiters called %v, want each once", calls)
	}
	if n := d.n.Load(); n != 0 || d.permits != 0 || len(d.waiting) != 0 {
		t.Fatalf("after drain n=%d permits=%d waiting=%d, want 0 0 0", n, d.permits, len(d.waiting))
	}
}

// FuzzDispatchAdmission runs the dispatcher's admission and batcher against
// a sequential model: a limit of 1-8, batching off or on (2-4 per batch),
// and a random interleaving of offers — an own flight (reused once its
// waiter ran) or a heap flight of the single-flight table — completions of
// any round trip on the backend, and quiescent cuts. After every step the
// backend must hold exactly the queries the model sent, in the order it
// sent them (parked queries are admitted FIFO), no more than the limit
// between the batch and the backend, and every waiter must have run exactly
// once per completed query; after a drain AdmissionParked must equal the
// queries that waited. The dispatcher's oldest-parked stamp must be zero
// exactly when the model parks nothing, and otherwise fall within the offer
// of the model's longest-parked query.
func FuzzDispatchAdmission(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 0, 0, 1, 1, 2, 3, 3, 3})
	f.Add(uint8(1), uint8(2), []byte{0, 1, 0, 1, 0, 4, 2, 5, 2, 2, 6})
	f.Add(uint8(7), uint8(3), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 4, 3, 3})
	s, _ := quickstart(f)
	f.Fuzz(func(t *testing.T, limitB, batchB uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256] // the checks are quadratic in the steps
		}
		limit := 1 + int(limitB%8)
		batch := 0
		if batchB%4 != 0 {
			batch = 1 + int(batchB%4) // 2-4
		}
		b := &heldTrips{}
		d := newDispatcher(b, false, limit, QueryConfig{BatchSize: batch, BatchWindow: time.Hour, Dedup: true})

		var (
			calls   []int     // waiter calls per offered query (its cost)
			free    []*flight // own flights whose waiter ran
			current = map[*flight]int{}
			model   []int // the model's order of queries sent to the backend
			held    int   // permits held: pending or on the backend
			waiting []int // the model's parked queries
			pending []int // the model's forming batch
			done    = map[int]bool{}
			nparked uint64
			args    []byte
			offered [][2]time.Time // when each query's offer began and returned
		)
		send := func(q int) {
			if batch == 0 {
				model = append(model, q)
				return
			}
			if pending = append(pending, q); len(pending) == batch {
				model, pending = append(model, pending...), nil
			}
		}
		offer := func(heap bool) {
			q := len(calls)
			calls = append(calls, 0)
			var own *flight
			if len(free) > 0 && !heap {
				own, free = free[len(free)-1], free[:len(free)-1]
			} else {
				own = d.ownFlight(func(error) {
					calls[current[own]]++
					free = append(free, own)
				})
			}
			current[own] = q
			if held < limit {
				held++
				send(q)
			} else {
				waiting = append(waiting, q)
				nparked++
			}
			args = fmt.Appendf(args[:0], "%d", q)
			begin := time.Now()
			d.Submit(s, 1, args, heap, q, own)
			offered = append(offered, [2]time.Time{begin, time.Now()})
		}
		sentQueries := func() (qs []int) {
			for _, tr := range b.trips {
				qs = append(qs, tr.costs...)
			}
			return qs
		}
		complete := func(pick int) bool {
			var open []int // round trips not yet completed
			for i, tr := range b.trips {
				if !done[tr.costs[0]] {
					open = append(open, i)
				}
			}
			if len(open) == 0 {
				return false
			}
			i := open[pick%len(open)]
			for _, q := range b.trips[i].costs {
				done[q] = true
				held--
				if len(waiting) > 0 {
					held++
					send(waiting[0])
					waiting = waiting[1:]
				}
			}
			b.complete(i)
			return true
		}
		cut := func() {
			if batch > 0 && len(pending) > 0 {
				model, pending = append(model, pending...), nil
			}
			d.hold()
			d.release()
		}
		check := func(step int) {
			t.Helper()
			if got := sentQueries(); !slices.Equal(got, model) {
				t.Fatalf("step %d: backend got %v, model sent %v", step, got, model)
			}
			if held > limit || len(pending)+len(model)-len(done) > limit {
				t.Fatalf("step %d: %d held past a limit of %d", step, held, limit)
			}
			if n := d.n.Load(); n != int64(held+len(waiting)) {
				t.Fatalf("step %d: n=%d, model holds %d and parks %d", step, n, held, len(waiting))
			}
			at := d.oldestParked()
			if at.IsZero() != (len(waiting) == 0) {
				t.Fatalf("step %d: oldest-parked stamp %v with %d parked", step, at, len(waiting))
			}
			if len(waiting) > 0 {
				if span := offered[waiting[0]]; at.Before(span[0]) || at.After(span[1]) {
					t.Fatalf("step %d: oldest-parked stamp %v outside the offer of query %d (%v to %v): not the longest-parked",
						step, at, waiting[0], span[0], span[1])
				}
			}
			for q, c := range calls {
				want := 0
				if done[q] {
					want = 1
				}
				if c != want {
					t.Fatalf("step %d: waiter of query %d called %d times, want %d", step, q, c, want)
				}
			}
		}
		for step, op := range ops {
			switch op % 8 {
			case 0, 1, 2:
				offer(false)
			case 3, 4:
				offer(true)
			case 5:
				cut()
			default:
				complete(int(op / 8))
			}
			check(step)
		}
		for step := len(ops); ; step++ {
			if !complete(0) {
				if len(pending) == 0 {
					break
				}
				cut()
			}
			check(step)
		}
		if got := d.parked.Load(); got != nparked {
			t.Fatalf("AdmissionParked=%d, but %d queries waited", got, nparked)
		}
		if len(done) != len(calls) || d.n.Load() != 0 {
			t.Fatalf("drained %d of %d queries, n=%d", len(done), len(calls), d.n.Load())
		}
	})
}
