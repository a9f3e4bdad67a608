// Package load is the one wall-clock load pacer of the serving stack: the
// wall-clock form of the paper's §5 open workload (Poisson arrivals,
// response time read against the arrival rate as in Figure 9(b)) and its
// closed-loop, peak-throughput twin. It owns pacing and nothing else. Run
// splits [0, Count) into requests of Batch instances and calls
// send(lo, hi, done) once per request; send calls done exactly once when
// that request has finished. runtime.RunLoad submits each request to an
// in-process Service, client.RunLoad round-trips it to a daemon.
package load

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Plan is one run's pacing.
type Plan struct {
	// Count is the number of instances to fire.
	Count int
	// Batch is the number of instances per request (default 1); the last
	// request carries the remainder.
	Batch int
	// Rate > 0 paces an open loop: requests arrive as a Poisson process at
	// Rate instances per second, whatever the completions do.
	Rate float64
	// Arrivals, if non-nil, replaces the Poisson process with an explicit
	// open-loop schedule: the request starting at instance lo fires at
	// start+Arrivals(lo). Offsets must be non-decreasing in lo.
	Arrivals func(lo int) time.Duration
	// Concurrency is the closed loop's number of chains (default 1). With
	// neither Rate nor Arrivals set, each chain sends its next request
	// when its previous one is done.
	Concurrency int
	// Seed drives the Poisson process.
	Seed int64
}

// Run paces p, calling send for every request, and returns once every
// request it started has called done. Once ctx is done it starts no
// further request and returns ctx.Err() after the started ones are done.
//
// In the open loop send is called from Run's goroutine and must not block
// for the request's duration: a blocking sender runs the request on a
// goroutine of its own. In the closed loop a done that fires after send
// returned continues its chain on the goroutine that called it, and a done
// that fires before send returns lets the chain's own goroutine go on;
// either way a chain allocates nothing per request.
//
// done carries a value of the sender's choosing that Run ignores, so a
// callback-shaped API (runtime.Request.Done) can take done as it is.
func Run[R any](ctx context.Context, p Plan, send func(lo, hi int, done func(R))) error {
	p.Batch = max(p.Batch, 1)
	if p.Rate > 0 || p.Arrivals != nil {
		runOpen(ctx, p, send)
	} else {
		runClosed(ctx, p, send)
	}
	return ctx.Err()
}

// schedule yields the open loop's due times as offsets from the start:
// the Arrivals schedule, or a Poisson process in which a request of n
// instances is followed by an exponential gap n times the mean, so the
// instance rate stays Rate whatever the batch.
type schedule struct {
	arrivals func(lo int) time.Duration
	rng      *rand.Rand
	rate     float64
	due      time.Duration
}

func newSchedule(p Plan) *schedule {
	s := &schedule{arrivals: p.Arrivals, rate: p.Rate}
	if s.arrivals == nil {
		s.rng = rand.New(rand.NewSource(p.Seed))
	}
	return s
}

// next returns the due time of request [lo, hi) and steps past it.
func (s *schedule) next(lo, hi int) time.Duration {
	if s.arrivals != nil {
		return s.arrivals(lo)
	}
	due := s.due
	s.due += time.Duration(s.rng.ExpFloat64() / s.rate * float64(hi-lo) * float64(time.Second))
	return due
}

// runOpen fires each request at its due time, paced against absolute
// deadlines so a late wake-up does not shift the rest of the schedule.
func runOpen[R any](ctx context.Context, p Plan, send func(lo, hi int, done func(R))) {
	var wg sync.WaitGroup
	done := func(R) { wg.Done() }
	sched := newSchedule(p)
	var timer *time.Timer
	start := time.Now()
	for lo := 0; lo < p.Count; lo += p.Batch {
		hi := min(lo+p.Batch, p.Count)
		if d := time.Until(start.Add(sched.next(lo, hi))); d > 0 {
			if timer == nil {
				timer = time.NewTimer(d)
				defer timer.Stop()
			} else {
				timer.Reset(d)
			}
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		send(lo, hi, done)
	}
	wg.Wait()
}

// closed is the shared state of one closed-loop run.
type closed[R any] struct {
	p    Plan
	send func(lo, hi int, done func(R))
	stop <-chan struct{} // ctx.Done(), read without the context's lock
	next atomic.Int64    // first unclaimed instance
	wg   sync.WaitGroup  // chains still running
}

// Chain states: idle between requests, sending while send runs, and
// doneEarly when done fired before send returned.
const (
	idle int32 = iota
	sending
	doneEarly
)

// chain is one closed-loop sequence of requests; done is its completion
// callback, built once.
type chain[R any] struct {
	r     *closed[R]
	state atomic.Int32
	done  func(R)
}

func runClosed[R any](ctx context.Context, p Plan, send func(lo, hi int, done func(R))) {
	r := &closed[R]{p: p, send: send, stop: ctx.Done()}
	chains := make([]chain[R], min(max(p.Concurrency, 1), (p.Count+p.Batch-1)/p.Batch))
	r.wg.Add(len(chains))
	for i := range chains {
		c := &chains[i]
		c.r, c.done = r, c.complete
		go c.run()
	}
	r.wg.Wait()
}

// run sends the chain's requests until the count is claimed or the run is
// stopped, handing over to done whenever a request is still out when send
// returns.
func (c *chain[R]) run() {
	r := c.r
	for {
		select {
		case <-r.stop:
			r.wg.Done()
			return
		default:
		}
		lo := int(r.next.Add(int64(r.p.Batch))) - r.p.Batch
		if lo >= r.p.Count {
			r.wg.Done()
			return
		}
		c.state.Store(sending)
		r.send(lo, min(lo+r.p.Batch, r.p.Count), c.done)
		if c.state.CompareAndSwap(sending, idle) {
			return // done continues the chain
		}
	}
}

// complete is a chain's done: during send it only marks the request done,
// after send it continues the chain on the calling goroutine.
func (c *chain[R]) complete(R) {
	if !c.state.CompareAndSwap(sending, doneEarly) {
		c.run()
	}
}
