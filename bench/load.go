package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// evalFunc sends one batch on a worker's own connection and returns the
// daemon's results. The real one is client.EvalBatch; tests put a stub
// here.
type evalFunc func(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error)

// sample is one request as a worker saw it. Times are offsets from the
// phase start.
type sample struct {
	due  time.Duration // when the request was due to be sent
	sent time.Duration
	end  time.Duration
	ok   int // instances whose answer matched the oracle
	n    int // instances sent
	// serverMs is the largest EvalResult.ElapsedMs of the batch, kept only
	// on a traced run.
	serverMs float64
}

// latency is what the caller waited: from the due time in an open loop,
// where a late send is the load generator's queue; from the send in a
// closed loop, where due and sent coincide.
func (s sample) latency() time.Duration { return s.end - s.due }

// phase is the per-worker record of one closed or open phase.
type phase struct {
	start   time.Time
	samples [][]sample // one slice per worker, appended without locks
}

func (p *phase) all() []sample {
	var out []sample
	for _, s := range p.samples {
		out = append(out, s...)
	}
	return out
}

// counts sums the instances sent and verified over the phase.
func (p *phase) counts() (attempted, ok int) {
	for _, ws := range p.samples {
		for _, s := range ws {
			attempted += s.n
			ok += s.ok
		}
	}
	return attempted, ok
}

// driver sends a run's prebuilt requests from W workers, each with its
// own connection and at most one request in flight.
type driver struct {
	in    *inputs
	evals []evalFunc // one per worker
	// traced keeps each batch's server-side elapsed time for the spans.
	traced bool
	// next is where in the request sequence the next phase starts. The
	// sequence goes on from phase to phase: a phase that started over
	// would find its own earlier requests in the daemon's cache.
	next int
}

// one sends request k of the sequence on worker w and checks the answer.
func (d *driver) one(ctx context.Context, w, k int, start time.Time, due time.Duration) sample {
	r := &d.in.requests[k%len(d.in.requests)]
	s := sample{due: due, n: len(r.vectors), sent: time.Since(start)}
	results, err := d.evals[w](ctx, r.req)
	s.end = time.Since(start)
	if err != nil {
		return s
	}
	s.ok = d.in.check(r, results)
	if d.traced {
		for _, res := range results {
			s.serverMs = max(s.serverMs, res.ElapsedMs)
		}
	}
	return s
}

// run is every loop's frame: the workers share one position in the
// request sequence, and each in turn asks next, with how many requests the
// phase has taken so far and the time since its start, when the request
// at that position is due and whether there is one at all. A worker
// sleeps until its request is due, sends it, checks the answer, and asks
// again.
func (d *driver) run(ctx context.Context, next func(taken int, now time.Duration) (due time.Duration, ok bool)) *phase {
	p := &phase{samples: make([][]sample, len(d.evals))}
	var taken atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for w := range d.evals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(taken.Add(1)) - 1
				now := time.Since(p.start)
				due, ok := next(k, now)
				if !ok {
					return
				}
				if due > now {
					time.Sleep(due - now)
				}
				p.samples[w] = append(p.samples[w], d.one(ctx, w, d.next+k, p.start, due))
			}
		}()
	}
	wg.Wait()
	// A worker that was told to stop took a position and left it unused;
	// only the workers' last takes can be such, so the sequence skips at
	// most that many requests between phases.
	d.next += int(taken.Load())
	return p
}

// closed runs the closed loop: each worker sends its next request when
// the previous one returns, until the duration is over.
func (d *driver) closed(ctx context.Context, dur time.Duration) *phase {
	return d.run(ctx, func(_ int, now time.Duration) (time.Duration, bool) { return now, now < dur })
}

// burst sends the next n requests of the sequence as fast as the workers
// can: the warm-up's unit of work.
func (d *driver) burst(ctx context.Context, n int) *phase {
	return d.run(ctx, func(taken int, now time.Duration) (time.Duration, bool) { return now, taken < n })
}

// open runs the open loop: the workers take the arrivals of the schedule
// in order and send each when it is due. An arrival that finds every
// worker busy waits, and that wait is part of its latency because the
// latency counts from the due time.
func (d *driver) open(ctx context.Context, arrivals []time.Duration) *phase {
	return d.run(ctx, func(taken int, _ time.Duration) (time.Duration, bool) {
		if taken >= len(arrivals) {
			return 0, false
		}
		return arrivals[taken], true
	})
}

// sleepOvershoot measures how much later than asked time.Sleep returns on
// this machine, for sleeps the size of the open loop's gaps, and returns
// the median in milliseconds. Every open-loop latency carries this much
// of the load generator's own delay.
func sleepOvershoot() float64 {
	over := make([]time.Duration, 200)
	for i := range over {
		t0 := time.Now()
		time.Sleep(500 * time.Microsecond)
		over[i] = time.Since(t0) - 500*time.Microsecond
	}
	slices.Sort(over)
	return ms(percentile(over, 0.5))
}

// span is one traced interval of one request; spans of a request share
// its id, and Parent names the span that caused this one.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// spans renders a traced phase: per request load.schedule (due to send),
// client.roundtrip (send to response) and its child server.elapsed, the
// daemon's own submit-to-terminal time. The daemon reports only a
// duration, so the child is centred in its parent; client.roundtrip's
// self time is wire + codec + admission. Request ids continue after the
// given number of spans already recorded; times are offsets from the
// given origin.
func (p *phase) spans(after int, origin time.Time) []span {
	base := p.start.Sub(origin)
	ms := func(d time.Duration) float64 { return ms(base + d) }
	var out []span
	id := after / 3
	for _, ws := range p.samples {
		for _, s := range ws {
			id++
			rt := float64(s.end-s.sent) / float64(time.Millisecond)
			srv := min(s.serverMs, rt)
			out = append(out,
				span{ID: id, Name: "load.schedule", StartMs: ms(s.due), EndMs: ms(s.sent)},
				span{ID: id, Name: "client.roundtrip", Parent: "load.schedule", StartMs: ms(s.sent), EndMs: ms(s.end)},
				span{ID: id, Name: "server.elapsed", Parent: "client.roundtrip",
					StartMs: ms(s.sent) + (rt-srv)/2, EndMs: ms(s.sent) + (rt+srv)/2})
		}
	}
	return out
}
