// Package runtime is the concurrent wall-clock serving runtime: it
// executes many decision flow instances simultaneously on real goroutines,
// in real time, against a pluggable external database backend.
//
// It is the production-facing counterpart of the virtual-time simulation
// engine (internal/engine): both drive the same clock-agnostic instance
// loop (engine.Core — evaluation → prequalifying → scheduling, §3 of the
// paper, under the full §4 strategy space), but here task completions are
// real events delivered by goroutines rather than discrete-event
// simulation callbacks.
//
// The entry point is Service (see New): a worker pool that steps
// instances, a global admission bound on in-flight database tasks, and
// per-instance state pooling via sync.Pool so the steady-state hot path is
// allocation-free. RunLoad drives a Service with a Poisson open loop or a
// bounded closed loop paced by internal/load; cmd/dfserve drives a dfsd
// daemon with the same pacer.
package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simdb"
)

// Query is one database query: its cost in units of processing and its
// sharing-identity hash (the shard placement key; arbitrary for unkeyed
// queries).
type Query struct {
	Hash uint64
	Cost int
}

// Backend abstracts the external database server in wall-clock time: Exec
// runs qs as one combined round trip (len 1 is a plain query) and calls
// each(i, err) exactly once per member, from any goroutine, possibly
// synchronously. A non-nil err means member i failed (the server is down,
// overloaded, or a fault was injected). Exec does not retain qs after it
// returns.
//
// A combined round trip is the paper's §6 query clustering applied across
// instances: the backend's fixed per-query cost is paid once for the whole
// batch, trading per-result latency for amortization.
//
// The service's completion handler enqueues the completion for a worker
// and returns the query's admission permit; a permit it hands to a parked
// query sends that query on after the delivery, so each may re-enter Exec.
// Implementations must be safe for concurrent Exec calls.
type Backend interface {
	Exec(qs []Query, each func(i int, err error))
}

// ErrInjected is the error fault-injecting backends report for queries
// chosen to fail.
var ErrInjected = errors.New("runtime: injected backend fault")

// Instant is the zero-latency backend: every query completes immediately
// on the submitting goroutine. It measures the pure engine-side throughput
// ceiling (scheduling, propagation, pooling), the wall-clock analogue of
// the paper's infinite-resource database.
type Instant struct{}

// Exec completes every member immediately.
func (Instant) Exec(qs []Query, each func(int, error)) {
	for i := range qs {
		each(i, nil)
	}
}

// Latency is a latency-injecting concurrent backend: a query of cost c
// completes Base + c×PerUnit (±Jitter) after submission, timed on real
// timers. With Parallel > 0 at most that many queries execute at once and
// excess submissions block, modeling a database with a bounded
// multiprogramming level.
//
// Fault injection (for resilience tests and chaos runs): FailRate queries
// report ErrInjected after their normal latency, StallRate queries never
// report at all — both drawn from a seeded stream, so runs reproduce.
type Latency struct {
	// Base is the fixed per-query latency (connection, parse, optimize).
	Base time.Duration
	// PerUnit is the latency per unit of processing.
	PerUnit time.Duration
	// Jitter randomizes each query's latency uniformly in
	// [1-Jitter, 1+Jitter]× the deterministic value. 0 disables.
	Jitter float64
	// Parallel bounds concurrently executing queries; 0 means unbounded.
	Parallel int
	// FailRate is the fraction of queries that execute (full latency,
	// multiprogramming slot) but report ErrInjected. 0 disables.
	FailRate float64
	// StallRate is the fraction of queries that never report completion —
	// a hung connection. The multiprogramming slot is released after the
	// normal latency, so a stalled backend still drains; only the caller
	// waits forever (or until its own deadline fires). 0 disables.
	StallRate float64
	// Seed fixes the fault draws (FailRate/StallRate); runs with the same
	// seed fail the same queries in submission order.
	Seed int64

	once sync.Once
	sem  chan struct{}
	mu   sync.Mutex // guards rng
	rng  *rand.Rand
}

// Exec executes qs as one combined query: a single multiprogramming slot,
// one Base charge and the summed per-unit latency — the fixed per-query
// cost is paid once for the whole round trip. It blocks while Parallel
// queries are already executing. The round trip draws one fault, shared by
// every member: injected failures arrive as ErrInjected, injected stalls
// never arrive.
func (l *Latency) Exec(qs []Query, each func(int, error)) {
	cost := 0
	for _, q := range qs {
		cost += q.Cost
	}
	n := len(qs)
	l.once.Do(func() {
		if l.Parallel > 0 {
			l.sem = make(chan struct{}, l.Parallel)
		}
		if l.FailRate > 0 || l.StallRate > 0 {
			l.rng = rand.New(rand.NewSource(l.Seed))
		}
	})
	var fail, stall bool
	if l.rng != nil {
		l.mu.Lock()
		u := l.rng.Float64()
		l.mu.Unlock()
		fail = u < l.FailRate
		stall = !fail && u < l.FailRate+l.StallRate
	}
	if l.sem != nil {
		l.sem <- struct{}{}
	}
	d := l.Base + time.Duration(cost)*l.PerUnit
	if l.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + l.Jitter*(2*rand.Float64()-1)))
	}
	time.AfterFunc(d, func() {
		if l.sem != nil {
			<-l.sem
		}
		if stall {
			return
		}
		var err error
		if fail {
			err = ErrInjected
		}
		for i := range n {
			each(i, err)
		}
	})
}

// PacedSim adapts the paper's simulated CPU/disk database server (simdb,
// §5) to wall-clock execution: queries from concurrent goroutines are fed
// into one discrete-event simulation whose virtual clock is paced against
// real time, so database contention (the Gmpl → UnitTime curve of Figure
// 9(a)) emerges under real concurrent load exactly as it does in the
// virtual-time experiments.
//
// One virtual millisecond takes Scale wall-clock milliseconds; Scale < 1
// compresses time for high-throughput runs.
type PacedSim struct {
	mu     sync.Mutex
	sm     *sim.Sim
	db     *simdb.Server
	origin time.Time
	scale  float64
	timer  *time.Timer
	fired  []func()
}

// NewPacedSim creates a paced simulated database with the given physical
// parameters and seed. scale is wall-clock milliseconds per virtual
// millisecond; values ≤ 0 default to 1 (real time).
func NewPacedSim(p simdb.Params, seed int64, scale float64) *PacedSim {
	if scale <= 0 {
		scale = 1
	}
	sm := sim.New()
	return &PacedSim{
		sm:     sm,
		db:     simdb.NewServer(sm, p, seed),
		origin: time.Now(),
		scale:  scale,
	}
}

// Exec feeds qs into the simulation at the current (wall-mapped) virtual
// time: a lone query as itself, several as one combined query — one
// multiprogramming slot, the per-query overhead (simdb.Params.OverheadUnits)
// charged once. Faults are driven by the simulated server's fault
// parameters (simdb.Params.FailProb / StallProb); a combined query draws one,
// shared by every member.
func (b *PacedSim) Exec(qs []Query, each func(int, error)) {
	n := len(qs)
	fire := func(err error) {
		b.fired = append(b.fired, func() {
			for i := range n {
				each(i, err)
			}
		})
	}
	b.step(func() {
		if n == 1 {
			b.db.SubmitErr(qs[0].Cost, fire)
			return
		}
		costs := make([]int, n)
		for i, q := range qs {
			costs[i] = q.Cost
		}
		b.db.SubmitBatchErr(costs, fire)
	})
}

// Stats reports the simulated server's time-averaged multiprogramming
// level (Gmpl), mean per-unit response time in virtual milliseconds, and
// completed query count.
func (b *PacedSim) Stats() (avgGmpl, avgUnitTime float64, queries uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.db.AvgActive(), b.db.AvgUnitTime(), b.db.QueriesDone()
}

// Stop cancels the pacing timer. Pending completions are dropped; only
// call after the service has drained.
func (b *PacedSim) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.timer != nil {
		b.timer.Stop()
	}
}

// tick fires when the wall clock reaches the next virtual event.
func (b *PacedSim) tick() { b.step(nil) }

// step brings the simulation up to the wall clock, runs submit (if any) at
// that virtual instant, re-arms the pacing timer, and dispatches the
// completions that fired — outside the lock.
func (b *PacedSim) step(submit func()) {
	b.mu.Lock()
	b.advanceLocked()
	if submit != nil {
		submit()
	}
	b.rescheduleLocked()
	fired := b.fired
	b.fired = nil
	b.mu.Unlock()
	for _, f := range fired {
		f()
	}
}

// advanceLocked runs the simulation up to the virtual time corresponding
// to the wall clock now. Completion callbacks are collected in b.fired for
// dispatch outside the lock.
func (b *PacedSim) advanceLocked() {
	v := float64(time.Since(b.origin)) / (b.scale * float64(time.Millisecond))
	b.sm.RunUntil(v)
}

// rescheduleLocked arms the timer for the earliest pending virtual event.
func (b *PacedSim) rescheduleLocked() {
	next, ok := b.sm.NextAt()
	if !ok {
		return
	}
	deadline := b.origin.Add(time.Duration(next * b.scale * float64(time.Millisecond)))
	d := max(time.Until(deadline), 0)
	if b.timer == nil {
		b.timer = time.AfterFunc(d, b.tick)
	} else {
		b.timer.Reset(d)
	}
}
