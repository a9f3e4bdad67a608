package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/value"
)

// Tests for the two ways a query leaves the dispatcher without a clock: the
// quiescence cut (the busy gauge reaching zero) and the admission of parked
// flights by completions. None of them sleeps: the gate backend completes
// queries when the test says so, and every wait is on an event, guarded by
// a timeout that only fires when the mechanism under test is broken.

// tripGate is a batch-capable Backend that completes nothing on its own:
// every round trip is handed to the test through arrivals.
type tripGate struct {
	svc      *Service // set after New, before the first Submit
	arrivals chan gated

	mu          sync.Mutex
	inUse, peak int
}

// gated is one round trip waiting at the gate.
type gated struct {
	costs []int
	depth int    // Service.QueueDepth when the round trip was submitted
	done  func() // completes every member
}

func newGate() *tripGate { return &tripGate{arrivals: make(chan gated, 1024)} }

func (g *tripGate) Submit(cost int, done func()) { g.SubmitBatch([]int{cost}, done) }

func (g *tripGate) SubmitBatch(costs []int, done func()) {
	n := len(costs)
	g.mu.Lock()
	g.inUse += n
	g.peak = max(g.peak, g.inUse)
	g.mu.Unlock()
	g.arrivals <- gated{costs: costs, depth: g.svc.QueueDepth(), done: func() {
		g.mu.Lock()
		g.inUse -= n
		g.mu.Unlock()
		done()
	}}
}

const eventTimeout = 20 * time.Second

// next waits for the next round trip to reach the gate.
func (g *tripGate) next(t *testing.T) gated {
	t.Helper()
	select {
	case a := <-g.arrivals:
		return a
	case <-time.After(eventTimeout):
		t.Fatal("no round trip reached the backend: the batch was never cut (or the worker is parked)")
		return gated{}
	}
}

// idle asserts nothing is waiting at the gate.
func (g *tripGate) idle(t *testing.T) {
	t.Helper()
	select {
	case a := <-g.arrivals:
		t.Fatalf("unexpected round trip of %d queries at the backend", len(a.costs))
	default:
	}
}

// chainFlow builds a flow of `levels` foreign tasks in a chain over one
// source x: level k needs level k-1's value, so an instance offers exactly
// one query per level, keyed by x.
func chainFlow(t testing.TB, name string, levels, cost int) *core.Schema {
	t.Helper()
	b := core.NewBuilder(name).Source("x")
	prev := "x"
	for k := 0; k < levels; k++ {
		attr, in := fmt.Sprintf("l%d", k), prev
		b = b.Foreign(attr, expr.TrueExpr, []string{in}, cost, func(inp core.Inputs) value.Value {
			v, _ := inp.Get(in).AsInt()
			return value.Int(v + 1)
		})
		prev = attr
	}
	s, err := b.Target(prev).Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitChain submits one instance of a chain flow with source x; the
// returned channel delivers its result (snapshot dropped) exactly once — a
// second Done would block forever on the full channel and fail the drain.
func submitChain(t *testing.T, svc *Service, s *core.Schema, x int) (<-chan engine.Result, func(error)) {
	t.Helper()
	out := make(chan engine.Result, 1)
	var calls atomic.Int32
	target := s.Targets()[0]
	cancel, err := svc.SubmitCancel(Request{
		Schema:   s,
		Sources:  map[string]value.Value{"x": value.Int(int64(x))},
		Strategy: engine.MustParseStrategy("PSE100"),
		Done: func(r *engine.Result) {
			if calls.Add(1) != 1 {
				t.Errorf("x=%d: Done invoked twice", x)
				return
			}
			res := *r
			res.Snapshot = nil
			if got, _ := r.Snapshot.Val(target).AsInt(); r.Err == nil && got != int64(x+s.NumAttrs()-1) {
				res.Err = fmt.Errorf("x=%d: target = %d, want %d", x, got, x+s.NumAttrs()-1)
			}
			out <- res
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, cancel
}

func await(t *testing.T, ch <-chan engine.Result, what string) engine.Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(eventTimeout):
		t.Fatalf("%s did not complete", what)
		return engine.Result{}
	}
}

// checkQueryIdentities asserts the two conservation identities of the query
// layer's counters on a batch-capable backend.
func checkQueryIdentities(t *testing.T, st Stats) {
	t.Helper()
	if st.CutSize+st.CutWindow+st.CutQuiescent != st.Batches {
		t.Errorf("cut causes size=%d window=%d quiescent=%d do not sum to Batches=%d",
			st.CutSize, st.CutWindow, st.CutQuiescent, st.Batches)
	}
	if st.BackendQueries+st.DedupHits+st.CacheHits != st.Launched {
		t.Errorf("launch conservation violated: backend=%d dedup=%d cache=%d launched=%d",
			st.BackendQueries, st.DedupHits, st.CacheHits, st.Launched)
	}
}

// TestQuiescenceCutsEachLevelOnce: with the window out of reach (an hour),
// one bracketed group of instances with distinct keys over a two-level flow
// leaves in exactly one batch per level — cut by the busy gauge reaching
// zero, never by the timer and never by size.
func TestQuiescenceCutsEachLevelOnce(t *testing.T) {
	const n, levels = 48, 2
	s := chainFlow(t, "chain2", levels, 1)
	g := newGate()
	svc := New(Config{
		Backend: g, Workers: 2, MaxInFlightTasks: 4 * n,
		Query: QueryConfig{BatchSize: 4 * n, BatchWindow: time.Hour, Dedup: true},
	})
	g.svc = svc
	results := make([]<-chan engine.Result, n)
	release := svc.Hold()
	for i := range results {
		results[i], _ = submitChain(t, svc, s, 100*i)
	}
	release()
	for level := 0; level < levels; level++ {
		a := g.next(t)
		if len(a.costs) != n {
			t.Fatalf("level %d left as a batch of %d, want all %d instances' queries together", level, len(a.costs), n)
		}
		g.idle(t)
		// The completions feed the next level as a group, like a sub-batch
		// landing: bracket them, or each instance going idle cuts alone.
		release := svc.Hold()
		a.done()
		release()
	}
	for i, ch := range results {
		if r := await(t, ch, fmt.Sprintf("instance %d", i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	svc.Close()
	g.idle(t)
	st := svc.Stats()
	if st.CutQuiescent != levels || st.CutWindow != 0 || st.CutSize != 0 || st.Batches != levels {
		t.Fatalf("cuts size=%d window=%d quiescent=%d batches=%d, want 0/0/%d/%d",
			st.CutSize, st.CutWindow, st.CutQuiescent, st.Batches, levels, levels)
	}
	if st.BackendQueries != n*levels || st.AdmissionParked != 0 {
		t.Fatalf("backend queries = %d (want %d), parked = %d (want 0)", st.BackendQueries, n*levels, st.AdmissionParked)
	}
	checkQueryIdentities(t, st)
}

// TestNoPartialCutWhileRunQueueBusy is the inverse pin: quiescence must not
// fragment batches under load. With more runnable instances than workers
// and distinct keys, every batch cut while an instance is still waiting for
// a worker is a full one; only the last, with the run queue empty, is short.
func TestNoPartialCutWhileRunQueueBusy(t *testing.T) {
	const size, full, rest = 4, 16, 2
	const n = size*full + rest
	s := chainFlow(t, "chain1", 1, 1)
	g := newGate()
	svc := New(Config{
		Backend: g, Workers: 2, MaxInFlightTasks: n,
		Query: QueryConfig{BatchSize: size, BatchWindow: time.Hour, Dedup: true},
	})
	g.svc = svc
	results := make([]<-chan engine.Result, n)
	release := svc.Hold()
	for i := range results {
		results[i], _ = submitChain(t, svc, s, 100*i)
	}
	release()
	// Nothing completes until every batch has left: completions re-schedule
	// instances, and this test is about the instances still to begin.
	batches := make([]gated, full+1)
	for i := range batches {
		batches[i] = g.next(t)
		if a := batches[i]; len(a.costs) < size && a.depth > 0 {
			t.Errorf("batch of %d (< BatchSize %d) cut with %d instances still on the run queue", len(a.costs), size, a.depth)
		}
	}
	for _, a := range batches {
		a.done()
	}
	for i, ch := range results {
		if r := await(t, ch, fmt.Sprintf("instance %d", i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	svc.Close()
	g.idle(t)
	st := svc.Stats()
	if st.CutSize != full || st.CutQuiescent != 1 || st.CutWindow != 0 {
		t.Fatalf("cuts size=%d window=%d quiescent=%d, want %d/0/1", st.CutSize, st.CutWindow, st.CutQuiescent, full)
	}
	checkQueryIdentities(t, st)
}

// TestParkedFlightsDoNotParkTheWorker drives the admission bound with one
// worker and two permits: queries over the bound wait in the dispatcher in
// FIFO order while the worker keeps serving — a cache-hit instance behind
// them completes with no backend completion released — the bound holds
// throughout, a cancelled instance whose query is parked finishes at once
// and retires once its straggler lands, and Close drains with flights
// still parked.
func TestParkedFlightsDoNotParkTheWorker(t *testing.T) {
	const bound = 2
	g := newGate()
	svc := New(Config{
		Backend: g, Workers: 1, MaxInFlightTasks: bound,
		Query: QueryConfig{Dedup: true, CacheSize: 64},
	})
	g.svc = svc
	// One single-query flow per cost: the cost names the flight at the gate.
	flows := make([]*core.Schema, 8)
	for k := 1; k < len(flows); k++ {
		flows[k] = chainFlow(t, fmt.Sprintf("park-%d", k), 1, k)
	}
	arrival := func(want int) gated {
		t.Helper()
		a := g.next(t)
		if len(a.costs) != 1 || a.costs[0] != want {
			t.Fatalf("flight %v reached the backend, want flight %d next (FIFO admission)", a.costs, want)
		}
		return a
	}

	// Warm the cache with flow 7's one query.
	warm, _ := submitChain(t, svc, flows[7], 0)
	arrival(7).done()
	if r := await(t, warm, "warm-up instance"); r.Err != nil {
		t.Fatal(r.Err)
	}

	// Flights 1 and 2 take the permits; 3..6 park, in that order (one worker,
	// FIFO run queue).
	done := make([]<-chan engine.Result, 7)
	cancel := make([]func(error), 7)
	for k := 1; k <= 6; k++ {
		done[k], cancel[k] = submitChain(t, svc, flows[k], 0)
	}
	// The worker is not parked with them: an all-cache-hit instance queued
	// behind the six completes while nothing has been released.
	hit, _ := submitChain(t, svc, flows[7], 0)
	if r := await(t, hit, "cache-hit instance behind parked flights"); r.Err != nil {
		t.Fatal(r.Err)
	}
	a1, a2 := arrival(1), arrival(2)
	g.idle(t)
	if st := svc.Stats(); st.AdmissionParked != 4 || st.BackendQueries != 1+bound || st.CacheHits != 1 {
		t.Fatalf("parked=%d backend=%d cache-hits=%d, want 4/%d/1", st.AdmissionParked, st.BackendQueries, st.CacheHits, 1+bound)
	}

	// Cancel instance 5 while its flight is parked: it finalizes now.
	cause := errors.New("caller gave up")
	cancel[5](cause)
	if r := await(t, done[5], "cancelled instance"); !errors.Is(r.Err, cause) {
		t.Fatalf("cancelled instance finished with %v, want the cause", r.Err)
	}

	// Each completion admits exactly the longest-parked flight.
	a1.done()
	a3 := arrival(3)
	a2.done()
	a4 := arrival(4)
	g.idle(t)
	// Close drains with 5 and 6 still parked; 5's flight still runs, as the
	// cancelled instance's straggler, and retires it exactly once (a second
	// retire would drive the active count negative and panic).
	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	a3.done()
	a5 := arrival(5)
	a4.done()
	a6 := arrival(6)
	a5.done()
	a6.done()
	for _, k := range []int{1, 2, 3, 4, 6} {
		if r := await(t, done[k], fmt.Sprintf("instance %d", k)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	select {
	case <-closed:
	case <-time.After(eventTimeout):
		t.Fatal("Close did not drain")
	}
	g.idle(t)
	if g.peak > bound {
		t.Fatalf("peak in-flight backend queries %d exceeded the bound %d", g.peak, bound)
	}
	st := svc.Stats()
	if st.Completed != 8 || st.Errors != 1 || st.BackendQueries != 7 || st.AdmissionParked != 4 {
		t.Fatalf("completed=%d errors=%d backend=%d parked=%d, want 8/1/7/4", st.Completed, st.Errors, st.BackendQueries, st.AdmissionParked)
	}
	checkQueryIdentities(t, st)
}

// TestCompletionDeliversBeforeFlushingAdmits: a completion that admits
// parked flights and thereby fills a batch must deliver its own waiters
// before flushing that batch, because the flush may block on the backend.
// Here the backend blocks the second batch until the instance whose
// completion filled it has finished — a deadlock if the order were reversed.
func TestCompletionDeliversBeforeFlushingAdmits(t *testing.T) {
	s := chainFlow(t, "chain1", 1, 1)
	g := newGate()
	blocking := &blockSecondBatch{tripGate: g}
	svc := New(Config{
		Backend: blocking, Workers: 1, MaxInFlightTasks: 2,
		Query: QueryConfig{BatchSize: 2, BatchWindow: time.Hour, Dedup: true},
	})
	g.svc = svc
	results := make([]<-chan engine.Result, 4)
	release := svc.Hold()
	for i := range results {
		results[i], _ = submitChain(t, svc, s, 100*i)
	}
	release()
	first := g.next(t) // flights 0,1 (size cut)
	// A query-free instance through the one worker's FIFO run queue: once it
	// is done, instances 2 and 3 have begun and their flights are parked.
	nop, err := core.NewBuilder("nop").Source("x").
		SynthesisExpr("y", expr.TrueExpr, expr.MustParse("x + 1")).Target("y").Build()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := svc.Do(nop, map[string]value.Value{"x": value.Int(1)}, engine.MustParseStrategy("PSE100")); err != nil {
		t.Fatal(err)
	} else if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Completing 0 admits 2; completing 1 admits 3, which fills the batch:
	// its flush blocks until instance 1 has its result. Bracketed, so
	// instance 0 going idle does not cut flight 2 alone.
	blocking.until = results[1]
	release = svc.Hold()
	first.done()
	release()
	if blocking.timedOut.Load() {
		t.Fatal("the flush of the admitted batch ran before its completion's own waiter was delivered")
	}
	g.next(t).done()
	for _, i := range []int{0, 2, 3} {
		if r := await(t, results[i], fmt.Sprintf("instance %d", i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	svc.Close()
	st := svc.Stats()
	if st.CutSize != 2 || st.CutQuiescent != 0 || st.AdmissionParked != 2 || g.peak > 2 {
		t.Fatalf("cuts size=%d quiescent=%d parked=%d peak=%d, want 2/0/2/<=2", st.CutSize, st.CutQuiescent, st.AdmissionParked, g.peak)
	}
	checkQueryIdentities(t, st)
}

// blockSecondBatch is a gate whose SubmitBatch, once until is set, blocks
// until a result arrives on it — a backend bound like Latency.Parallel
// whose slot frees only when an earlier answer has been consumed.
type blockSecondBatch struct {
	*tripGate
	until    <-chan engine.Result
	timedOut atomic.Bool
}

func (b *blockSecondBatch) SubmitBatch(costs []int, done func()) {
	if b.until != nil {
		select {
		case <-b.until:
		case <-time.After(eventTimeout / 4):
			b.timedOut.Store(true)
		}
	}
	b.tripGate.SubmitBatch(costs, done)
}

// TestCutCausesAccountForEveryBatch serves a mixed load on real timers —
// full batches, window expiries, quiescent cuts and parked flights all
// occur — and checks the counters' identities.
func TestCutCausesAccountForEveryBatch(t *testing.T) {
	g := genPattern(t)
	be := &batchCountingBackend{delay: 300 * time.Microsecond}
	const bound = 6
	svc := New(Config{
		Backend: be, Workers: 2, MaxInFlightTasks: bound,
		Query: QueryConfig{BatchSize: 4, BatchWindow: 100 * time.Microsecond, Dedup: true, CacheSize: 256},
	})
	var wg sync.WaitGroup
	const n = 200
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := svc.Submit(Request{
			Schema: g.Schema, Sources: g.SourceValues(),
			Strategy: engine.MustParseStrategy("PSE100"),
			Done:     func(*engine.Result) { wg.Done() },
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	svc.Close()
	st := svc.Stats()
	checkQueryIdentities(t, st)
	if st.Batches == 0 || st.AdmissionParked == 0 {
		t.Fatalf("batches=%d parked=%d: the load exercised neither", st.Batches, st.AdmissionParked)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.peak > bound {
		t.Fatalf("peak in-flight backend queries %d exceeded admission bound %d", be.peak, bound)
	}
}
