package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// Tests for the per-instance mailbox: begin-before-cancel ordering, stale
// cancel nudges against recycled state, the one-push-per-inline-instance
// count, and re-entrancy from Done.

// TestMailboxCancelRacesBegin fires the cancel handle the moment it is
// returned, 10 000 times across 4 workers. Mailbox order puts every nudge
// behind its own begin, so each instance either aborts with the cause or —
// when it finished first — completes normally; none may hang or be lost.
func TestMailboxCancelRacesBegin(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	svc := New(Config{Workers: 4, Backend: &Latency{Base: 20 * time.Microsecond}})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")
	cause := errors.New("caller gave up")

	const n = 10000
	var (
		wg               sync.WaitGroup
		aborted, normal  atomic.Int64
		wrongErr, wrongV atomic.Int64
	)
	window := make(chan struct{}, 64) // instances in flight at once
	wg.Add(n)
	for i := 0; i < n; i++ {
		window <- struct{}{}
		cancel, err := svc.SubmitCancel(Request{
			Schema: s, Sources: sources, Strategy: st,
			Done: func(r *engine.Result) {
				switch {
				case r.Err == nil:
					normal.Add(1)
					if snapshot.CheckAgainstOracle(r.Snapshot, oracle) != nil {
						wrongV.Add(1)
					}
				case errors.Is(r.Err, cause):
					aborted.Add(1)
				default:
					wrongErr.Add(1)
				}
				<-window
				wg.Done()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cancel(cause)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatalf("hung: %d aborted + %d normal of %d", aborted.Load(), normal.Load(), n)
	}
	if wrongErr.Load() != 0 || wrongV.Load() != 0 {
		t.Fatalf("%d instances failed with a foreign error, %d completed off-oracle", wrongErr.Load(), wrongV.Load())
	}
	if got := aborted.Load() + normal.Load(); got != n {
		t.Fatalf("accounted %d of %d instances", got, n)
	}
	if aborted.Load() == 0 {
		t.Fatal("no instance was ever aborted: the nudges are being dropped")
	}
}

// gateBackend completes tasks inline while open and holds them while shut.
type gateBackend struct {
	mu   sync.Mutex
	shut bool
	held []func()
}

func (g *gateBackend) Submit(cost int, done func()) {
	g.mu.Lock()
	if g.shut {
		g.held = append(g.held, done)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	done()
}

func (g *gateBackend) set(shut bool) {
	g.mu.Lock()
	g.shut = shut
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, done := range held {
		done()
	}
}

// TestMailboxStaleCancelAfterReuse invokes a cancel handle after its
// instance retired and the pooled state went to another request: the nudge
// must find a newer generation and leave that request alone.
func TestMailboxStaleCancelAfterReuse(t *testing.T) {
	s, sources := quickstart(t)
	other := map[string]value.Value{"order_total": value.Int(120), "customer_id": value.Int(8)}
	oracle := snapshot.Complete(s, other)
	gate := &gateBackend{}
	svc := New(Config{Workers: 1, Backend: gate})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")

	// sync.Pool may drop or withhold a state (it does so deliberately under
	// -race), so retry until the second request really got the first one's.
	for attempt := 0; ; attempt++ {
		if attempt == 200 {
			t.Fatal("the pooled state was never reused")
		}
		gate.set(false)
		inA, genA, err := svc.submit(Request{Schema: s, Sources: sources, Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		svc.active.Wait() // A ran inline to completion and retired

		gate.set(true)
		done := make(chan error, 1)
		inB, _, err := svc.submit(Request{
			Schema: s, Sources: other, Strategy: st,
			Done: func(r *engine.Result) {
				if r.Err != nil {
					done <- r.Err
					return
				}
				done <- snapshot.CheckAgainstOracle(r.Snapshot, oracle)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		reused := inB == inA
		if reused {
			// B is parked on the gate. Deliver A's stale nudge and wait
			// until a worker has consumed it.
			inA.cancel(genA, errors.New("stale"))
			deadline := time.Now().Add(10 * time.Second)
			for {
				inB.mbMu.Lock()
				idle := !inB.scheduled && len(inB.mbox) == 0
				inB.mbMu.Unlock()
				if idle {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("stale nudge never consumed")
				}
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case err := <-done:
				t.Fatalf("stale nudge finished the new request early: %v", err)
			default:
			}
		}
		gate.set(false)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("reused=%v: new request disturbed: %v", reused, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("reused=%v: new request hung", reused)
		}
		if reused {
			// Once more against the retired (pooled) state: must be inert,
			// and Close (deferred) must still drain.
			svc.active.Wait()
			inA.cancel(genA, errors.New("stale"))
			return
		}
	}
}

// TestMailboxOnePushPerInlineInstance pins the count the run-to-quiescence
// design exists for: on Instant every completion is delivered inline into
// the owner's own mailbox, so each instance crosses the run queue exactly
// once however many tasks it launches.
func TestMailboxOnePushPerInlineInstance(t *testing.T) {
	qs, qsSources := quickstart(t)
	g := genPattern(t)
	for _, tc := range []struct {
		name    string
		schema  *core.Schema
		sources map[string]value.Value
	}{
		{"quickstart", qs, qsSources},
		{"pattern64", g.Schema, g.SourceValues()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{Workers: 4})
			defer svc.Close()
			const n = 2000
			var wg sync.WaitGroup
			var bad atomic.Int64
			wg.Add(n)
			for i := 0; i < n; i++ {
				err := svc.Submit(Request{
					Schema: tc.schema, Sources: tc.sources,
					Strategy: engine.MustParseStrategy("PSE100"),
					Done: func(r *engine.Result) {
						if r.Err != nil {
							bad.Add(1)
						}
						wg.Done()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			st := svc.Stats()
			if bad.Load() != 0 || st.Completed != n {
				t.Fatalf("completed=%d errors=%d, want %d clean", st.Completed, bad.Load(), n)
			}
			if st.Launched <= n {
				t.Fatalf("launched=%d: the flow must launch several tasks per instance for the count to mean anything", st.Launched)
			}
			if st.Scheduled != st.Submitted || st.Submitted != n {
				t.Fatalf("scheduled=%d submitted=%d, want both %d: inline completions re-entered the run queue",
					st.Scheduled, st.Submitted, n)
			}
		})
	}
}

// TestMailboxDoneReenters: a Done callback runs on the instance's owner
// with no lock held, so it may submit more work and invoke its own cancel
// handle — even on the service's only worker.
func TestMailboxDoneReenters(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")

	handle := make(chan func(error), 1)
	inner := make(chan error, 1)
	cancel, err := svc.SubmitCancel(Request{
		Schema: s, Sources: sources, Strategy: st,
		Done: func(*engine.Result) {
			(<-handle)(errors.New("too late"))
			if err := svc.Submit(Request{
				Schema: s, Sources: sources, Strategy: st,
				Done: func(r *engine.Result) { inner <- r.Err },
			}); err != nil {
				inner <- err
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	handle <- cancel
	select {
	case err := <-inner:
		if err != nil {
			t.Fatalf("re-entrant submit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Done re-entering the service deadlocked")
	}
}
