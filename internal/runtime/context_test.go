package runtime

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestDoContextCompletes: an uncancelled context behaves exactly like Do.
func TestDoContextCompletes(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{})
	defer svc.Close()
	res, err := svc.DoContext(context.Background(), s, sources, engine.MustParseStrategy("PSE100"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("unexpected instance error: %v", res.Err)
	}
	got := res.Snapshot.Val(s.MustLookup("upgrade").ID())
	if sv, _ := got.AsString(); sv != "free 2-day shipping" {
		t.Fatalf("upgrade = %v, want free 2-day shipping", got)
	}
}

// TestDoContextCancelPrompt: an instance idling on a slow backend aborts
// promptly when the context is canceled — well before the backend query
// would have completed — and its result carries the cancellation.
func TestDoContextCancelPrompt(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Backend: &Latency{Base: 500 * time.Millisecond}})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	res, err := svc.DoContext(ctx, s, sources, engine.MustParseStrategy("PSE100"))
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 250*time.Millisecond {
		t.Fatalf("DoContext took %v; cancellation was not prompt", waited)
	}
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Result.Err = %v, want wrapped context.Canceled", res.Err)
	}
	// The aborted instance's launched-but-unfinished work is sealed as
	// waste, not lost.
	if res.Work == 0 || res.WastedWork != res.Work {
		t.Fatalf("abort accounting: work=%d wasted=%d, want equal and nonzero", res.Work, res.WastedWork)
	}
}

// TestDoContextPreCanceled: a context canceled before submission still
// yields a completed (aborted) instance, not a hang or panic.
func TestDoContextPreCanceled(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{})
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := svc.DoContext(ctx, s, sources, engine.MustParseStrategy("PSE100"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Result.Err = %v, want wrapped context.Canceled", res.Err)
	}
}

// TestRunLoadContextCancel: canceling mid-run stops the generator, drains
// in-flight instances, and reports the partial run with ctx.Err().
func TestRunLoadContextCancel(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Backend: &Latency{Base: 500 * time.Microsecond}})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	rep, err := RunLoadContext(ctx, svc, Load{
		Schema: s, Sources: sources,
		Strategy:    engine.MustParseStrategy("PSE100"),
		Count:       1 << 30, // would run ~forever without the cancel
		Concurrency: 64,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Stats.Completed == 0 {
		t.Fatal("no instances completed before the cancel")
	}
	// After RunLoadContext returns, the service has fully drained: a fresh
	// run must observe a quiet service.
	svc.ResetStats()
	if st := svc.Stats(); st.Completed != 0 {
		t.Fatalf("stragglers completed after RunLoadContext returned: %+v", st)
	}
}

// TestRunLoadContextCancelOpen covers the open-loop generator's cancel
// path (the cancel interrupts the wait for the next arrival).
func TestRunLoadContextCancelOpen(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	rep, err := RunLoadContext(ctx, svc, Load{
		Schema: s, Sources: sources,
		Strategy: engine.MustParseStrategy("PSE100"),
		Count:    1 << 30,
		Rate:     1000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Stats.Completed == 0 {
		t.Fatal("no instances completed before the cancel")
	}
}

// TestRunLoadStopsOnClose: closing the service mid-run stops either loop
// — neither paces nor claims out the rest of an hours-long load against a
// closed service — and RunLoad returns ErrClosed.
func TestRunLoadStopsOnClose(t *testing.T) {
	s, sources := quickstart(t)
	for _, rate := range []float64{1000, 0} {
		svc := New(Config{})
		time.AfterFunc(30*time.Millisecond, svc.Close)
		_, err := RunLoad(svc, Load{
			Schema: s, Sources: sources,
			Strategy: engine.MustParseStrategy("PSE100"),
			Count:    1 << 30,
			Rate:     rate,
		})
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("rate %v: err = %v, want ErrClosed", rate, err)
		}
	}
}

// TestTenantStats: instances tagged with tenants aggregate into
// Stats.Tenants; untagged ones only into the aggregate.
func TestTenantStats(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{})
	defer svc.Close()

	st := engine.MustParseStrategy("PSE100")
	var wg sync.WaitGroup
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			if err := svc.Submit(Request{
				Schema: s, Sources: sources, Strategy: st, Tenant: tenant,
				Done: func(*engine.Result) { wg.Done() },
			}); err != nil {
				t.Error(err)
				wg.Done()
			}
		}
	}
	submit("alpha", 30)
	submit("beta", 20)
	submit("", 10)
	wg.Wait()

	stats := svc.Stats()
	if stats.Completed != 60 {
		t.Fatalf("Completed = %d, want 60", stats.Completed)
	}
	if got := stats.Tenants["alpha"].Completed; got != 30 {
		t.Fatalf("alpha completed = %d, want 30", got)
	}
	if got := stats.Tenants["beta"].Completed; got != 20 {
		t.Fatalf("beta completed = %d, want 20", got)
	}
	if _, ok := stats.Tenants[""]; ok {
		t.Fatal("empty tenant must not be tracked")
	}
	if stats.Tenants["alpha"].P99 <= 0 || stats.Tenants["alpha"].Max <= 0 {
		t.Fatalf("alpha latency summary empty: %+v", stats.Tenants["alpha"])
	}
	svc.ResetStats()
	if st := svc.Stats(); len(st.Tenants) != 0 {
		t.Fatalf("ResetStats kept tenants: %+v", st.Tenants)
	}
}

// TestLatencyMemoryFixed: a stats shard's percentile memory is a
// fixed-size histogram — no slice, map or pointer anywhere in it, so it
// cannot grow with the sample count — while counters keep counting
// everything.
func TestLatencyMemoryFixed(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")
	for i := 0; i < 100; i++ {
		if _, err := svc.Do(s, sources, st); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.Stats()
	if stats.Completed != 100 {
		t.Fatalf("Completed = %d, want 100", stats.Completed)
	}
	if stats.P99 <= 0 {
		t.Fatal("percentiles empty")
	}
	var grows func(reflect.Type) bool
	grows = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Chan, reflect.String:
			return true
		case reflect.Array:
			return grows(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if grows(typ.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	lat, _ := reflect.TypeFor[shard]().FieldByName("lat")
	for _, typ := range []reflect.Type{lat.Type, reflect.TypeFor[tenantCell]()} {
		if grows(typ) {
			t.Fatalf("%v can grow with the sample count", typ)
		}
	}
}

// TestCloseDrainsAcceptedInstances pins the Close drain contract: Close
// after Submit completes every accepted instance (each Done callback fires
// before Close returns), later Submits fail with ErrClosed — a typed
// error, not a panic — and Close is idempotent under concurrency.
func TestCloseDrainsAcceptedInstances(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Backend: &Latency{Base: 50 * time.Microsecond}})
	st := engine.MustParseStrategy("PSE100")

	var accepted, completed, rejected atomic.Int64
	var submitters sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 2000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := svc.Submit(Request{
					Schema: s, Sources: sources, Strategy: st,
					Done: func(*engine.Result) { completed.Add(1) },
				})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
					return
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	// Race Close against the submitters; every accepted instance must have
	// completed by the time Close returns.
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() { defer closers.Done(); svc.Close() }()
	}
	closers.Wait()
	close(stop)
	submitters.Wait()

	if a, c := accepted.Load(), completed.Load(); a != c {
		t.Fatalf("accepted %d != completed %d after Close", a, c)
	}
	if accepted.Load() == 0 {
		t.Fatal("test raced trivially: nothing accepted")
	}
	if err := svc.Submit(Request{Schema: s, Sources: sources, Strategy: st}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := svc.Do(s, sources, st); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if _, err := svc.DoContext(context.Background(), s, sources, st); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoContext after Close = %v, want ErrClosed", err)
	}
	if _, err := RunLoad(svc, Load{Schema: s, Sources: sources, Strategy: st, Count: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunLoad after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitCancelWithoutCtx: the cancel handle must abort promptly even
// when the request carries no Ctx — including when the cancel nudge is
// posted before any worker has begun the instance (it sits behind begin in
// the instance's mailbox rather than being dropped).
func TestSubmitCancelWithoutCtx(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Workers: 4, Backend: &Latency{Base: 200 * time.Millisecond}})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")

	cause := errors.New("caller gave up")
	for i := 0; i < 200; i++ {
		done := make(chan *engine.Result, 1)
		h, err := svc.SubmitCancel(Request{
			Schema: s, Sources: sources, Strategy: st,
			Done: func(r *engine.Result) {
				out := *r
				out.Snapshot = nil
				done <- &out
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.Cancel(cause) // immediately: before the begin has run, on purpose
		select {
		case res := <-done:
			if res.Err == nil || !errors.Is(res.Err, cause) {
				t.Fatalf("iteration %d: Result.Err = %v, want wrapped cause", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: cancel was lost; instance still running", i)
		}
	}
}

// TestDoContextCancelStress races many cancellations against completions
// and instance-pool reuse; run with -race this exercises the generation
// guard on cancel nudges, and the run-queue and parked-flight stamps that
// QueueDelay reads meanwhile.
func TestDoContextCancelStress(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Backend: &Latency{Base: 100 * time.Microsecond}})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%7)*50*time.Microsecond)
				res, err := svc.DoContext(ctx, s, sources, st)
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				if res.Err != nil && !errors.Is(res.Err, context.DeadlineExceeded) {
					t.Errorf("unexpected instance error: %v", res.Err)
					return
				}
			}
		}(g)
	}
	stop, reader := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := svc.QueueDelay(); d < 0 || d > time.Minute {
				t.Errorf("queueing delay %v", d)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-reader
}
