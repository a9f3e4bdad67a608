package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/simdb"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// quickstart builds the five-attribute shipping-upgrade flow of the
// package quick start (examples/quickstart).
func quickstart(t testing.TB) (*core.Schema, map[string]value.Value) {
	t.Helper()
	s, err := core.NewBuilder("shipping-upgrade").
		Source("order_total").
		Source("customer_id").
		Foreign("tier", expr.TrueExpr, []string{"customer_id"}, 2,
			func(in core.Inputs) value.Value {
				if id, ok := in.Get("customer_id").AsInt(); ok && id%2 == 1 {
					return value.Str("gold")
				}
				return value.Str("standard")
			}).
		Foreign("warehouse_load", expr.MustParse("order_total > 50"), nil, 3,
			core.ConstCompute(value.Int(40))).
		SynthesisExpr("score", expr.TrueExpr,
			expr.MustParse(`order_total / 10 + coalesce(warehouse_load, 100) / -2`)).
		Foreign("upgrade", expr.MustParse(`score > -10 and tier == "gold"`), []string{"tier", "score"}, 1,
			core.ConstCompute(value.Str("free 2-day shipping"))).
		Target("upgrade").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]value.Value{
		"order_total": value.Int(120),
		"customer_id": value.Int(7),
	}
	return s, sources
}

// TestServiceDoMatchesOracle serves the quickstart flow under every
// strategy shape and checks each terminal snapshot against the
// declarative oracle and against the virtual-time engine's answer.
func TestServiceDoMatchesOracle(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	svc := New(Config{Workers: 4})
	defer svc.Close()
	for _, code := range []string{"PSE100", "PCE0", "NCC0", "PSC40", "NSE60", "PCE100"} {
		st := engine.MustParseStrategy(code)
		res, err := svc.Do(s, sources, st)
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: instance error: %v", code, res.Err)
		}
		if !res.Snapshot.Terminal() {
			t.Fatalf("%s: snapshot not terminal", code)
		}
		if err := snapshot.CheckAgainstOracle(res.Snapshot, oracle); err != nil {
			t.Fatalf("%s: oracle mismatch: %v", code, err)
		}
		sim := engine.Run(s, sources, st)
		if got, want := res.Work, sim.Work; got != want {
			t.Errorf("%s: wall-clock Work %d != virtual-time Work %d", code, got, want)
		}
	}
}

// TestSoakConcurrentInstances is the -race soak: well over 1000 instances
// in flight at once, across mixed strategies and two schemas, against a
// latency-injecting backend. Every instance must reach a terminal
// snapshot agreeing with its oracle, and the service's aggregate Work
// must equal the per-instance sum exactly — no lost or double-counted
// work anywhere in the concurrent path.
func TestSoakConcurrentInstances(t *testing.T) {
	qs, qsSources := quickstart(t)
	g := gen.Generate(gen.Default())
	type class struct {
		schema  *core.Schema
		sources map[string]value.Value
		oracle  *snapshot.Snapshot
	}
	classes := []class{
		{qs, qsSources, snapshot.Complete(qs, qsSources)},
		{g.Schema, g.SourceValues(), snapshot.Complete(g.Schema, g.SourceValues())},
	}
	strategies := engine.Strategies("PSE100", "PCE0", "NCC0", "PSC40", "NSE60", "PCE100")

	const n = 2000
	svc := New(Config{
		Backend:          &Latency{Base: 100 * time.Microsecond, PerUnit: 10 * time.Microsecond, Jitter: 0.5},
		MaxInFlightTasks: 4096,
	})
	defer svc.Close()

	var (
		wg         sync.WaitGroup
		inFlight   atomic.Int64
		maxFlight  atomic.Int64
		completed  atomic.Int64
		sumWork    atomic.Int64
		sumWasted  atomic.Int64
		sumLaunch  atomic.Int64
		sumSynth   atomic.Int64
		oracleErrs atomic.Int64
		instErrs   atomic.Int64
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		cl := classes[i%len(classes)]
		if err := svc.Submit(Request{
			Schema:   cl.schema,
			Sources:  cl.sources,
			Strategy: strategies[i%len(strategies)],
			Done: func(r *engine.Result) {
				defer wg.Done()
				defer inFlight.Add(-1)
				completed.Add(1)
				if r.Err != nil {
					instErrs.Add(1)
					return
				}
				if !r.Snapshot.Terminal() {
					instErrs.Add(1)
					return
				}
				if err := snapshot.CheckAgainstOracle(r.Snapshot, cl.oracle); err != nil {
					oracleErrs.Add(1)
					return
				}
				sumWork.Add(int64(r.Work))
				sumWasted.Add(int64(r.WastedWork))
				sumLaunch.Add(int64(r.Launched))
				sumSynth.Add(int64(r.SynthesisRuns))
			},
		}); err != nil {
			t.Fatal(err)
		}
		if f := inFlight.Add(1); f > maxFlight.Load() {
			maxFlight.Store(f)
		}
	}
	wg.Wait()

	if got := completed.Load(); got != n {
		t.Fatalf("completed %d instances, want %d", got, n)
	}
	if e := instErrs.Load(); e != 0 {
		t.Fatalf("%d instances failed to reach a clean terminal snapshot", e)
	}
	if e := oracleErrs.Load(); e != 0 {
		t.Fatalf("%d instances disagreed with the oracle", e)
	}
	if m := maxFlight.Load(); m < 1000 {
		t.Errorf("peak concurrent instances = %d, want >= 1000 (soak did not overlap)", m)
	}
	st := svc.Stats()
	if st.Completed != n {
		t.Errorf("stats completed = %d, want %d", st.Completed, n)
	}
	if st.Work != uint64(sumWork.Load()) {
		t.Errorf("aggregate Work %d != per-instance sum %d (lost or double-counted)", st.Work, sumWork.Load())
	}
	if st.WastedWork != uint64(sumWasted.Load()) {
		t.Errorf("aggregate WastedWork %d != per-instance sum %d", st.WastedWork, sumWasted.Load())
	}
	if st.Launched != uint64(sumLaunch.Load()) {
		t.Errorf("aggregate Launched %d != per-instance sum %d", st.Launched, sumLaunch.Load())
	}
	if st.SynthesisRuns != uint64(sumSynth.Load()) {
		t.Errorf("aggregate SynthesisRuns %d != per-instance sum %d", st.SynthesisRuns, sumSynth.Load())
	}
	if st.WastedWork > st.Work {
		t.Errorf("WastedWork %d > Work %d", st.WastedWork, st.Work)
	}
}

// countingBackend records the peak number of concurrently executing
// queries and the total it executed.
type countingBackend struct {
	mu      sync.Mutex
	current int
	peak    int
	total   int
}

func (c *countingBackend) Exec(qs []Query, each func(int, error)) {
	n := len(qs)
	c.mu.Lock()
	c.total += n
	c.current += n
	if c.current > c.peak {
		c.peak = c.current
	}
	c.mu.Unlock()
	time.AfterFunc(50*time.Microsecond, func() {
		c.mu.Lock()
		c.current -= n
		c.mu.Unlock()
		for i := range n {
			each(i, nil)
		}
	})
}

// TestGlobalAdmissionBound asserts the service never exceeds
// MaxInFlightTasks database tasks across all instances.
func TestGlobalAdmissionBound(t *testing.T) {
	g := gen.Generate(gen.Default())
	cb := &countingBackend{}
	const bound = 7
	svc := New(Config{Backend: cb, MaxInFlightTasks: bound, Workers: 8})
	defer svc.Close()

	var wg sync.WaitGroup
	const n = 200
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := svc.Submit(Request{
			Schema:   g.Schema,
			Sources:  g.SourceValues(),
			Strategy: engine.MustParseStrategy("PSE100"),
			Done:     func(*engine.Result) { wg.Done() },
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if cb.peak > bound {
		t.Fatalf("peak in-flight tasks %d exceeded admission bound %d", cb.peak, bound)
	}
	if cb.peak == 0 {
		t.Fatal("backend never saw a task")
	}
}

// TestZeroConfigCountsFromBackend checks the query-layer counters against
// the backend's own count, on the Table 1 pattern and on quickstart, with
// every other instance a shadow one: its queries reach the backend like any
// other. Once drained, BackendQueries equals the queries the backend
// executed and Launched + ShadowLaunched == BackendQueries + DedupHits +
// CacheHits, both on the zero config — which derives BackendQueries, Batches
// and CutSize instead of counting per launch (see Stats) — and with Dedup
// and a cache.
func TestZeroConfigCountsFromBackend(t *testing.T) {
	g := gen.Generate(gen.Default())
	qs, qsSources := quickstart(t)
	for _, tc := range []struct {
		name    string
		schema  *core.Schema
		sources map[string]value.Value
	}{
		{"pattern", g.Schema, g.SourceValues()},
		{"quickstart", qs, qsSources},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, qc := range []struct {
				name  string
				query QueryConfig
			}{
				{"zero", QueryConfig{}},
				{"shared", QueryConfig{Dedup: true, CacheSize: 64}},
			} {
				t.Run(qc.name, func(t *testing.T) {
					cb := &countingBackend{}
					svc := New(Config{Backend: cb, Query: qc.query})
					const n = 100
					for i := range n {
						if err := svc.Submit(Request{Schema: tc.schema, Sources: tc.sources,
							Strategy: engine.MustParseStrategy("PSE100"), Shadow: i%2 == 1}); err != nil {
							t.Fatal(err)
						}
					}
					svc.Close() // drained: every launch has reached the backend and come back
					st := svc.Stats()
					cb.mu.Lock()
					total := uint64(cb.total)
					cb.mu.Unlock()
					if st.Completed != n/2 || st.ShadowCompleted != n/2 || total == 0 || st.ShadowLaunched == 0 {
						t.Fatalf("completed %d live and %d shadow of %d instances (%d shadow launches), backend executed %d queries",
							st.Completed, st.ShadowCompleted, n, st.ShadowLaunched, total)
					}
					if st.BackendQueries != total || st.Launched+st.ShadowLaunched != st.BackendQueries+st.DedupHits+st.CacheHits {
						t.Fatalf("backend executed %d queries; stats launched=%d shadow-launched=%d backend=%d dedup=%d cache=%d",
							total, st.Launched, st.ShadowLaunched, st.BackendQueries, st.DedupHits, st.CacheHits)
					}
					if qc.query == (QueryConfig{}) && (st.Batches != total || st.CutSize != total) {
						t.Fatalf("backend executed %d queries; stats batches=%d cut-size=%d", total, st.Batches, st.CutSize)
					}
				})
			}
		})
	}
}

// TestPacedSimBackend serves against the paced simulated CPU/disk server
// (time compressed 100×) and checks that contention statistics accumulate.
func TestPacedSimBackend(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	backend := NewPacedSim(simdb.DefaultParams(), 42, 0.01)
	defer backend.Stop()
	svc := New(Config{Backend: backend})
	defer svc.Close()

	var wg sync.WaitGroup
	var bad atomic.Int64
	const n = 100
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := svc.Submit(Request{
			Schema:   s,
			Sources:  sources,
			Strategy: engine.MustParseStrategy("PSE100"),
			Done: func(r *engine.Result) {
				defer wg.Done()
				if r.Err != nil || snapshot.CheckAgainstOracle(r.Snapshot, oracle) != nil {
					bad.Add(1)
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d instances failed against the paced sim backend", bad.Load())
	}
	_, unitTime, queries := backend.Stats()
	if queries == 0 {
		t.Fatal("paced sim served no queries")
	}
	if unitTime <= 0 {
		t.Fatalf("paced sim unit time = %v, want > 0", unitTime)
	}
}

// TestRunLoadOpenAndClosed exercises both load-generation modes and the
// report plumbing.
func TestRunLoadOpenAndClosed(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{})
	defer svc.Close()

	open, err := RunLoad(svc, Load{
		Schema: s, Sources: sources,
		Strategy: engine.MustParseStrategy("PSE100"),
		Count:    500, Rate: 50000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Stats.Completed != 500 || open.Stats.Errors != 0 {
		t.Fatalf("open load: %+v", open.Stats)
	}
	if open.Stats.P50 <= 0 || open.Stats.Max < open.Stats.P99 {
		t.Fatalf("open load percentiles inconsistent: %+v", open.Stats)
	}

	closed, err := RunLoad(svc, Load{
		Schema: s, Sources: sources,
		Strategy: engine.MustParseStrategy("PCE0"),
		Count:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Stats.Completed != 500 || closed.Stats.Errors != 0 {
		t.Fatalf("closed load: %+v", closed.Stats)
	}
	if closed.Throughput <= 0 {
		t.Fatalf("closed load throughput = %v", closed.Throughput)
	}
}

// TestCloseDrains asserts Close waits for callbacks and then rejects
// submissions.
func TestCloseDrains(t *testing.T) {
	s, sources := quickstart(t)
	svc := New(Config{Backend: &Latency{Base: 200 * time.Microsecond}})
	var completed atomic.Int64
	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := svc.Submit(Request{
			Schema: s, Sources: sources,
			Strategy: engine.MustParseStrategy("PSE100"),
			Done:     func(*engine.Result) { completed.Add(1); wg.Done() },
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	svc.Close()
	if completed.Load() != n {
		t.Fatalf("Close returned with %d/%d instances completed", completed.Load(), n)
	}
	if err := svc.Submit(Request{Schema: s, Sources: sources}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestSourceSlotsSubmit checks the dense slot-buffer request path (the
// zero-copy entry the binary wire front end uses): a request carrying
// SourceSlots must produce exactly the snapshot the map-keyed path does,
// and a short or over-long slot buffer must behave as documented.
func TestSourceSlotsSubmit(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	svc := New(Config{Workers: 4})
	defer svc.Close()

	slots := make([]value.Value, s.NumAttrs())
	for _, id := range s.Sources() {
		slots[id] = sources[s.Attr(id).Name]
	}

	done := make(chan error, 1)
	err := svc.Submit(Request{
		Schema:      s,
		SourceSlots: slots,
		Strategy:    engine.MustParseStrategy("PSE100"),
		Done: func(res *engine.Result) {
			done <- snapshot.CheckAgainstOracle(res.Snapshot, oracle)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot path disagrees with oracle: %v", err)
	}

	// A short buffer leaves the remaining sources ⟂ — same as omitting
	// them from the map.
	short := svc
	res, err := short.Do(s, map[string]value.Value{"order_total": value.Int(120)},
		engine.MustParseStrategy("PSE100"))
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan *snapshot.Snapshot, 1)
	if err := svc.Submit(Request{
		Schema:      s,
		SourceSlots: slots[:1], // only order_total (AttrID 0)
		Strategy:    engine.MustParseStrategy("PSE100"),
		Done:        func(r *engine.Result) { done2 <- r.Snapshot.Clone() },
	}); err != nil {
		t.Fatal(err)
	}
	sn := <-done2
	for _, id := range s.Targets() {
		if !value.Identical(sn.Val(id), res.Snapshot.Val(id)) {
			t.Fatalf("short slot buffer target %q = %v, map path got %v",
				s.Attr(id).Name, sn.Val(id), res.Snapshot.Val(id))
		}
	}
}
