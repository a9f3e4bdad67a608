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
	"repro/internal/snapshot"
	"repro/internal/value"
)

// genPattern generates the Table 1 default 64-node pattern.
func genPattern(t testing.TB) *gen.Generated {
	t.Helper()
	return gen.Generate(gen.Default())
}

// --- LRU unit tests ---

func qk(args string) queryKey { return queryKey{args: args} }

func TestLRUCapacityEviction(t *testing.T) {
	var c lru
	c.init(2)
	t0 := time.Unix(0, 0)
	c.put(qk("a"), t0)
	c.put(qk("b"), t0)
	if !c.get(qk("a"), t0, 0) { // refresh a; b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put(qk("c"), t0) // evicts b
	if c.get(qk("b"), t0, 0) {
		t.Fatal("b should have been evicted as least recently used")
	}
	if !c.get(qk("a"), t0, 0) || !c.get(qk("c"), t0, 0) {
		t.Fatal("a and c should be cached")
	}
	c.put(qk("d"), t0) // evicts b's replacement victim: now a is LRU? a was refreshed after c... c then a order
	if len(c.entries) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.entries))
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	var c lru
	c.init(4)
	t0 := time.Unix(100, 0)
	c.put(qk("a"), t0)
	if !c.get(qk("a"), t0.Add(time.Second), 2*time.Second) {
		t.Fatal("entry within TTL should hit")
	}
	if c.get(qk("a"), t0.Add(3*time.Second), 2*time.Second) {
		t.Fatal("entry past TTL should miss")
	}
	// Expired entry was evicted on contact; a fresh put reuses its slot.
	c.put(qk("a"), t0.Add(4*time.Second))
	if !c.get(qk("a"), t0.Add(5*time.Second), 2*time.Second) {
		t.Fatal("refreshed entry should hit")
	}
}

func TestLRUChurn(t *testing.T) {
	var c lru
	c.init(8)
	t0 := time.Unix(0, 0)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for round := 0; round < 50; round++ {
		for _, k := range keys {
			c.put(qk(k), t0)
			c.get(qk(k), t0, 0)
		}
		if len(c.entries) > 8 {
			t.Fatalf("cache grew past capacity: %d", len(c.entries))
		}
	}
	// The 8 most recently used keys survive.
	for _, k := range keys[len(keys)-8:] {
		if !c.get(qk(k), t0, 0) {
			t.Fatalf("recently used key %q missing", k)
		}
	}
}

// --- dispatcher behavior against a live service ---

// batchCountingBackend records lone and combined round trips.
type batchCountingBackend struct {
	mu          sync.Mutex
	submits     int
	batches     int
	batchedQs   int
	peak, inUse int
	delay       time.Duration
}

// exec tracks n member queries entering and leaving the backend, so peak
// measures concurrent queries (not round trips) against the admission
// bound.
func (b *batchCountingBackend) exec(n int, done func()) {
	b.mu.Lock()
	b.inUse += n
	if b.inUse > b.peak {
		b.peak = b.inUse
	}
	b.mu.Unlock()
	time.AfterFunc(b.delay, func() {
		b.mu.Lock()
		b.inUse -= n
		b.mu.Unlock()
		done()
	})
}

func (b *batchCountingBackend) Exec(qs []Query, each func(int, error)) {
	n := len(qs)
	b.mu.Lock()
	if n == 1 {
		b.submits++
	} else {
		b.batches++
		b.batchedQs += n
	}
	b.mu.Unlock()
	b.exec(n, func() {
		for i := range n {
			each(i, nil)
		}
	})
}

// TestDedupSharesBackendRoundTrips serves many identical instances against
// a slow backend with dedup on and asserts the launch conservation
// identity: every launch is exactly one of a backend query, a dedup hit,
// or a cache hit — and far fewer backend queries than launches occur.
func TestDedupSharesBackendRoundTrips(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	be := &batchCountingBackend{delay: 2 * time.Millisecond}
	svc := New(Config{
		Backend:          be,
		MaxInFlightTasks: 1024,
		Query:            QueryConfig{Dedup: true},
	})
	defer svc.Close()

	const n = 500
	var wg sync.WaitGroup
	var bad atomic.Int64
	wg.Add(n)
	for i := 0; i < n; i++ {
		err := svc.Submit(Request{
			Schema: s, Sources: sources,
			Strategy: engine.MustParseStrategy("PSE100"),
			Done: func(r *engine.Result) {
				if r.Err != nil || snapshot.CheckAgainstOracle(r.Snapshot, oracle) != nil {
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
	if bad.Load() != 0 {
		t.Fatalf("%d instances failed or disagreed with the oracle", bad.Load())
	}
	st := svc.Stats()
	if st.Launched != st.BackendQueries+st.DedupHits+st.CacheHits {
		t.Fatalf("launch conservation violated: launched=%d backend=%d dedup=%d cache=%d",
			st.Launched, st.BackendQueries, st.DedupHits, st.CacheHits)
	}
	if st.DedupHits == 0 {
		t.Fatal("expected dedup hits with 500 identical concurrent instances on a 2ms backend")
	}
	if st.BackendQueries >= st.Launched/2 {
		t.Fatalf("dedup barely collapsed anything: %d backend queries for %d launches",
			st.BackendQueries, st.Launched)
	}
}

// TestCacheSkipsBackend asserts cache hits complete without a backend
// round trip and respect the TTL.
func TestCacheSkipsBackend(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	be := &batchCountingBackend{}
	svc := New(Config{
		Backend: be,
		Query:   QueryConfig{CacheSize: 128},
	})
	defer svc.Close()

	st0 := engine.MustParseStrategy("PSE100")
	for i := 0; i < 50; i++ {
		res, err := svc.Do(s, sources, st0)
		if err != nil || res.Err != nil {
			t.Fatalf("instance %d: %v / %v", i, err, res.Err)
		}
		if err := snapshot.CheckAgainstOracle(res.Snapshot, oracle); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.CacheHits == 0 {
		t.Fatal("expected cache hits across identical sequential instances")
	}
	// First instance misses (3 foreign tasks), the rest hit.
	if st.BackendQueries != 3 {
		t.Fatalf("backend queries = %d, want 3 (first instance only)", st.BackendQueries)
	}
	if st.Launched != st.BackendQueries+st.DedupHits+st.CacheHits {
		t.Fatalf("launch conservation violated: %+v", st)
	}
}

// TestCacheTTLExpiresEntries asserts a tiny TTL forces periodic backend
// refreshes.
func TestCacheTTLExpiresEntries(t *testing.T) {
	s, sources := quickstart(t)
	be := &batchCountingBackend{}
	svc := New(Config{
		Backend: be,
		Query:   QueryConfig{CacheSize: 128, CacheTTL: time.Millisecond},
	})
	defer svc.Close()
	st0 := engine.MustParseStrategy("PSE100")
	for i := 0; i < 5; i++ {
		if res, err := svc.Do(s, sources, st0); err != nil || res.Err != nil {
			t.Fatalf("instance %d: %v / %v", i, err, res.Err)
		}
		time.Sleep(2 * time.Millisecond) // let every entry expire
	}
	st := svc.Stats()
	if st.BackendQueries != 15 { // every instance re-queries all 3 tasks
		t.Fatalf("backend queries = %d, want 15 (TTL should expire all entries)", st.BackendQueries)
	}
}

// TestBatchSizeTrigger asserts full batches go to the backend as one
// combined round trip.
func TestBatchSizeTrigger(t *testing.T) {
	g := genPattern(t)
	be := &batchCountingBackend{delay: time.Millisecond}
	svc := New(Config{
		Backend:          be,
		MaxInFlightTasks: 4096,
		Query:            QueryConfig{BatchSize: 8, BatchWindow: 50 * time.Millisecond},
	})
	defer svc.Close()

	var wg sync.WaitGroup
	const n = 64
	wg.Add(n)
	for i := 0; i < n; i++ {
		err := svc.Submit(Request{
			Schema: g.Schema, Sources: g.SourceValues(),
			Strategy: engine.MustParseStrategy("PSE100"),
			Done:     func(*engine.Result) { wg.Done() },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.batches == 0 {
		t.Fatal("no batched round trips despite 64 concurrent instances and a 50ms window")
	}
	st := svc.Stats()
	if got := st.AvgBatchSize(); got < 2 {
		t.Fatalf("average batch size %.2f, want >= 2", got)
	}
}

// TestBatchDeadlineTrigger asserts a lone query is not held hostage by the
// size trigger: the window flushes it.
func TestBatchDeadlineTrigger(t *testing.T) {
	s, sources := quickstart(t)
	be := &batchCountingBackend{}
	svc := New(Config{
		Backend: be,
		Query:   QueryConfig{BatchSize: 1024, BatchWindow: 2 * time.Millisecond},
	})
	defer svc.Close()

	start := time.Now()
	res, err := svc.Do(s, sources, engine.MustParseStrategy("PCE0")) // serial: one query at a time
	if err != nil || res.Err != nil {
		t.Fatalf("%v / %v", err, res.Err)
	}
	elapsed := time.Since(start)
	// PCE0 on quickstart issues its foreign tasks serially; each waits one
	// window. Far below the size trigger, completion proves the deadline
	// trigger works; generous upper bound guards against a hung timer path.
	if elapsed > 3*time.Second {
		t.Fatalf("instance took %v; deadline trigger appears stuck", elapsed)
	}
	if st := svc.Stats(); st.BackendQueries == 0 {
		t.Fatal("no backend queries recorded")
	}
}

// TestVolatileTaskBypassesSharing asserts Task.Volatile launches are never
// deduplicated or cached.
func TestVolatileTaskBypassesSharing(t *testing.T) {
	var calls atomic.Int64
	s, err := core.NewBuilder("volatile").
		Source("x").
		Foreign("probe", expr.TrueExpr, []string{"x"}, 1,
			func(core.Inputs) value.Value { return value.Int(calls.Add(1)) }).
		Target("probe").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s.MustLookup("probe").Task.Volatile = true

	be := &batchCountingBackend{}
	svc := New(Config{
		Backend: be,
		Query:   QueryConfig{Dedup: true, CacheSize: 128},
	})
	defer svc.Close()
	sources := map[string]value.Value{"x": value.Int(1)}
	for i := 0; i < 20; i++ {
		if res, err := svc.Do(s, sources, engine.MustParseStrategy("PSE100")); err != nil || res.Err != nil {
			t.Fatalf("%v / %v", err, res.Err)
		}
	}
	st := svc.Stats()
	if st.CacheHits != 0 || st.DedupHits != 0 {
		t.Fatalf("volatile task was shared: cache=%d dedup=%d", st.CacheHits, st.DedupHits)
	}
	if st.BackendQueries != 20 {
		t.Fatalf("backend queries = %d, want 20 (one per instance)", st.BackendQueries)
	}
}

// TestAdmissionBoundsUniqueQueries asserts MaxInFlightTasks bounds
// concurrent backend work with the query layer enabled (batches count by
// their member queries).
func TestAdmissionBoundsUniqueQueries(t *testing.T) {
	g := genPattern(t)
	be := &batchCountingBackend{delay: 500 * time.Microsecond}
	const bound = 5
	svc := New(Config{
		Backend:          be,
		MaxInFlightTasks: bound,
		Workers:          4,
		Query:            QueryConfig{BatchSize: 4, BatchWindow: 100 * time.Microsecond},
	})
	defer svc.Close()
	var wg sync.WaitGroup
	const n = 100
	wg.Add(n)
	for i := 0; i < n; i++ {
		err := svc.Submit(Request{
			Schema: g.Schema, Sources: g.SourceValues(),
			Strategy: engine.MustParseStrategy("PSE100"),
			Done:     func(*engine.Result) { wg.Done() },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.peak > bound {
		t.Fatalf("peak in-flight backend queries %d exceeded admission bound %d", be.peak, bound)
	}
	if be.peak == 0 {
		t.Fatal("backend never saw a query")
	}
}
