package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hist"
	"repro/internal/snapshot"
)

// fakeReplica is a scripted backend: round trip n (a lone query or a
// whole sub-batch) behaves as script(n) says — a delay (negative = stall
// forever) and an error shared by every member.
type fakeReplica struct {
	mu     sync.Mutex
	n      int
	script func(n int) (time.Duration, error)
}

func (f *fakeReplica) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *fakeReplica) Exec(qs []Query, each func(int, error)) {
	f.mu.Lock()
	n := f.n
	f.n++
	f.mu.Unlock()
	d, err := f.script(n)
	members := len(qs)
	done := func() {
		for i := range members {
			each(i, err)
		}
	}
	switch {
	case d < 0: // stall: never complete
	case d == 0:
		done()
	default:
		time.AfterFunc(d, done)
	}
}

// always returns a constant script.
func always(d time.Duration, err error) func(int) (time.Duration, error) {
	return func(int) (time.Duration, error) { return d, err }
}

// submitWait drives one query through the cluster and returns the
// terminal error.
func submitWait(t *testing.T, cl *Cluster, cost int) error {
	t.Helper()
	ch := make(chan error, 1)
	cl.Exec([]Query{{Cost: cost}}, func(_ int, err error) { ch <- err })
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("cluster query never completed")
		return nil
	}
}

func TestJumpHashProperties(t *testing.T) {
	// In range and deterministic.
	for key := uint64(0); key < 1000; key++ {
		h := splitmix64(key)
		for _, n := range []int{1, 2, 3, 7, 16} {
			b := jumpHash(h, n)
			if b < 0 || b >= n {
				t.Fatalf("jumpHash(%d, %d) = %d out of range", h, n, b)
			}
			if b2 := jumpHash(h, n); b2 != b {
				t.Fatalf("jumpHash not deterministic: %d vs %d", b, b2)
			}
		}
	}
	// Consistency: growing n to n+1 only moves keys into the new bucket.
	moved, stayed := 0, 0
	for key := uint64(0); key < 4000; key++ {
		h := splitmix64(key)
		before, after := jumpHash(h, 4), jumpHash(h, 5)
		if before == after {
			stayed++
			continue
		}
		if after != 4 {
			t.Fatalf("key %d moved from %d to old bucket %d on growth", key, before, after)
		}
		moved++
	}
	// Expect ~1/5 moved.
	if moved < 4000/10 || moved > 4000*3/10 {
		t.Errorf("moved %d of 4000 keys on 4→5 growth, want ≈800", moved)
	}
	_ = stayed
	// Rough balance over 4 buckets.
	var counts [4]int
	for key := uint64(0); key < 8000; key++ {
		counts[jumpHash(splitmix64(key), 4)]++
	}
	for b, c := range counts {
		if c < 8000/4/2 || c > 8000/4*2 {
			t.Errorf("bucket %d holds %d of 8000 keys (imbalanced)", b, c)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{after: 3, cooldown: 10 * time.Millisecond}
	now := time.Now().UnixNano()
	if !b.admit(now) {
		t.Fatal("fresh breaker must admit")
	}
	b.failure(now)
	b.failure(now)
	if !b.admissible(now) {
		t.Fatal("breaker tripped before the threshold")
	}
	b.failure(now) // third consecutive: trips
	if b.admissible(now) {
		t.Fatal("breaker failed to open after 3 consecutive failures")
	}
	if got := b.trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	// Cooldown elapses: exactly one probe is admitted.
	later := now + int64(11*time.Millisecond)
	if !b.admit(later) {
		t.Fatal("breaker must admit a probe after the cooldown")
	}
	if b.admit(later) {
		t.Fatal("second probe admitted while half-open")
	}
	// Failed probe reopens without a new trip.
	b.failure(later)
	if b.admissible(later) {
		t.Fatal("failed probe must reopen the breaker")
	}
	if got := b.trips.Load(); got != 1 {
		t.Fatalf("trips after failed probe = %d, want 1", got)
	}
	// Successful probe closes.
	evenLater := later + int64(11*time.Millisecond)
	if !b.admit(evenLater) {
		t.Fatal("breaker must admit a second probe")
	}
	b.success()
	if !b.admit(evenLater) {
		t.Fatal("breaker must close after a successful probe")
	}
}

// TestLatHistQuantile reads the hedge's quantiles from the shard histogram
// in place.
func TestLatHistQuantile(t *testing.T) {
	var h hist.Hist
	if q := h.Quantile(0.95); q != 0 {
		t.Fatalf("cold histogram quantile = %v, want 0", q)
	}
	for i := 0; i < 95; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(100 * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 1*time.Millisecond || p50 > 4*time.Millisecond {
		t.Errorf("p50 = %v, want ≈1ms (its bucket's top)", p50)
	}
	if p99 < 100*time.Millisecond || p99 > 400*time.Millisecond {
		t.Errorf("p99 = %v, want 100ms (clamped to the max)", p99)
	}
	if p99 <= p50 {
		t.Errorf("p99 %v ≤ p50 %v", p99, p50)
	}
}

// TestClusterRetryMasksReplicaFailure: replica 0 always errors, replica 1
// always succeeds; with one retry the query must succeed no matter which
// replica is tried first.
func TestClusterRetryMasksReplicaFailure(t *testing.T) {
	boom := errors.New("boom")
	reps := [2]*fakeReplica{
		{script: always(0, boom)},
		{script: always(0, nil)},
	}
	cl := NewCluster(ClusterConfig{
		Shards: 1, Replicas: 2, Retries: 1,
		New: func(s, r int) Backend { return reps[r] },
	})
	for i := 0; i < 50; i++ {
		if err := submitWait(t, cl, 1); err != nil {
			t.Fatalf("query %d surfaced %v despite a healthy replica", i, err)
		}
	}
	st := cl.ClusterStats()
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
	if st.Errors == 0 || st.Retries == 0 {
		t.Fatalf("expected error+retry traffic, got %+v", st)
	}
	// The breaker must eventually shield replica 0: far fewer than half of
	// all attempts land on it once it trips.
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped on the always-failing replica: %+v", st)
	}
}

// TestClusterTerminalFailure: every replica fails; the error surfaces
// after the retry budget.
func TestClusterTerminalFailure(t *testing.T) {
	boom := errors.New("boom")
	cl := NewCluster(ClusterConfig{
		Shards: 2, Replicas: 2, Retries: 2,
		New: func(s, r int) Backend { return &fakeReplica{script: always(0, boom)} },
	})
	if err := submitWait(t, cl, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	st := cl.ClusterStats()
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (the full budget)", st.Retries)
	}
}

// TestClusterDeadlineRetriesStalledReplica: a stalled replica is abandoned
// at the deadline and the retry lands on the healthy one.
func TestClusterDeadlineRetriesStalledReplica(t *testing.T) {
	reps := [2]*fakeReplica{
		{script: always(-1, nil)}, // stalls forever
		{script: always(time.Millisecond, nil)},
	}
	cl := NewCluster(ClusterConfig{
		Shards: 1, Replicas: 2, Retries: 2,
		Deadline: 20 * time.Millisecond,
		New:      func(s, r int) Backend { return reps[r] },
	})
	for i := 0; i < 8; i++ {
		if err := submitWait(t, cl, 1); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	st := cl.ClusterStats()
	if reps[0].calls() > 0 && st.Timeouts == 0 {
		t.Fatalf("stalled replica was tried but no timeout recorded: %+v", st)
	}
}

// TestClusterBreakerIsolatesDegradedReplica: replica 0 is alive but
// always answers far past the deadline. Its timeouts must trip the
// breaker, and its late successes must NOT re-close it — otherwise a
// slow-but-alive replica keeps full traffic share and every query routed
// to it burns a deadline + retry forever.
func TestClusterBreakerIsolatesDegradedReplica(t *testing.T) {
	reps := [2]*fakeReplica{
		{script: always(80*time.Millisecond, nil)}, // alive, far past deadline
		{script: always(time.Millisecond, nil)},
	}
	// The deadline must dominate scheduler stalls, not just the healthy
	// replica's 1ms: a coverage-instrumented run on a throttled 1-core
	// host can stall a timer past 5ms, making the *healthy* attempt time
	// out and the query fail spuriously. 10ms keeps 8x headroom on the
	// healthy side while staying 8x under the degraded replica's 80ms.
	cl := NewCluster(ClusterConfig{
		Shards: 1, Replicas: 2, Retries: 2,
		Deadline:   10 * time.Millisecond,
		BreakAfter: 3, BreakCooldown: time.Minute, // no probes within the test
		New: func(s, r int) Backend { return reps[r] },
	})
	// The degraded replica holds one attempt in flight for 80ms, and the
	// selector avoids it meanwhile, so a burst of 1ms queries can end before
	// it has timed out BreakAfter times: keep querying for several of its
	// answer times, not for a query count alone.
	start := time.Now()
	for i := 0; i < 40 || time.Since(start) < 400*time.Millisecond; i++ {
		if err := submitWait(t, cl, 1); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	st := cl.ClusterStats()
	if st.Replica[0][0].BreakerTrips == 0 {
		t.Fatalf("degraded replica never tripped its breaker: %+v", st.Replica[0][0])
	}
	// Once tripped (cooldown ≫ test), the degraded replica must stop
	// receiving traffic: a handful of pre-trip attempts, nothing after.
	if q := st.Replica[0][0].Queries; q > 10 {
		t.Fatalf("breaker failed to shield the degraded replica: %d queries reached it", q)
	}
}

// TestClusterHedgeWinsOverSlowReplica: a hedge must cut a slow primary,
// on two inputs.
func TestClusterHedgeWinsOverSlowReplica(t *testing.T) {
	// The first attempt is slow, the hedge is fast: the hedge must win and
	// cut the observed latency.
	t.Run("slow first attempt", func(t *testing.T) {
		var first atomic.Int64
		slowThenFast := func(rep int) func(int) (time.Duration, error) {
			return func(int) (time.Duration, error) {
				if first.CompareAndSwap(0, int64(rep)+1) {
					return 300 * time.Millisecond, nil // primary: slow
				}
				return time.Millisecond, nil // hedge: fast
			}
		}
		reps := [2]*fakeReplica{}
		for r := range reps {
			reps[r] = &fakeReplica{script: slowThenFast(r)}
		}
		cl := NewCluster(ClusterConfig{
			Shards: 1, Replicas: 2,
			HedgeDelay: 10 * time.Millisecond,
			New:        func(s, r int) Backend { return reps[r] },
		})
		start := time.Now()
		if err := submitWait(t, cl, 1); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed > 150*time.Millisecond {
			t.Fatalf("hedged query took %v, want well under the 300ms primary", elapsed)
		}
		st := cl.ClusterStats()
		if st.Hedges != 1 || st.HedgeWins != 1 {
			t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
		}
	})

	// One replica of the shard always takes 1s, the other 1ms — the slow
	// machine that BenchmarkServeCluster{Unhedged,Hedged} time. Every query
	// whose primary lands on the slow replica must be won by its hedge.
	// HedgeWins may exceed that count: on a loaded box a 1ms primary can
	// pass the 5ms hedge delay, hedge onto the slow replica and still win
	// itself, so Hedges == HedgeWins is not asserted. A slow primary holds
	// one attempt in flight on the slow replica for a second, so the
	// selector steers every later primary to the fast one: at most a few
	// primaries may land on the slow replica.
	t.Run("skewed replica", func(t *testing.T) {
		reps := [2]*fakeReplica{
			{script: always(time.Millisecond, nil)},
			{script: always(time.Second, nil)},
		}
		cl := NewCluster(ClusterConfig{
			Shards: 1, Replicas: 2,
			HedgeDelay: 5 * time.Millisecond,
			New:        func(s, r int) Backend { return reps[r] },
		})
		slowPrimaries := 0
		for i := range 64 {
			fast, slow := reps[0].calls(), reps[1].calls()
			start := time.Now()
			done := make(chan error, 1)
			cl.Exec([]Query{{Cost: 1}}, func(_ int, err error) { done <- err })
			// Exec hands the primary to its replica before it returns; a
			// hedge comes from a timer. A query counts only if the slow
			// replica alone has seen it here: if its hedge has fired too,
			// which attempt went first is unknown.
			if reps[1].calls() > slow && reps[0].calls() == fast {
				slowPrimaries++
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("query %d never completed", i)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("query %d took %v, want well under the 1s replica", i, elapsed)
			}
		}
		st := cl.ClusterStats()
		t.Logf("%d slow primaries, hedges=%d wins=%d", slowPrimaries, st.Hedges, st.HedgeWins)
		if slowPrimaries == 0 {
			t.Fatal("no primary landed on the slow replica")
		}
		if slowPrimaries > 4 {
			t.Fatalf("%d of 64 primaries landed on the slow replica, want ≤ 4", slowPrimaries)
		}
		if st.HedgeWins < uint64(slowPrimaries) {
			t.Fatalf("wins=%d, want ≥ %d (one per slow primary)", st.HedgeWins, slowPrimaries)
		}
	})
}

// TestClusterExecFansOutPerShard: members group by hash; each member's
// callback fires exactly once.
func TestClusterExecFansOutPerShard(t *testing.T) {
	var subs atomic.Int64
	cl := NewCluster(ClusterConfig{
		Shards: 4, Replicas: 1,
		New: func(s, r int) Backend {
			return &fakeReplica{script: func(int) (time.Duration, error) {
				subs.Add(1)
				return 0, nil
			}}
		},
	})
	const n = 64
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Hash: splitmix64(uint64(i)), Cost: 1}
	}
	var wg sync.WaitGroup
	wg.Add(n)
	var fired [n]atomic.Int64
	cl.Exec(qs, func(i int, err error) {
		if err != nil {
			t.Errorf("member %d: %v", i, err)
		}
		fired[i].Add(1)
		wg.Done()
	})
	wg.Wait()
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Fatalf("member %d fired %d times", i, got)
		}
	}
	// 64 members over 4 shards must coalesce into ≤4 sub-batches (one
	// replica submission per non-empty shard group).
	if got := subs.Load(); got > 4 {
		t.Fatalf("replica submissions = %d, want ≤ 4 (per-shard sub-batches)", got)
	}
	if got := cl.ClusterStats().SubBatches; got == 0 || got > 4 {
		t.Fatalf("SubBatches = %d, want 1–4", got)
	}
}

// TestBatchingOnlyLayerKeepsConsistentPlacement: with a batching-only
// query layer (no dedup, no cache) over a cluster, launches must still
// render their sharing identity so placement stays consistent — the
// quickstart flow has exactly three query identities, so traffic must
// land on at most three shards, never spread sequence-style over all.
func TestBatchingOnlyLayerKeepsConsistentPlacement(t *testing.T) {
	s, sources := quickstart(t)
	cl := NewCluster(ClusterConfig{
		Shards: 8, Replicas: 1,
		New: func(int, int) Backend { return &fakeReplica{script: always(0, nil)} },
	})
	svc := New(Config{
		Backend: cl,
		Workers: 2,
		Query:   QueryConfig{BatchSize: 4, BatchWindow: 50 * time.Microsecond},
	})
	defer svc.Close()
	for i := 0; i < 100; i++ {
		if _, err := svc.Do(s, sources, engine.MustParseStrategy("PSE100")); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, row := range cl.ClusterStats().Replica {
		if row[0].Queries > 0 {
			busy++
		}
	}
	if busy > 3 {
		t.Fatalf("3 query identities spread over %d shards — identity routing lost under batching-only layer", busy)
	}
}

// TestServiceOnClusterMatchesOracle serves the quickstart flow on a
// 3-shard × 2-replica Instant cluster, with and without the query layer,
// checking terminal snapshots and stats wiring.
func TestServiceOnClusterMatchesOracle(t *testing.T) {
	s, sources := quickstart(t)
	oracle := snapshot.Complete(s, sources)
	for _, query := range []QueryConfig{{}, {BatchSize: 4, BatchWindow: 20 * time.Microsecond, Dedup: true, CacheSize: 128}} {
		cl := NewCluster(ClusterConfig{
			Shards: 3, Replicas: 2, Retries: 1,
			New: func(int, int) Backend { return Instant{} },
		})
		svc := New(Config{Backend: cl, Workers: 2, Query: query})
		for _, code := range []string{"PSE100", "PCE0", "NSE60"} {
			res, err := svc.Do(s, sources, engine.MustParseStrategy(code))
			if err != nil || res.Err != nil {
				t.Fatalf("%s: %v / %v", code, err, res.Err)
			}
			if err := snapshot.CheckAgainstOracle(res.Snapshot, oracle); err != nil {
				t.Fatalf("%s: oracle mismatch: %v", code, err)
			}
		}
		st := svc.Stats()
		if st.Cluster == nil || st.Cluster.Shards != 3 || st.Cluster.Replicas != 2 {
			t.Fatalf("cluster stats not wired: %+v", st.Cluster)
		}
		if st.FailedQueries != 0 {
			t.Fatalf("failed queries on healthy cluster: %d", st.FailedQueries)
		}
		svc.Close()
	}
}
