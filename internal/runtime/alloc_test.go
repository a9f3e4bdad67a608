package runtime

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// Allocation pins: one quickstart instance end to end through Service —
// submit, every launch and completion, finalize, retire — counted with
// testing.AllocsPerRun instead of timed. A change that adds a steady-state
// allocation to one of these paths fails here rather than hiding in a
// benchmark's run-to-run noise.

// instanceAllocs serves warm-up instances on cfg, then reports the mean
// allocations of one more — submitted through SubmitCancel, keeping its
// Handle, when withHandle is set.
func instanceAllocs(t *testing.T, cfg Config, withHandle bool) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, sources := quickstart(t)
	cfg.Workers = 1
	svc := New(cfg)
	defer svc.Close()
	done := make(chan struct{}, 1)
	req := Request{
		Schema: s, Sources: sources, Strategy: engine.MustParseStrategy("PSE100"),
		Done: func(r *engine.Result) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			done <- struct{}{}
		},
	}
	run := func() {
		var err error
		if withHandle {
			lastHandle, err = svc.SubmitCancel(req)
		} else {
			err = svc.Submit(req)
		}
		if err != nil {
			t.Fatal(err)
		}
		<-done
	}
	for range 200 { // warm the instance pool, the caches and the histograms
		run()
	}
	return testing.AllocsPerRun(2000, run)
}

func checkAllocs(t *testing.T, got float64, limit float64) {
	t.Helper()
	t.Logf("%.0f allocs per instance (limit %.0f)", got, limit)
	if got > limit {
		t.Fatalf("%.0f allocs per instance, want ≤ %.0f", got, limit)
	}
}

// TestAllocsDirectInstant pins the direct path over Instant.
func TestAllocsDirectInstant(t *testing.T) {
	checkAllocs(t, instanceAllocs(t, Config{Backend: Instant{}}, false), allocsDirectInstant)
}

// lastHandle keeps TestAllocsSubmitCancel's handles live, so the compiler
// cannot drop whatever building one costs.
var lastHandle Handle

// TestAllocsSubmitCancel pins the cancel handle: an instance submitted
// through SubmitCancel allocates no more than one through Submit, so a
// front end can keep a handle per instance for free.
func TestAllocsSubmitCancel(t *testing.T) {
	plain := instanceAllocs(t, Config{Backend: Instant{}}, false)
	handled := instanceAllocs(t, Config{Backend: Instant{}}, true)
	t.Logf("%.0f allocs per instance through Submit, %.0f through SubmitCancel", plain, handled)
	if handled > plain {
		t.Fatalf("SubmitCancel costs %.0f allocs per instance more than Submit", handled-plain)
	}
}

// TestAllocsDirectCluster pins the direct path over a 2×2 cluster of
// Instant replicas, where every launch renders and hashes its sharing
// identity for shard placement.
func TestAllocsDirectCluster(t *testing.T) {
	cl := NewCluster(ClusterConfig{
		Shards: 2, Replicas: 2,
		New: func(int, int) Backend { return Instant{} },
	})
	checkAllocs(t, instanceAllocs(t, Config{Backend: cl}, false), allocsDirectCluster)
}

// TestAllocsQueryLayerHit pins the query layer with dedup and the cache on,
// once every identity is cached: no launch reaches the backend.
func TestAllocsQueryLayerHit(t *testing.T) {
	cfg := Config{Backend: Instant{}, Query: QueryConfig{Dedup: true, CacheSize: 1024}}
	checkAllocs(t, instanceAllocs(t, cfg, false), allocsQueryLayerHit)
}

// TestAllocsRecord pins the stats record path: folding a completion into
// its shard, latency histogram included, allocates nothing, untagged or
// for a tenant whose cell exists.
func TestAllocsRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sh shard
	r := &engine.Result{Work: 6}
	sh.record(r, time.Millisecond, "acme") // creates acme's cell
	for _, tenant := range []string{"", "acme"} {
		if got := testing.AllocsPerRun(1000, func() { sh.record(r, time.Millisecond, tenant) }); got != 0 {
			t.Fatalf("record for tenant %q: %.0f allocs, want 0", tenant, got)
		}
	}
}

// lastStats keeps TestAllocsStatsFlat's readings live.
var lastStats Stats

// TestAllocsStatsFlat pins Stats' cost to the shards and tenants, not the
// samples: it allocates as much after 100,000 recorded completions as
// after 10.
func TestAllocsStatsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	svc := New(Config{Workers: 4})
	defer svc.Close()
	r := &engine.Result{Work: 6}
	record := func(from, to int) {
		for i := from; i < to; i++ {
			svc.shards[i%len(svc.shards)].record(r, time.Duration(i)*time.Microsecond, "acme")
		}
	}
	stats := func() { lastStats = svc.Stats() }
	record(0, 10)
	few := testing.AllocsPerRun(100, stats)
	record(10, 100_000)
	many := testing.AllocsPerRun(100, stats)
	t.Logf("Stats: %.0f allocs after 10 completions, %.0f after 100,000", few, many)
	if many != few {
		t.Fatalf("Stats allocates %.0f after 100,000 completions but %.0f after 10", many, few)
	}
}

// The limits are counts measured with go1.24 on linux/amd64 (quickstart
// under PSE100 launches three foreign tasks).
const (
	allocsDirectInstant = 0
	allocsDirectCluster = 21
	allocsQueryLayerHit = 5
)
