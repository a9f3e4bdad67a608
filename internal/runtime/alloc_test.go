package runtime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/value"
)

// Allocation pins: one instance end to end through Service — submit, every
// launch and completion, finalize, retire — counted with
// testing.AllocsPerRun instead of timed. A change that adds a steady-state
// allocation to one of these paths fails here rather than hiding in a
// benchmark's run-to-run noise. Instances run one at a time, so no count
// depends on how the scheduler interleaves them. "Direct" names the zero
// QueryConfig: nothing shared, nothing batched, every launch riding its
// instance's own flight through the dispatcher.

// instanceAllocs is serveAllocs of quickstart over 2000 runs.
func instanceAllocs(t *testing.T, cfg Config, withHandle bool) float64 {
	t.Helper()
	s, sources := quickstart(t)
	return serveAllocs(t, cfg, s, sources, 2000, withHandle)
}

// serveAllocs serves warm-up instances of s on cfg, then reports the mean
// allocations of one more over runs runs — submitted through SubmitCancel,
// keeping its Handle, when withHandle is set.
func serveAllocs(t *testing.T, cfg Config, s *core.Schema, sources map[string]value.Value, runs int, withHandle bool) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
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
	for range min(runs, 200) { // warm the instance pool, the caches and the histograms
		run()
	}
	return testing.AllocsPerRun(runs, run)
}

func checkAllocs(t *testing.T, got float64, limit float64) {
	t.Helper()
	t.Logf("%.0f allocs per instance (limit %.0f)", got, limit)
	if got > limit {
		t.Fatalf("%.0f allocs per instance, want ≤ %.0f", got, limit)
	}
}

// TestAllocsDirectInstant pins the zero query config over Instant.
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

// TestAllocsDirectCluster pins the zero query config over a 2×2 cluster of
// Instant replicas, where every launch renders and hashes its sharing
// identity for shard placement.
func TestAllocsDirectCluster(t *testing.T) {
	cl := NewCluster(ClusterConfig{
		Shards: 2, Replicas: 2,
		New: func(int, int) Backend { return Instant{} },
	})
	checkAllocs(t, instanceAllocs(t, Config{Backend: cl}, false), allocsDirectCluster)
}

// TestAllocsPattern64 pins the Table 1 default 64-node pattern over
// Instant: on the zero query config (BenchmarkServePattern64PSE100 and the
// facade's BenchmarkServiceThroughput), and with batching, dedup and the
// cache on, every launch a cache hit once warm (the facade's
// BenchmarkServiceThroughputShared).
func TestAllocsPattern64(t *testing.T) {
	g := gen.Generate(gen.Default())
	for _, tc := range []struct {
		name  string
		query QueryConfig
		limit float64
	}{
		{"direct", QueryConfig{}, allocsPattern64},
		{"shared", QueryConfig{BatchSize: 32, Dedup: true, CacheSize: 4096}, allocsPattern64Shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Backend: Instant{}, Query: tc.query}
			checkAllocs(t, serveAllocs(t, cfg, g.Schema, g.SourceValues(), 1000, false), tc.limit)
		})
	}
}

// TestAllocsLatency pins the zero query config over a timer backend, the
// configuration of BenchmarkServeLatencyBackend: each launch arms one
// timer. Few runs, since each instance waits out real round trips.
func TestAllocsLatency(t *testing.T) {
	s, sources := quickstart(t)
	cfg := Config{Backend: &Latency{Base: 100 * time.Microsecond}}
	checkAllocs(t, serveAllocs(t, cfg, s, sources, 50, false), allocsLatency)
}

// TestAllocsLatencyBatchDedup pins the batching and single-flight path of
// BenchmarkServeDedupLatency's configuration, one instance at a time: every
// launch is a dedup leader and rides a batch of its own instance's
// queries. The benchmark's own allocs/op is lower and not pinned: it
// divides by the share of launches that join another instance's flight,
// which the scheduler decides.
func TestAllocsLatencyBatchDedup(t *testing.T) {
	s, sources := quickstart(t)
	cfg := Config{
		Backend: &Latency{Base: 200 * time.Microsecond, PerUnit: 50 * time.Microsecond, Parallel: 32},
		Query:   QueryConfig{BatchSize: 32, BatchWindow: 200 * time.Microsecond, Dedup: true},
	}
	checkAllocs(t, serveAllocs(t, cfg, s, sources, 50, false), allocsLatencyBatchDedup)
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

// TestAllocsRunLoadClosed pins the closed-loop load generator: a RunLoad
// of quickstart over Instant allocates nothing per instance, its chains
// handing each completion's Done straight to the next Submit. The per-run
// setup (stats reset and read, the chains) is spread over the count; one
// allocation per instance would read as 1 here.
func TestAllocsRunLoadClosed(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const count = 20000
	s, sources := quickstart(t)
	svc := New(Config{Backend: Instant{}})
	defer svc.Close()
	l := Load{Schema: s, Sources: sources, Strategy: engine.MustParseStrategy("PSE100"), Count: count}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunLoad(svc, l); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.4f allocs per instance (%.0f per run)", allocs/count, allocs)
	if allocs/count >= 0.01 {
		t.Fatalf("%.4f allocs per instance, want 0", allocs/count)
	}
}

// The limits are counts measured with go1.24 on linux/amd64 (quickstart
// under PSE100 launches three foreign tasks).
const (
	allocsDirectInstant     = 0
	allocsDirectCluster     = 12
	allocsQueryLayerHit     = 0
	allocsPattern64         = 0
	allocsPattern64Shared   = 0
	allocsLatency           = 6
	allocsLatencyBatchDedup = 18
)
