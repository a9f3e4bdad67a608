package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/randschema"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// The service-level property suite: unstructured random schemas driven
// through the *wall-clock* runtime (real goroutines, real completions) in
// every on/off combination of the query layer's features. For every
// instance the terminal snapshot must match the declarative oracle, and at
// the end of each combination the fleet-level accounting must be exactly
// conserved:
//
//   - aggregate Work/WastedWork/Launched/SynthesisRuns equal the
//     per-instance sums (nothing lost or double-counted by sharing);
//   - every launch, a shadow instance's included, is exactly one of a
//     backend query, a dedup hit, or a cache hit (shared queries billed
//     once);
//   - WastedWork never exceeds Work.
//
// Together with the engine-level property tests this pins the oracle
// invariant the query layer must preserve: a cached or deduplicated
// completion is indistinguishable from a fresh one.

// propCombo is one query-layer configuration under test.
type propCombo struct {
	name  string
	query QueryConfig
}

func propCombos() []propCombo {
	return []propCombo{
		{"off", QueryConfig{}},
		{"batch", QueryConfig{BatchSize: 4, BatchWindow: 50 * time.Microsecond}},
		{"cache", QueryConfig{CacheSize: 256, CacheTTL: time.Second}},
		{"dedup", QueryConfig{Dedup: true}},
		{"all", QueryConfig{BatchSize: 4, BatchWindow: 50 * time.Microsecond, Dedup: true, CacheSize: 256}},
	}
}

// runPropFleet drives `schemas` random schemas (two source bindings each,
// instPerBinding instances per binding over a rotating strategy mix, every
// third a shadow instance) through the service, asserting per-instance
// oracle agreement and exact fleet-level work conservation. It returns the
// run's Stats for configuration-specific checks.
func runPropFleet(t *testing.T, svc *Service, schemas, instPerBinding int, seed int64) Stats {
	t.Helper()
	strategies := engine.Strategies("PSE100", "PCE0", "NCC0", "PSC40", "NSE60", "PCE100")
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		failures  atomic.Int64
		sumWork   atomic.Int64
		sumWasted atomic.Int64
		sumLaunch atomic.Int64
		sumSynth  atomic.Int64
		sumShadow atomic.Int64 // shadow instances' launches
		firstErr  atomic.Value
	)
	rng := rand.New(rand.NewSource(seed))
	total, shadows := 0, 0
	for si := 0; si < schemas; si++ {
		schemaSeed := rng.Int63()
		s := randschema.Generate(rand.New(rand.NewSource(schemaSeed)), randschema.Config{})
		for b := 0; b < 2; b++ {
			sources := randschema.RandomSources(rng, s)
			oracle := snapshot.Complete(s, sources)
			for k := 0; k < instPerBinding; k++ {
				st := strategies[(si+b+k)%len(strategies)]
				shadow := k%3 == 2
				wg.Add(1)
				if total++; shadow {
					shadows++
				}
				err := svc.Submit(Request{
					Schema:   s,
					Sources:  sources,
					Strategy: st,
					Shadow:   shadow,
					Done: func(r *engine.Result) {
						defer wg.Done()
						completed.Add(1)
						if r.Err != nil {
							failures.Add(1)
							firstErr.CompareAndSwap(nil, fmt.Sprintf("schema seed %d strategy %s: %v", schemaSeed, st, r.Err))
							return
						}
						if err := snapshot.CheckAgainstOracle(r.Snapshot, oracle); err != nil {
							failures.Add(1)
							firstErr.CompareAndSwap(nil, fmt.Sprintf("schema seed %d strategy %s: oracle mismatch: %v", schemaSeed, st, err))
							return
						}
						if r.WastedWork > r.Work {
							failures.Add(1)
							firstErr.CompareAndSwap(nil, fmt.Sprintf("schema seed %d strategy %s: WastedWork %d > Work %d", schemaSeed, st, r.WastedWork, r.Work))
							return
						}
						if shadow {
							sumShadow.Add(int64(r.Launched))
							return
						}
						sumWork.Add(int64(r.Work))
						sumWasted.Add(int64(r.WastedWork))
						sumLaunch.Add(int64(r.Launched))
						sumSynth.Add(int64(r.SynthesisRuns))
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	wg.Wait()

	if got := completed.Load(); got != int64(total) {
		t.Fatalf("completed %d of %d instances", got, total)
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d instances failed; first: %s", f, firstErr.Load())
	}
	st := svc.Stats()
	if st.Completed != uint64(total-shadows) || st.ShadowCompleted != uint64(shadows) || st.Errors+st.ShadowErrors != 0 {
		t.Fatalf("stats completed=%d shadow=%d errors=%d/%d, want %d/%d/0/0",
			st.Completed, st.ShadowCompleted, st.Errors, st.ShadowErrors, total-shadows, shadows)
	}
	// Work conservation: aggregates equal per-instance sums exactly.
	if st.Work != uint64(sumWork.Load()) {
		t.Errorf("aggregate Work %d != per-instance sum %d", st.Work, sumWork.Load())
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
	if st.ShadowLaunched != uint64(sumShadow.Load()) {
		t.Errorf("aggregate ShadowLaunched %d != per-instance sum %d", st.ShadowLaunched, sumShadow.Load())
	}
	return st
}

// TestPropertyRandomSchemasAllCombos drives ≥500 random schemas — 125 per
// combination × 5 combinations, two source bindings each, a strategy mix
// per binding — through the service. Run under -race by `make race`.
func TestPropertyRandomSchemasAllCombos(t *testing.T) {
	schemas := 125
	instPerBinding := 6
	if testing.Short() {
		schemas = 25
	}

	for ci, combo := range propCombos() {
		combo := combo
		seed := int64(1000 + 17*ci)
		t.Run(combo.name, func(t *testing.T) {
			t.Parallel()
			svc := New(Config{
				Workers:          4,
				MaxInFlightTasks: 1024,
				Query:            combo.query,
			})
			defer svc.Close()
			st := runPropFleet(t, svc, schemas, instPerBinding, seed)
			// Billing exactness under sharing: every launch, shadow or
			// live, is exactly one of backend query / dedup hit / cache hit.
			launched := st.Launched + st.ShadowLaunched
			if launched != st.BackendQueries+st.DedupHits+st.CacheHits {
				t.Errorf("launch conservation violated: launched=%d+%d shadow backend=%d dedup=%d cache=%d",
					st.Launched, st.ShadowLaunched, st.BackendQueries, st.DedupHits, st.CacheHits)
			}
			if st.BackendQueries > launched {
				t.Errorf("more backend queries (%d) than launches (%d)", st.BackendQueries, launched)
			}
			if combo.query.CacheSize > 0 && st.CacheHits == 0 && !testing.Short() {
				t.Errorf("cache combo produced zero hits over %d instances", st.Completed)
			}
			if combo.query.CacheSize > 0 && st.CacheMisses != st.BackendQueries {
				// No volatile tasks here, so every backend query was
				// exactly one cache miss (a miss that dedup-attaches is
				// not a miss: it never reaches the backend).
				t.Errorf("cache misses %d != backend queries %d", st.CacheMisses, st.BackendQueries)
			}
		})
	}
}

// TestPropertyClusterTopologies extends the random-schema sweep across the
// cluster dimension: sampled topologies (1–4 shards × 1–3 replicas), hedging
// on and off, crossed with query-layer configurations — so the query-layer
// × cluster product is covered by the same oracle, conservation and billing
// checks as the single-backend sweep. Replicas are jittered Latency backends, so completion
// interleavings vary while every query ultimately succeeds.
func TestPropertyClusterTopologies(t *testing.T) {
	schemas := 18
	if testing.Short() {
		schemas = 6
	}
	type topo struct {
		shards, replicas int
		hedge            time.Duration
		query            QueryConfig
	}
	batchq := QueryConfig{BatchSize: 4, BatchWindow: 30 * time.Microsecond, Dedup: true}
	cacheq := QueryConfig{Dedup: true, CacheSize: 256}
	allq := QueryConfig{BatchSize: 4, BatchWindow: 30 * time.Microsecond, Dedup: true, CacheSize: 256}
	topos := []topo{
		{1, 2, 0, QueryConfig{}},
		{2, 1, 0, batchq},
		{2, 3, 500 * time.Microsecond, cacheq},
		{3, 2, 500 * time.Microsecond, allq},
		{4, 2, 0, allq},
		{4, 3, 0, batchq},
		{3, 1, 0, cacheq},
		{4, 1, 500 * time.Microsecond, QueryConfig{}},
	}
	for ti, tp := range topos {
		tp := tp
		name := fmt.Sprintf("%dx%d-hedge%v", tp.shards, tp.replicas, tp.hedge > 0)
		seed := int64(9000 + 31*ti)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cl := NewCluster(ClusterConfig{
				Shards:     tp.shards,
				Replicas:   tp.replicas,
				Retries:    2,
				HedgeDelay: tp.hedge,
				New: func(s, r int) Backend {
					return &Latency{Base: 50 * time.Microsecond, PerUnit: 5 * time.Microsecond, Jitter: 0.5}
				},
			})
			svc := New(Config{
				Backend:          cl,
				Workers:          4,
				MaxInFlightTasks: 1024,
				Query:            tp.query,
			})
			defer svc.Close()
			st := runPropFleet(t, svc, schemas, 4, seed)
			if st.Cluster == nil {
				t.Fatal("cluster stats not wired")
			}
			if st.FailedQueries != 0 {
				t.Errorf("healthy cluster surfaced %d failed queries", st.FailedQueries)
			}
			if st.Launched+st.ShadowLaunched != st.BackendQueries+st.DedupHits+st.CacheHits {
				t.Errorf("launch conservation violated over cluster: launched=%d+%d shadow backend=%d dedup=%d cache=%d",
					st.Launched, st.ShadowLaunched, st.BackendQueries, st.DedupHits, st.CacheHits)
			}
			// Every shard must have seen traffic on some replica (random
			// schemas spread identities across the hash space).
			for s, row := range st.Cluster.Replica {
				total := uint64(0)
				for _, rep := range row {
					total += rep.Queries
				}
				if total == 0 {
					t.Errorf("shard %d received no queries", s)
				}
			}
		})
	}
}

// TestPropertySharedVsFreshSnapshots runs each random schema twice through
// services with the layer fully on and fully off, and diffs the terminal
// snapshots attribute by attribute: cached/deduplicated results must be
// *indistinguishable* from fresh ones, not merely oracle-compatible.
func TestPropertySharedVsFreshSnapshots(t *testing.T) {
	schemas := 60
	if testing.Short() {
		schemas = 15
	}
	plain := New(Config{Workers: 2})
	defer plain.Close()
	shared := New(Config{
		Workers:          2,
		MaxInFlightTasks: 1024,
		Query:            QueryConfig{BatchSize: 4, BatchWindow: 20 * time.Microsecond, Dedup: true, CacheSize: 512},
	})
	defer shared.Close()

	rng := rand.New(rand.NewSource(424242))
	strategies := engine.Strategies("PSE100", "PCE0", "NSE60")
	for si := 0; si < schemas; si++ {
		s := randschema.Generate(rand.New(rand.NewSource(rng.Int63())), randschema.Config{})
		sources := randschema.RandomSources(rng, s)
		for _, st := range strategies {
			// Two passes on the shared service so the second draws on a warm
			// cache.
			if _, err := shared.Do(s, sources, st); err != nil {
				t.Fatal(err)
			}
			fresh, err := plain.Do(s, sources, st)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := shared.Do(s, sources, st)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Err != nil || warm.Err != nil {
				t.Fatalf("schema %d %s: errs %v / %v", si, st, fresh.Err, warm.Err)
			}
			for i := 0; i < s.NumAttrs(); i++ {
				id := core.AttrID(i)
				fs, ws := fresh.Snapshot.State(id), warm.Snapshot.State(id)
				if fs.Stable() != ws.Stable() {
					continue // scheduling order may leave different non-target residue
				}
				if !fs.Stable() {
					continue
				}
				if fs != ws {
					t.Fatalf("schema %d %s: attr %s fresh state %v != warm state %v",
						si, st, s.Attr(id).Name, fs, ws)
				}
				if !value.Identical(fresh.Snapshot.Val(id), warm.Snapshot.Val(id)) {
					t.Fatalf("schema %d %s: attr %s fresh value %v != warm value %v",
						si, st, s.Attr(id).Name, fresh.Snapshot.Val(id), warm.Snapshot.Val(id))
				}
			}
		}
	}
	if st := shared.Stats(); st.CacheHits == 0 && st.DedupHits == 0 {
		t.Error("shared service never exercised sharing")
	}
}
