package runtime

import (
	"math/rand"
	stdruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/value"
)

// benchLoad runs a closed-loop load of b.N instances and reports
// throughput plus the query layer's hit-rate trajectory (all zero when the
// layer is off), so the output tracks sharing effectiveness over time. It
// returns the report for benchmark-specific extra metrics.
func benchLoad(b *testing.B, svc *Service, l Load) Report {
	b.Helper()
	defer svc.Close()
	l.Count = b.N
	// Start the measured window on a clean heap: earlier benchmarks in
	// the same process leave GC debt, and a collection landing inside a
	// ~50ms window skews a CPU-bound benchmark by double digits — the
	// dominant run-to-run noise on a 1-core runner.
	stdruntime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := RunLoad(svc, l)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.Stats.Errors > 0 {
		b.Fatalf("%d errored instances", rep.Stats.Errors)
	}
	b.ReportMetric(rep.Throughput, "inst/s")
	reportQueryMetrics(b, rep.Stats)
	return rep
}

// reportQueryMetrics emits the query layer's hit rates and batch shape.
func reportQueryMetrics(b *testing.B, st Stats) {
	b.Helper()
	if st.Launched > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Launched), "cache-hit-rate")
		b.ReportMetric(float64(st.DedupHits)/float64(st.Launched), "dedup-rate")
	}
	if st.Batches > 0 {
		b.ReportMetric(st.AvgBatchSize(), "queries/batch")
	}
}

// BenchmarkServeQuickstartPSE100 measures peak serving throughput for the
// quickstart schema — the engine-side ceiling with a zero-latency backend.
func BenchmarkServeQuickstartPSE100(b *testing.B) {
	s, sources := quickstart(b)
	svc := New(Config{})
	benchLoad(b, svc, Load{Schema: s, Sources: sources, Strategy: engine.MustParseStrategy("PSE100")})
}

// BenchmarkServePattern64PSE100 serves the Table 1 default 64-node
// pattern, the paper's experimental workload, at full speculation.
func BenchmarkServePattern64PSE100(b *testing.B) {
	g := gen.Generate(gen.Default())
	svc := New(Config{})
	benchLoad(b, svc, Load{Schema: g.Schema, Sources: g.SourceValues(), Strategy: engine.MustParseStrategy("PSE100")})
}

// BenchmarkServeLatencyBackend serves the quickstart schema against a
// 100µs-per-query backend, measuring how well the service overlaps
// database waits across instances.
func BenchmarkServeLatencyBackend(b *testing.B) {
	s, sources := quickstart(b)
	svc := New(Config{
		Backend:          &Latency{Base: 100 * time.Microsecond},
		MaxInFlightTasks: 4096,
	})
	benchLoad(b, svc, Load{
		Schema: s, Sources: sources,
		Strategy:    engine.MustParseStrategy("PSE100"),
		Concurrency: 512,
	})
}

// BenchmarkServeDedupLatency is the acceptance scenario: identical
// instances against a 32-parallel latency backend with batching+dedup on,
// so nearly every launch shares an in-flight round trip.
func BenchmarkServeDedupLatency(b *testing.B) {
	s, sources := quickstart(b)
	svc := New(Config{
		Backend:          &Latency{Base: 200 * time.Microsecond, PerUnit: 50 * time.Microsecond, Parallel: 32},
		MaxInFlightTasks: 4096,
		Query:            QueryConfig{BatchSize: 32, BatchWindow: 200 * time.Microsecond, Dedup: true},
	})
	benchLoad(b, svc, Load{
		Schema: s, Sources: sources,
		Strategy:    engine.MustParseStrategy("PSE100"),
		Concurrency: 256,
	})
}

// BenchmarkServeBatchDiverse spreads instances over 4096 distinct source
// vectors, the regime where dedup rarely fires and cross-instance
// batching does the amortization (queries/batch tracks the coalescing).
func BenchmarkServeBatchDiverse(b *testing.B) {
	s, sources := quickstart(b)
	svc := New(Config{
		Backend:          &Latency{Base: 200 * time.Microsecond, PerUnit: 10 * time.Microsecond, Parallel: 32},
		MaxInFlightTasks: 4096,
		Query:            QueryConfig{BatchSize: 32, BatchWindow: 200 * time.Microsecond, Dedup: true, CacheSize: 16384},
	})
	benchLoad(b, svc, Load{
		Schema:      s,
		SourcesFor:  spreadVariants(sources, 4096),
		Strategy:    engine.MustParseStrategy("PSE100"),
		Concurrency: 256,
	})
}

// spreadVariants precomputes n source vectors varying every integer source
// by the variant index, so query identities spread across cluster shards.
func spreadVariants(sources map[string]value.Value, n int) func(i int) map[string]value.Value {
	variants := make([]map[string]value.Value, n)
	for v := range variants {
		m := make(map[string]value.Value, len(sources))
		for name, val := range sources {
			if iv, ok := val.AsInt(); ok {
				m[name] = value.Int(iv + int64(v))
			} else {
				m[name] = val
			}
		}
		variants[v] = m
	}
	return func(i int) map[string]value.Value { return variants[i%n] }
}

// benchCluster is the tail-tolerance acceptance scenario: a 4-shard ×
// 2-replica Latency cluster with one replica (shard 0, replica 1) skewed
// 10× slower — the "slow machine" of the tail-at-scale setting. Instances
// spread over 4096 source vectors, so up to ~1/8 of queries land on the
// slow replica (fewer while its backlog steers the selector away).
// Hedging (just past the healthy latency band) re-issues exactly those
// queries to the shard's healthy replica; p99-ms and hedge-win-rate make
// the cut visible in the benchmark output.
func benchCluster(b *testing.B, hedge time.Duration) {
	s, sources := quickstart(b)
	cl := NewCluster(ClusterConfig{
		Shards:     4,
		Replicas:   2,
		Retries:    1,
		HedgeDelay: hedge,
		New: func(shard, rep int) Backend {
			l := &Latency{Base: 2 * time.Millisecond, PerUnit: 50 * time.Microsecond}
			if shard == 0 && rep == 1 {
				l.Base *= 10
				l.PerUnit *= 10
			}
			return l
		},
	})
	// Vary sources in steps of two: customer_id stays odd, so every
	// instance runs the full three-query chain (tier ∥ warehouse_load →
	// upgrade) and the sequential tail the hedge must cut is always there.
	variants := make([]map[string]value.Value, 4096)
	for v := range variants {
		m := make(map[string]value.Value, len(sources))
		for name, val := range sources {
			if iv, ok := val.AsInt(); ok {
				m[name] = value.Int(iv + 2*int64(v))
			} else {
				m[name] = val
			}
		}
		variants[v] = m
	}
	svc := New(Config{Backend: cl, MaxInFlightTasks: 4096})
	rep := benchLoad(b, svc, Load{
		Schema:      s,
		SourcesFor:  func(i int) map[string]value.Value { return variants[i%len(variants)] },
		Strategy:    engine.MustParseStrategy("PSE100"),
		Concurrency: 32,
	})
	b.ReportMetric(float64(rep.Stats.P99)/float64(time.Millisecond), "p99-ms")
	if rep.Stats.Hedges > 0 {
		b.ReportMetric(float64(rep.Stats.HedgeWins)/float64(rep.Stats.Hedges), "hedge-win-rate")
	}
}

// BenchmarkServeClusterUnhedged is the slow-replica baseline: the tail of
// every closed-loop window is dominated by the 10×-slow replica.
func BenchmarkServeClusterUnhedged(b *testing.B) { benchCluster(b, 0) }

// BenchmarkServeClusterHedged is the same cluster with 3ms hedging (just
// past the healthy chain latency); the acceptance criterion is p99 ≥3×
// below the unhedged baseline at equal (closed-loop) load.
func BenchmarkServeClusterHedged(b *testing.B) { benchCluster(b, 3*time.Millisecond) }

// BenchmarkServeCachedInstant measures the cache-hit fast path itself: an
// instant backend plus a warm cache, so the benchmark is dominated by key
// rendering, shard lookup, and completion delivery.
func BenchmarkServeCachedInstant(b *testing.B) {
	s, sources := quickstart(b)
	svc := New(Config{
		Query: QueryConfig{CacheSize: 1024},
	})
	benchLoad(b, svc, Load{
		Schema: s, Sources: sources,
		Strategy: engine.MustParseStrategy("PSE100"),
	})
}

// flushProbe timestamps every round trip the dispatcher hands to the
// cluster.
type flushProbe struct {
	*Cluster
	mu      sync.Mutex
	flushes []time.Time
}

func (p *flushProbe) Exec(qs []Query, each func(i int, err error)) {
	p.mu.Lock()
	p.flushes = append(p.flushes, time.Now())
	p.mu.Unlock()
	p.Cluster.Exec(qs, each)
}

// BenchmarkLoneRequestZipf is the in-process probe behind the batching
// section of DESIGN.md: one request of 64 quickstart instances at a time,
// on an otherwise idle service configured like the shared_zipf daemon of
// bench/ (2×2 cluster of 500µs+50µs/unit ±20 % backends, batches of 32
// with a 200µs window, dedup, 8192-entry cache, Zipf(1.01) over 262144
// vectors). It reports the request's p50 and how long after the request
// began its first batch reached the backend — the time a lone request's
// first-level misses spend waiting for company that cannot come.
func BenchmarkLoneRequestZipf(b *testing.B) {
	s, sources := quickstart(b)
	probe := &flushProbe{Cluster: NewCluster(ClusterConfig{
		Shards: 2, Replicas: 2,
		New: func(shard, rep int) Backend {
			return &Latency{Base: 500 * time.Microsecond, PerUnit: 50 * time.Microsecond, Jitter: 0.2}
		},
	})}
	svc := New(Config{Backend: probe, Query: QueryConfig{
		BatchSize: 32, BatchWindow: 200 * time.Microsecond, Dedup: true, CacheSize: 8192,
	}})
	defer svc.Close()
	st := engine.MustParseStrategy("PSE100")
	order, _ := sources["order_total"].AsInt()
	customer, _ := sources["customer_id"].AsInt()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, 262144-1)
	var lat, first []time.Duration
	request := func() {
		var wg sync.WaitGroup
		wg.Add(64)
		probe.mu.Lock()
		probe.flushes = probe.flushes[:0]
		probe.mu.Unlock()
		start := time.Now()
		release := svc.Hold()
		for i := 0; i < 64; i++ {
			v := int64(zipf.Uint64())
			err := svc.Submit(Request{Schema: s, Strategy: st, Done: func(*engine.Result) { wg.Done() },
				Sources: map[string]value.Value{"order_total": value.Int(order + v), "customer_id": value.Int(customer + v)}})
			if err != nil {
				b.Fatal(err)
			}
		}
		release()
		wg.Wait()
		lat = append(lat, time.Since(start))
		probe.mu.Lock()
		if len(probe.flushes) > 0 {
			first = append(first, probe.flushes[0].Sub(start))
		}
		probe.mu.Unlock()
	}
	for i := 0; i < 200; i++ { // warm the cache to its steady hit ratio
		request()
	}
	lat, first = lat[:0], first[:0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	ms := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[len(d)/2]) / float64(time.Millisecond)
	}
	b.ReportMetric(ms(lat), "req-p50-ms")
	if len(first) > 0 {
		b.ReportMetric(ms(first), "first-flush-p50-ms")
	}
	reportQueryMetrics(b, svc.Stats())
}
