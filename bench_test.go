// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus micro-benchmarks of the core machinery.
//
// Figure benchmarks run the corresponding experiment driver at reduced
// fidelity per iteration (the experiment output is deterministic; the
// benchmark measures the cost of regenerating it). To regenerate
// publication-fidelity tables, use cmd/dfrun instead.
//
//	go test -bench=. -benchmem
package decisionflow_test

import (
	stdruntime "runtime"
	"testing"

	decisionflow "repro"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/prequal"
	"repro/internal/sim"
	"repro/internal/simdb"
	"repro/internal/snapshot"
)

// benchCfg keeps per-iteration cost low while exercising the full path.
var benchCfg = experiments.Config{Seeds: 2, BaseSeed: 1, WorkloadInstances: 60, DbCurveUnits: 200}

func benchFigure(b *testing.B, run func(experiments.Config) *experiments.Figure) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := run(benchCfg)
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): Work vs %enabled, serial strategies.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, experiments.Fig5a) }

// BenchmarkFig5b regenerates Figure 5(b): Work vs nb_rows, serial strategies.
func BenchmarkFig5b(b *testing.B) { benchFigure(b, experiments.Fig5b) }

// BenchmarkFig6a regenerates Figure 6(a): TimeInUnits vs %enabled.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, experiments.Fig6a) }

// BenchmarkFig6b regenerates Figure 6(b): Work vs %enabled.
func BenchmarkFig6b(b *testing.B) { benchFigure(b, experiments.Fig6b) }

// BenchmarkFig7a regenerates Figure 7(a): TimeInUnits vs %Permitted.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, experiments.Fig7a) }

// BenchmarkFig7b regenerates Figure 7(b): Work vs %Permitted.
func BenchmarkFig7b(b *testing.B) { benchFigure(b, experiments.Fig7b) }

// BenchmarkFig8a regenerates Figure 8(a): guideline maps varying %enabled.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, experiments.Fig8a) }

// BenchmarkFig8b regenerates Figure 8(b): guideline maps varying nb_rows.
func BenchmarkFig8b(b *testing.B) { benchFigure(b, experiments.Fig8b) }

// BenchmarkFig9a regenerates Figure 9(a): the Db curve (UnitTime vs Gmpl).
func BenchmarkFig9a(b *testing.B) { benchFigure(b, experiments.Fig9a) }

// BenchmarkFig9b regenerates Figure 9(b): predicted vs measured
// TimeInSeconds at Th=10/s.
func BenchmarkFig9b(b *testing.B) { benchFigure(b, experiments.Fig9b) }

// BenchmarkTable1Pattern measures generating one Table 1 default pattern
// (64 nodes, full condition synthesis) — the workload generator itself.
func BenchmarkTable1Pattern(b *testing.B) {
	p := gen.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		g := gen.Generate(p)
		if g.Schema.NumAttrs() != 66 {
			b.Fatal("bad pattern")
		}
	}
}

// --- Micro-benchmarks of the engine path ---

// BenchmarkEngineSerial measures one full PCE0 instance execution on the
// default 64-node pattern (prequalifier + scheduler + virtual time).
func BenchmarkEngineSerial(b *testing.B) {
	g := gen.Generate(gen.Default())
	st := engine.MustParseStrategy("PCE0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := engine.Run(g.Schema, g.SourceValues(), st); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkEngineSpeculative measures one full PSE100 instance execution.
func BenchmarkEngineSpeculative(b *testing.B) {
	g := gen.Generate(gen.Default())
	st := engine.MustParseStrategy("PSE100")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := engine.Run(g.Schema, g.SourceValues(), st); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkPropagationAlgorithm measures the prequalifier's initial
// propagation pass over the default pattern (the linear-cost claim of §4).
func BenchmarkPropagationAlgorithm(b *testing.B) {
	g := gen.Generate(gen.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := snapshot.New(g.Schema, g.SourceValues())
		p := prequal.New(sn, prequal.Options{Propagate: true, Speculative: true})
		if p.Candidates() == nil {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkOracle measures the declarative complete-snapshot evaluation.
func BenchmarkOracle(b *testing.B) {
	g := gen.Generate(gen.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sn := snapshot.Complete(g.Schema, g.SourceValues()); !sn.Terminal() {
			b.Fatal("oracle not terminal")
		}
	}
}

// BenchmarkSimDBQuery measures one cost-5 query through the CPU/disk
// queueing model on an otherwise idle server.
func BenchmarkSimDBQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		db := simdb.NewServer(s, simdb.DefaultParams(), int64(i))
		done := false
		db.Submit(5, func() { done = true })
		s.Run()
		if !done {
			b.Fatal("query did not complete")
		}
	}
}

// BenchmarkConditionEval measures three-valued evaluation of a generated
// enabling condition over a partial snapshot.
func BenchmarkConditionEval(b *testing.B) {
	g := gen.Generate(gen.Default())
	sn := snapshot.New(g.Schema, g.SourceValues())
	var conds []decisionflow.Expr
	for i := 0; i < g.Schema.NumAttrs(); i++ {
		if a := g.Schema.Attr(decisionflow.AttrID(i)); a.Enabling != nil {
			conds = append(conds, a.Enabling)
		}
	}
	env := sn.Env()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cond := conds[i%len(conds)]
		_ = expr.Eval3(cond, env)
	}
}

// BenchmarkServiceThroughput measures the wall-clock serving runtime end
// to end through the facade: a closed-loop load of PSE100 instances of the
// default 64-node pattern against the zero-latency backend. The reported
// inst/s metric is the sustained serving throughput on this machine.
func BenchmarkServiceThroughput(b *testing.B) {
	g := gen.Generate(gen.Default())
	svc := decisionflow.NewService(decisionflow.ServiceConfig{})
	defer svc.Close()
	stdruntime.GC() // clean heap: keep prior benchmarks' GC debt out of the window
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := decisionflow.RunLoad(svc, decisionflow.ServiceLoad{
		Schema:   g.Schema,
		Sources:  g.SourceValues(),
		Strategy: decisionflow.MustParseStrategy("PSE100"),
		Count:    b.N,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Stats.Errors > 0 {
		b.Fatalf("%d errored instances", rep.Stats.Errors)
	}
	b.ReportMetric(rep.Throughput, "inst/s")
	reportServiceQueryMetrics(b, rep.Stats)
}

// reportServiceQueryMetrics emits the query layer's hit rates and batch
// shape, so the output exposes sharing trajectories (zeros when off).
func reportServiceQueryMetrics(b *testing.B, st decisionflow.ServiceStats) {
	b.Helper()
	if st.Launched > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Launched), "cache-hit-rate")
		b.ReportMetric(float64(st.DedupHits)/float64(st.Launched), "dedup-rate")
	}
	if st.Batches > 0 {
		b.ReportMetric(st.AvgBatchSize(), "queries/batch")
	}
}

// BenchmarkServiceThroughputShared is BenchmarkServiceThroughput with the
// query layer fully on (batch+dedup+cache) through the facade: identical
// instances of the 64-node pattern, so cache hits dominate after warmup.
func BenchmarkServiceThroughputShared(b *testing.B) {
	g := gen.Generate(gen.Default())
	svc := decisionflow.NewService(decisionflow.ServiceConfig{
		Query: decisionflow.QueryConfig{
			BatchSize: 32,
			Dedup:     true,
			CacheSize: 4096,
		},
	})
	defer svc.Close()
	stdruntime.GC() // clean heap: keep prior benchmarks' GC debt out of the window
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := decisionflow.RunLoad(svc, decisionflow.ServiceLoad{
		Schema:   g.Schema,
		Sources:  g.SourceValues(),
		Strategy: decisionflow.MustParseStrategy("PSE100"),
		Count:    b.N,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Stats.Errors > 0 {
		b.Fatalf("%d errored instances", rep.Stats.Errors)
	}
	b.ReportMetric(rep.Throughput, "inst/s")
	reportServiceQueryMetrics(b, rep.Stats)
}

// BenchmarkOpenWorkload measures a 60-instance Poisson workload against
// the simulated database.
func BenchmarkOpenWorkload(b *testing.B) {
	g := gen.Generate(gen.Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := engine.RunOpenWorkload(engine.OpenWorkload{
			Schema:      g.Schema,
			Sources:     g.SourceValues(),
			Strategy:    engine.MustParseStrategy("PCE100"),
			DB:          simdb.DefaultParams(),
			ArrivalRate: experiments.Fig9bThroughput,
			Instances:   60,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
