package runtime

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/value"
)

// Load describes one load-generation run against a Service — the
// wall-clock analogue of the paper's §5 open-workload experiment.
type Load struct {
	// Schema is the decision flow every instance executes.
	Schema *core.Schema
	// Sources are each instance's source-attribute values.
	Sources map[string]value.Value
	// SourcesFor, if non-nil, overrides Sources per instance: instance i
	// runs with SourcesFor(i). It lets a load spread instances over many
	// distinct input vectors — the knob that separates the query layer's
	// dedup/cache hit regime (identical instances) from its batching
	// regime (diverse instances). It must be safe for concurrent calls.
	SourcesFor func(i int) map[string]value.Value
	// Strategy selects the optimization options.
	Strategy engine.Strategy
	// Count is the number of instances to fire.
	Count int
	// Rate > 0 drives an open workload: instances arrive as a Poisson
	// process at Rate instances/second regardless of completions (offered
	// load — latency grows without bound past saturation, exactly as in
	// Figure 9(b)). Rate <= 0 drives a closed workload instead: Concurrency
	// instances are kept outstanding, measuring peak sustainable
	// throughput.
	Rate float64
	// Concurrency is the closed-workload outstanding-instance count
	// (default 4× the service's workers). Ignored when Rate > 0.
	Concurrency int
	// Seed drives the Poisson arrival process.
	Seed int64
}

// Report summarizes one load run.
type Report struct {
	// Stats are the service metrics scoped to this run.
	Stats Stats
	// Duration is first submit to last completion.
	Duration time.Duration
	// Throughput is completed instances per second of Duration.
	Throughput float64
	// OfferedRate echoes Load.Rate for open workloads (0 for closed).
	OfferedRate float64
}

// RunLoad fires the load at the service, waits for every instance to
// complete, and reports throughput and latency. It resets the service's
// stats at the start, so the report covers exactly this run; don't run
// concurrent loads against one service if per-run stats matter.
func RunLoad(s *Service, l Load) (Report, error) {
	return RunLoadContext(context.Background(), s, l)
}

// RunLoadContext is RunLoad with cancellation: once ctx is done the
// generator stops submitting, instances already in flight abort at their
// next step (each Request carries ctx), and the partial report over the
// instances that did complete is returned together with ctx.Err(). A
// Submit error (e.g. the service was closed mid-run) stops the generator
// too and is returned once the instances already submitted are done.
func RunLoadContext(ctx context.Context, s *Service, l Load) (Report, error) {
	if l.Schema == nil {
		return Report{}, fmt.Errorf("runtime: load needs a Schema")
	}
	if l.Count <= 0 {
		return Report{}, fmt.Errorf("runtime: load needs Count > 0")
	}
	conc := l.Concurrency
	if conc <= 0 {
		conc = 4 * s.cfg.Workers
	}
	s.ResetStats()

	// Aborting instances observe ctx themselves; only a cancellable ctx is
	// worth the per-step check.
	reqCtx := ctx
	if ctx.Done() == nil {
		reqCtx = nil
	}
	gen, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	start := time.Now()
	load.Run(gen, load.Plan{Count: l.Count, Rate: l.Rate, Concurrency: conc, Seed: l.Seed},
		func(i, _ int, done func(*engine.Result)) {
			err := s.Submit(Request{Schema: l.Schema, Sources: l.sourcesFor(i), Strategy: l.Strategy, Done: done, Ctx: reqCtx})
			if err != nil {
				stop(err)
				done(nil)
			}
		})
	if err := context.Cause(gen); err != nil && ctx.Err() == nil {
		return Report{}, err // a Submit failed
	}
	elapsed := time.Since(start)

	rep := Report{
		Stats:       s.Stats(),
		Duration:    elapsed,
		OfferedRate: max(l.Rate, 0),
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Stats.Completed) / elapsed.Seconds()
	}
	return rep, ctx.Err()
}

// sourcesFor resolves instance i's source bindings.
func (l *Load) sourcesFor(i int) map[string]value.Value {
	if l.SourcesFor != nil {
		return l.SourcesFor(i)
	}
	return l.Sources
}
