package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/hist"
	"repro/internal/value"
)

// Load describes one remote load-generation run: the client-side analogue
// of runtime.Load, driving a server over HTTP instead of a Service
// in-process.
type Load struct {
	// Schema names the registered (or built-in) schema on the server.
	Schema string
	// Strategy is the strategy code ("" = server default).
	Strategy string
	// Sources binds every instance's source attributes.
	Sources map[string]value.Value
	// SourcesFor, if non-nil, overrides Sources per instance (instance i
	// runs SourcesFor(i)); must be safe for concurrent calls.
	SourcesFor func(i int) map[string]value.Value
	// Count is the number of instances to fire.
	Count int
	// Rate > 0 drives a Poisson open workload at that instance rate;
	// Rate <= 0 drives a closed workload at Concurrency outstanding
	// requests.
	Rate float64
	// Concurrency is the closed-workload request parallelism (default
	// 64). Each outstanding request carries BatchSize instances.
	Concurrency int
	// BatchSize groups this many instances per HTTP request (default 1).
	// Batching amortizes HTTP/JSON overhead exactly like the query layer
	// amortizes backend round trips.
	BatchSize int
	// Seed drives the Poisson arrival process.
	Seed int64
	// Arrivals, if non-nil, replaces the Poisson process with an explicit
	// open-loop schedule: the request carrying instance i fires at
	// start+Arrivals(i). Offsets must be non-decreasing in i. This is how
	// dfreplay re-offers a capture at its recorded inter-arrival gaps
	// (scaled or not) instead of a memoryless approximation of them.
	Arrivals func(i int) time.Duration
	// OnResult, if non-nil, observes every instance's outcome: res is the
	// instance result when err is nil, and err is the request-level
	// failure otherwise. Called concurrently from generator goroutines.
	OnResult func(i int, res api.EvalResult, err error)
}

// Report summarizes one remote load run, measured at the client: HTTP
// round-trip latency percentiles (per request, batch included; read from
// a hist.Hist, so each within 1/16 of exact), shed retries observed, and
// throughput in completed instances per second.
type Report struct {
	Instances          int
	Errors             int // instances whose result carried an error
	Failed             int // requests that failed after retries
	Duration           time.Duration
	Throughput         float64 // completed instances / second
	P50, P95, P99, Max time.Duration
	AvgLatency         time.Duration
	OfferedRate        float64
}

// String renders the report for CLI output.
func (r Report) String() string {
	head := fmt.Sprintf("instances=%d duration=%v throughput=%.0f inst/s",
		r.Instances, r.Duration.Round(time.Millisecond), r.Throughput)
	if r.OfferedRate > 0 {
		head += fmt.Sprintf(" (offered %.0f inst/s)", r.OfferedRate)
	}
	line2 := fmt.Sprintf("request latency p50=%v p95=%v p99=%v max=%v avg=%v",
		r.P50, r.P95, r.P99, r.Max, r.AvgLatency)
	if r.Errors > 0 || r.Failed > 0 {
		line2 += fmt.Sprintf(" errors=%d failed-requests=%d", r.Errors, r.Failed)
	}
	return head + "\n" + line2
}

// RunLoad fires the load at the server through the client and reports
// client-observed throughput and latency. Cancelling ctx stops the
// generator and returns the partial report with ctx.Err().
func RunLoad(ctx context.Context, c *Client, l Load) (Report, error) {
	if l.Schema == "" {
		return Report{}, fmt.Errorf("client: load needs a Schema name")
	}
	if l.Count <= 0 {
		return Report{}, fmt.Errorf("client: load needs Count > 0")
	}
	if l.BatchSize <= 0 {
		l.BatchSize = 1
	}
	if l.Concurrency <= 0 {
		l.Concurrency = 64
	}
	r := &runState{c: c, l: l, ctx: ctx}
	start := time.Now()
	if l.Rate > 0 || l.Arrivals != nil {
		r.runOpen()
	} else {
		r.runClosed()
	}
	elapsed := time.Since(start)

	rep := Report{
		Instances:   int(r.completed.Load()),
		Errors:      int(r.errors.Load()),
		Failed:      int(r.failed.Load()),
		Duration:    elapsed,
		OfferedRate: max(l.Rate, 0),
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Instances) / elapsed.Seconds()
	}
	var lat hist.Snapshot
	r.lat.AddTo(&lat)
	rep.P50, rep.P95, rep.P99, rep.Max, rep.AvgLatency = lat.Summary()
	return rep, ctx.Err()
}

// runState is the shared accounting of one load run.
type runState struct {
	c   *Client
	l   Load
	ctx context.Context

	completed atomic.Int64
	errors    atomic.Int64
	failed    atomic.Int64
	lat       hist.Hist
}

// typedSourcesFor returns instance i's typed source bindings.
func (r *runState) typedSourcesFor(i int) map[string]value.Value {
	if r.l.SourcesFor != nil {
		return r.l.SourcesFor(i)
	}
	return r.l.Sources
}

// sourcesFor renders instance i's source bindings for the wire.
func (r *runState) sourcesFor(i int) map[string]any {
	return api.EncodeSources(r.typedSourcesFor(i))
}

// fire executes one request carrying instances [lo, hi) and records it.
func (r *runState) fire(lo, hi int) {
	reqStart := time.Now()
	var results []api.EvalResult
	var err error
	if hi-lo == 1 {
		// EvalValues lets a typed transport (binary) serialize the values
		// straight to the wire; HTTP encodes to JSON inside.
		var res api.EvalResult
		res, err = r.c.EvalValues(r.ctx, r.l.Schema, r.l.Strategy, r.typedSourcesFor(lo))
		results = []api.EvalResult{res}
	} else {
		srcs := make([]map[string]any, 0, hi-lo)
		for i := lo; i < hi; i++ {
			srcs = append(srcs, r.sourcesFor(i))
		}
		results, err = r.c.EvalBatch(r.ctx, api.BatchRequest{
			Schema: r.l.Schema, Strategy: r.l.Strategy, Sources: srcs,
		})
	}
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			r.failed.Add(1)
			if r.l.OnResult != nil {
				for i := lo; i < hi; i++ {
					r.l.OnResult(i, api.EvalResult{}, err)
				}
			}
		}
		return
	}
	lat := time.Since(reqStart)
	r.completed.Add(int64(len(results)))
	for k, res := range results {
		if res.Error != "" {
			r.errors.Add(1)
		}
		if r.l.OnResult != nil {
			r.l.OnResult(lo+k, res, nil)
		}
	}
	r.lat.Observe(lat)
}

// runClosed keeps Concurrency requests outstanding until Count instances
// have been fired.
func (r *runState) runClosed() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.l.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.ctx.Err() == nil {
				lo := int(next.Add(int64(r.l.BatchSize))) - r.l.BatchSize
				if lo >= r.l.Count {
					return
				}
				r.fire(lo, min(lo+r.l.BatchSize, r.l.Count))
			}
		}()
	}
	wg.Wait()
}

// runOpen paces open-loop arrivals — Poisson at the offered rate, or the
// explicit Arrivals schedule when one is set; each arrival is one request
// of BatchSize instances, so the Poisson instance rate is Rate.
func (r *runState) runOpen() {
	var rng *rand.Rand
	if r.l.Arrivals == nil {
		rng = rand.New(rand.NewSource(r.l.Seed))
	}
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for lo := 0; lo < r.l.Count; lo += r.l.BatchSize {
		if r.l.Arrivals != nil {
			next = start.Add(r.l.Arrivals(lo))
		}
		if d := time.Until(next); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-r.ctx.Done():
			}
		}
		if r.ctx.Err() != nil {
			break
		}
		hi := min(lo+r.l.BatchSize, r.l.Count)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r.fire(lo, hi)
		}(lo, hi)
		if rng != nil {
			// Exponential gap scaled by the batch size keeps the instance
			// rate at Rate regardless of batching.
			gap := rng.ExpFloat64() / r.l.Rate * float64(hi-lo) * float64(time.Second)
			next = next.Add(time.Duration(gap))
		}
	}
	wg.Wait()
}
