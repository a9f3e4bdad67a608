package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// sweepFractions are the offered rates of a sweep, as shares of the
// workload's nominal peak request rate.
var sweepFractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.1}

// sweepStep is how long the open loop runs at each rate.
const sweepStep = 5 * time.Second

// sweep prints the latency-against-offered-load curve of one workload
// and its knee: the highest rate whose p90 from the due time stays
// within five closed-loop medians and whose backlog does not grow. It is
// for people; nothing gates on it.
func sweep(ctx context.Context, cfg runConfig) error {
	in, err := makeInputs(cfg.w, cfg.seed, 0)
	if err != nil {
		return err
	}
	res := &result{Phases: map[string]phaseCount{}}
	s, err := setUp(ctx, cfg, in, res)
	if err != nil {
		return err
	}
	closed := s.drv.closed(ctx, 4*windowLength)
	res.count("closed", closed)
	sent, _ := closed.counts()
	s.sent += sent
	p50 := percentile(latencies(closed.all()), 0.5)
	fmt.Printf("%s: closed-loop req_p50 %.3f ms; p90 limit %.3f ms; nominal peak %.0f req/s\n",
		cfg.w.Name, ms(p50), ms(5*p50), cfg.w.Peak)
	fmt.Printf("%10s %9s %9s %9s %12s %12s %14s\n", "req/s", "p50 ms", "p90 ms", "p99 ms", "late p50 ms", "late p99 ms", "backlog ms/s")

	rng := rand.New(rand.NewSource(cfg.seed))
	knee := 0.0
	for _, f := range sweepFractions {
		rate := f * cfg.w.Peak
		open := s.drv.open(ctx, poisson(rng, rate, sweepStep))
		res.count("open", open)
		sent, _ := open.counts()
		s.sent += sent
		lats := latencies(open.all())
		samples := open.all()
		slices.SortFunc(samples, func(a, b sample) int { return int(a.due - b.due) })
		var late []time.Duration
		for _, sm := range samples {
			late = append(late, sm.sent-sm.due)
		}
		growth := backlogGrowth(late, sweepStep)
		slices.Sort(late)
		fmt.Printf("%10.0f %9.3f %9.3f %9.3f %12.3f %12.3f %14.3f\n", rate,
			ms(percentile(lats, 0.5)), ms(percentile(lats, 0.9)), ms(percentile(lats, 0.99)),
			ms(percentile(late, 0.5)), ms(percentile(late, 0.99)), growth)
		if percentile(lats, 0.9) <= 5*p50 && growth < 1 {
			knee = rate
		}
	}
	fmt.Printf("knee: %.0f req/s (%.0f inst/s)\n", knee, knee*float64(cfg.w.Batch))
	s.tearDown(ctx, res)
	for _, p := range res.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	if res.Failed > 0 || len(res.Problems) > 0 {
		return fmt.Errorf("%d failed instances, %d broken identities", res.Failed, len(res.Problems))
	}
	return nil
}

// backlogGrowth is how fast the generator's lateness grew over a phase,
// in milliseconds of lateness per second of run: the mean lateness of
// the last quarter of the arrivals minus that of the first, over the
// time between them. late is in due order. A queue that keeps up hovers
// around zero; one that falls behind grows by about a millisecond per
// millisecond of missing capacity.
func backlogGrowth(late []time.Duration, over time.Duration) float64 {
	q := len(late) / 4
	if q == 0 {
		return 0
	}
	mean := func(part []time.Duration) float64 {
		var sum time.Duration
		for _, d := range part {
			sum += d
		}
		return ms(sum) / float64(len(part))
	}
	return (mean(late[len(late)-q:]) - mean(late[:q])) / (0.75 * over.Seconds())
}
