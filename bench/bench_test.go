package main

import (
	"context"
	"math"
	"path/filepath"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/snapshot"
)

func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return w
}

// sequence flattens the vector order of the prebuilt requests.
func sequence(in *inputs) []int32 {
	var out []int32
	for _, r := range in.requests {
		out = append(out, r.vectors...)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"http_direct", "shared_zipf"} {
		w := testWorkload(t, name)
		if w.Zipf {
			w.Vectors = 4096 // fewer oracle answers to compute; same draw code
		}
		a, err := makeInputs(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7, 2)
		c, _ := makeInputs(w, 8, 2)
		if !slices.Equal(a.arrivals[1], b.arrivals[1]) || !slices.Equal(sequence(a), sequence(b)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if slices.Equal(a.arrivals[0], c.arrivals[0]) || slices.Equal(sequence(a), sequence(c)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
		if slices.Equal(a.arrivals[0], a.arrivals[1]) {
			t.Errorf("%s: two open windows of one run share a schedule", name)
		}
		for _, arr := range a.arrivals {
			if !slices.IsSorted(arr) || len(arr) == 0 || arr[len(arr)-1] >= openLength {
				t.Errorf("%s: arrival schedule empty, out of order or past its window", name)
			}
			// The schedule keeps the workload's rate, within sampling error.
			if got, want := float64(len(arr)), w.OpenRate*openLength.Seconds(); math.Abs(got-want) > 5*math.Sqrt(want) {
				t.Errorf("%s: %v arrivals in %v at %v req/s", name, got, openLength, w.OpenRate)
			}
		}
	}
}

func TestEstimators(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(ten); m != 5.5 {
		t.Errorf("median = %v; want 5.5", m)
	}
	if s := spread(ten); s != 1 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5", s)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	sorted := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d; want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}

	// A window of 3 requests of 10 instances over 2 seconds; one request
	// lost an instance.
	at := func(end, lat time.Duration, ok int) sample {
		return sample{due: end - lat, sent: end - lat, end: end, ok: ok, n: 10}
	}
	msec := time.Millisecond
	var w window
	w.measure([]sample{at(100*msec, 5*msec, 10), at(900*msec, 7*msec, 9), at(1900*msec, 9*msec, 10)}, 2*time.Second)
	if w.InstPerS != 14.5 || w.Requests != 2 || w.P50Ms != 5 || w.P90Ms != 9 {
		t.Errorf("window = %+v; want 14.5 inst/s from 2 verified requests, p50 5ms, p90 9ms", w)
	}

	// Over windows: per kind, the best decile by nearest rank, which of
	// twelve windows is the second best: a disturbed window never moves
	// it, and a single fast outlier does not set it.
	ws := []window{{Kind: "open", InstPerS: 1, P50Ms: 1}}
	for i := range 12 {
		ws = append(ws, window{Kind: "closed", InstPerS: float64(100 - i), P50Ms: float64(5 + i)})
	}
	ws[5].InstPerS, ws[5].P50Ms = 10, 300 // a neighbour's burst
	rate := func(w window) float64 { return w.InstPerS }
	p50 := func(w window) float64 { return w.P50Ms }
	if m := overWindows(ws, "closed", true, rate); m != 99 {
		t.Errorf("rate over closed windows = %v; want 99, the second highest", m)
	}
	if m := overWindows(ws, "closed", false, p50); m != 6 {
		t.Errorf("p50 over closed windows = %v; want 6, the second lowest", m)
	}
	if m := overWindows(ws, "open", false, p50); m != 1 {
		t.Errorf("over the one open window = %v; want 1", m)
	}
}

// oracleEval answers batches correctly without a daemon.
func oracleEval(in *inputs) evalFunc {
	return func(_ context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
		out := make([]api.EvalResult, len(req.Sources))
		for i, src := range req.Sources {
			vals, err := api.DecodeSources(src)
			if err != nil {
				return nil, err
			}
			sn := snapshot.Complete(in.schema, vals)
			out[i].Values = map[string]any{}
			for _, id := range in.schema.Targets() {
				out[i].Values[in.schema.Attr(id).Name] = api.ToJSON(sn.Val(id))
			}
		}
		return out, nil
	}
}

// A transport that stalls once must not hide the stall: requests due
// while it lasted are timed from when they were due, so each reports at
// least what was left of the stall at that moment.
func TestOpenLoopCountsTheStall(t *testing.T) {
	in, err := makeInputs(testWorkload(t, "http_direct"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	answer := oracleEval(in)
	d := &driver{in: in, evals: []evalFunc{func(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return answer(ctx, req)
	}}}
	var arrivals []time.Duration
	for due := time.Duration(0); due < 2*stall; due += 10 * time.Millisecond {
		arrivals = append(arrivals, due)
	}
	p := d.open(context.Background(), arrivals)
	samples := p.all()
	if len(samples) != len(arrivals) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(arrivals))
	}
	during := 0
	for _, s := range samples {
		if s.ok != s.n {
			t.Fatalf("request due at %v failed", s.due)
		}
		if s.due < stall {
			during++
			if s.latency() < stall-s.due {
				t.Errorf("request due at %v reports %v, less than the %v of stall left", s.due, s.latency(), stall-s.due)
			}
		}
	}
	if during != 20 {
		t.Errorf("%d requests were due during the stall; want 20", during)
	}
	// Requests due well after the stall are on time again.
	last := samples[len(samples)-1]
	if last.latency() > stall/2 {
		t.Errorf("request due at %v still reports %v", last.due, last.latency())
	}
}

func TestWrongAnswerIsAFailedInstance(t *testing.T) {
	in, err := makeInputs(testWorkload(t, "http_direct"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	answer := oracleEval(in)
	var calls atomic.Int64
	d := &driver{in: in, evals: []evalFunc{func(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
		out, err := answer(ctx, req)
		switch calls.Add(1) {
		case 2:
			out[3].Values[in.targets[0]] = "not the oracle's answer"
		case 3:
			out[0].Error = "instance failed"
		case 4:
			out = out[1:]
		}
		return out, err
	}}}
	p := d.burst(context.Background(), 5)
	attempted, ok := p.counts()
	batch := len(in.requests[0].vectors)
	if want := 5*batch - 1 - 1 - batch; attempted != 5*batch || ok != want {
		t.Errorf("attempted=%d ok=%d; want %d and %d", attempted, ok, 5*batch, want)
	}
	if n := len(latencies(p.all())); n != 2 {
		t.Errorf("%d requests count towards latency; want the 2 fully verified ones", n)
	}
	res := &result{Phases: map[string]phaseCount{}}
	res.count("burst", p)
	if res.Failed != batch+2 || res.Attempted != 5*batch {
		t.Errorf("result counts %d failed of %d", res.Failed, res.Attempted)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestManifestMatchesProgram(t *testing.T) {
	mf, err := loadManifest(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared []string
	for _, w := range mf.Workloads {
		declared = append(declared, w.Name)
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	var built []string
	for _, w := range workloads {
		built = append(built, w.Name)
	}
	if !slices.Equal(declared, built) {
		t.Errorf("BENCHMARK.json runs %v, the program %v", declared, built)
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(mf.EndToEnd), mf.PerLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if unit, ok := units[d.Name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which the program does not emit", d.Name)
		} else if unit != d.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for n := range units {
		if !seen[n] {
			t.Errorf("the program emits %s, which BENCHMARK.json does not declare", n)
		}
	}
	for _, d := range mf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !slices.ContainsFunc(mf.EndToEnd, func(d metricDef) bool {
		return d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}) {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	if v := judge(lower, steady, []float64{1.05, 1.04, 1.06, 1.05, 1.05}); v.flag != "" {
		t.Errorf("5%% worse within a 10%% bound flagged %q", v.flag)
	}
	if v := judge(lower, steady, []float64{1.25, 1.24, 1.26, 1.25, 1.25}); v.flag != "REGRESSED" {
		t.Errorf("25%% worse flagged %q", v.flag)
	}
	if v := judge(lower, steady, []float64{0.7, 1.3, 0.9, 1.2, 1.0}); v.flag != "unresolved" {
		t.Errorf("a spread wider than the bound flagged %q", v.flag)
	}
	higher := metricDef{Name: "inst_per_s", Better: "higher", Bound: 0.10}
	if v := judge(higher, steady, []float64{0.8, 0.81, 0.79, 0.8, 0.8}); v.flag != "REGRESSED" || v.worse < 0.19 {
		t.Errorf("20%% fewer inst/s: %+v", v)
	}
}
