package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// strategy is the optimization strategy every workload runs under.
const strategy = "PSE100"

// tenant tags every request so the daemon's admission counters for this
// run are readable from /v1/stats.
const tenant = "bench"

// sharedFlags is the production-shaped daemon configuration of the two
// shared_* workloads: a 2x2 cluster of 500us+50us/unit latency backends
// under the full query layer.
var sharedFlags = []string{
	"-backend", "latency", "-base", "500us", "-perunit", "50us", "-jitter", "0.2",
	"-batch", "32", "-window", "200us", "-dedup", "-cache", "8192",
	"-shards", "2", "-replicas", "2",
}

// workload is one traffic mix. OpenRate is a constant of the benchmark,
// never derived from a measurement, so the open-loop figures of two
// commits are taken at the same offered load.
type workload struct {
	Name     string
	Wire     string // "http" or "dfbin"
	Flow     string // built-in flow served by the daemon
	Batch    int    // instances per request
	Daemon   []string
	Vectors  int  // distinct source vectors
	Zipf     bool // draw vectors Zipf(1.01) instead of cycling through them
	OpenRate float64
	// WarmSlice is how many requests one warm-up slice sends; warm-up
	// ends when two consecutive slices see the same cache-hit ratio.
	WarmSlice int
	// Peak is the nominal closed-loop request rate -sweep scales.
	Peak float64
}

var workloads = []workload{
	{Name: "http_direct", Wire: "http", Flow: "quickstart", Batch: 16,
		Vectors: 1024, OpenRate: 800, WarmSlice: 400, Peak: 2500},
	{Name: "engine_pattern", Wire: "dfbin", Flow: "pattern", Batch: 16,
		Vectors: 1024, OpenRate: 250, WarmSlice: 150, Peak: 800},
	{Name: "shared_hot", Wire: "dfbin", Flow: "quickstart", Batch: 64, Daemon: sharedFlags,
		Vectors: 1024, OpenRate: 800, WarmSlice: 400, Peak: 2300},
	{Name: "shared_zipf", Wire: "dfbin", Flow: "quickstart", Batch: 64, Daemon: sharedFlags,
		Vectors: 262144, Zipf: true, OpenRate: 100, WarmSlice: 100, Peak: 300},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one prebuilt batch: the wire form the client sends and the
// vector index behind each instance, for checking the answers.
type request struct {
	req     api.BatchRequest
	vectors []int32
}

// inputs is everything a run sends and expects, made from the seed before
// any clock starts: the timed loops do no RNG and build no requests.
type inputs struct {
	schema   *core.Schema
	targets  []string
	requests []request
	// expected[v] holds vector v's oracle target values, in targets order.
	expected map[int32][]value.Value
	// base are the flow's default source bindings, which every vector
	// shifts.
	base map[string]value.Value
	// arrivals are the due times of each open window, offsets from its
	// start.
	arrivals [][]time.Duration
}

// zipfRequests is how many distinct requests the Zipf workload prebuilds;
// the loops cycle through them, far fewer times than the cache turns over.
const zipfRequests = 8192

// makeInputs builds the request sequence, the oracle answers and the
// Poisson schedule of one run. The same seed gives the same inputs.
func makeInputs(w workload, seed int64, openWindows int) (*inputs, error) {
	schema, base, err := flows.ByName(w.Flow)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		schema:   schema,
		base:     base,
		expected: make(map[int32][]value.Value),
	}
	for _, id := range schema.Targets() {
		in.targets = append(in.targets, schema.Attr(id).Name)
	}
	rng := rand.New(rand.NewSource(seed))

	// The vector order: a seeded permutation walked round-robin, or
	// seeded Zipf draws.
	var order []int32
	if w.Zipf {
		z := rand.NewZipf(rng, 1.01, 1, uint64(w.Vectors-1))
		order = make([]int32, zipfRequests*w.Batch)
		for i := range order {
			order[i] = int32(z.Uint64())
		}
	} else {
		if w.Vectors%w.Batch != 0 {
			return nil, fmt.Errorf("workload %s: %d vectors do not fill batches of %d", w.Name, w.Vectors, w.Batch)
		}
		order = make([]int32, w.Vectors)
		for i, v := range rng.Perm(w.Vectors) {
			order[i] = int32(v)
		}
	}

	wire := make(map[int32]map[string]any)
	for _, v := range order {
		if _, ok := wire[v]; ok {
			continue
		}
		src := in.sources(v)
		wire[v] = api.EncodeSources(src)
		sn := snapshot.Complete(schema, src)
		exp := make([]value.Value, len(in.targets))
		for j, id := range schema.Targets() {
			exp[j] = sn.Val(id)
		}
		in.expected[v] = exp
	}
	for lo := 0; lo < len(order); lo += w.Batch {
		r := request{
			req:     api.BatchRequest{Schema: w.Flow, Strategy: strategy, Sources: make([]map[string]any, w.Batch)},
			vectors: order[lo : lo+w.Batch],
		}
		for k, v := range r.vectors {
			r.req.Sources[k] = wire[v]
		}
		in.requests = append(in.requests, r)
	}
	for range openWindows {
		in.arrivals = append(in.arrivals, poisson(rng, w.OpenRate, openLength))
	}
	return in, nil
}

// sources returns vector v's bindings by the flows.Spread rule: every
// integer source of the base bindings moves by v.
func (in *inputs) sources(v int32) map[string]value.Value {
	m := make(map[string]value.Value, len(in.base))
	for name, val := range in.base {
		if iv, ok := val.AsInt(); ok {
			m[name] = value.Int(iv + int64(v))
		} else {
			m[name] = val
		}
	}
	return m
}

// poisson draws the due times of a Poisson process of the given rate over
// the duration.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// check counts the instances of one response that match the oracle. A
// missing result, an instance error or a differing target value is a
// failed instance.
func (in *inputs) check(r *request, results []api.EvalResult) (ok int) {
	if len(results) != len(r.vectors) {
		return 0
	}
	for k, res := range results {
		if res.Error != "" {
			continue
		}
		exp := in.expected[r.vectors[k]]
		match := len(res.Values) == len(exp)
		for j, name := range in.targets {
			if !match {
				break
			}
			got, present := res.Values[name]
			v, err := api.FromJSON(got)
			match = present && err == nil && value.Identical(v, exp[j])
		}
		if match {
			ok++
		}
	}
	return ok
}
