package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the program reads: the contract
// between it and whoever runs it. The program takes its metric lists from
// it, so the two cannot name different metrics; the unit of each metric
// is fixed here in code and checked against it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

// rung names one step of the cost ladder. Each emits its cost, an
// _allocs twin and a _delta twin: what it adds over the rung below it.
type rung struct {
	name string
	unit string // of the cost and of the delta
}

var rungs = []rung{
	{"expr.cond_ns_per_eval", "ns"},
	{"engine.core_us_per_inst", "us"},
	{"runtime.service_us_per_inst", "us"},
	{"runtime.query_hit_us_per_inst", "us"},
	{"runtime.query_miss_us_per_inst", "us"},
	{"runtime.cluster_us_per_inst", "us"},
	{"api.bin_batch_codec_us_per_inst", "us"},
	{"api.json_batch_codec_us_per_inst", "us"},
	{"server.dfbin_batch_us_per_inst", "us"},
	{"server.dfbin_single_us_per_req", "us"},
	{"server.http_batch_us_per_inst", "us"},
	{"server.http_single_us_per_req", "us"},
}

// units gives every metric this program emits its unit.
var units = func() map[string]string {
	u := map[string]string{
		// End to end.
		"setup_s":       "s",
		"inst_per_s":    "inst/s",
		"req_p50_ms":    "ms",
		"req_p90_ms":    "ms",
		"open_p50_ms":   "ms",
		"work_per_inst": "units",
		// Per layer, from the daemon's counters and the load generator.
		"load.gen_late_p50_ms":         "ms",
		"load.gen_late_p99_ms":         "ms",
		"load.sleep_overshoot_p50_ms":  "ms",
		"load.req_p99_ms":              "ms",
		"load.open_p90_ms":             "ms",
		"load.open_p99_ms":             "ms",
		"load.requests":                "count",
		"client.cpu_us_per_inst":       "us",
		"client.roundtrip_self_p50_ms": "ms",
		"dfsd.cpu_us_per_inst":         "us",
		"dfsd.rss_mb":                  "MB",
		"dfsd.cores_busy":              "cores",
		"server.accepted":              "count",
		"server.shed":                  "count",
		"server.svc_p50_ms":            "ms",
		"server.svc_p99_ms":            "ms",
		"runtime.launched_per_inst":    "queries",
		"runtime.synth_per_inst":       "runs",
		"runtime.wasted_per_inst":      "units",
		"runtime.backend_q_per_inst":   "queries",
		"runtime.cache_hit_ratio":      "ratio",
		"runtime.dedup_ratio":          "ratio",
		"runtime.avg_batch":            "queries",
		"runtime.batches_per_inst":     "batches",
		"cluster.subbatches_per_batch": "ratio",
		"cluster.replica_skew":         "ratio",
		"cluster.hedges":               "count",
		"cluster.retries":              "count",
		"cluster.timeouts":             "count",
		"trace.overhead_share":         "ratio",
	}
	for _, r := range rungs {
		u[r.name] = r.unit
		u[r.name+"_allocs"] = "allocs"
		u[r.name+"_delta"] = "us"
	}
	return u
}()
