package runtime

import (
	"testing"
	"time"
)

// The golden suite for Stats.String: the report is rendered in one
// strings.Builder pass, and these fixtures pin the exact output — any new
// line (per-shard cluster lines included) must show up here deliberately,
// not mangle the format silently.

func baseGoldenStats() Stats {
	return Stats{
		Submitted: 1200, Completed: 1000, Errors: 2,
		Work: 5000, WastedWork: 120, Launched: 2500, SynthesisRuns: 800,
		P50: 2 * time.Millisecond, P95: 9 * time.Millisecond,
		P99: 14 * time.Millisecond, Max: 40 * time.Millisecond,
		AvgLatency: 2500 * time.Microsecond,
	}
}

func TestStatsStringGolden(t *testing.T) {
	cases := []struct {
		name string
		st   func() Stats
		want string
	}{
		{
			name: "base",
			st:   baseGoldenStats,
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms",
		},
		{
			name: "with-query-layer",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 1500
				st.Batches = 300
				st.DedupHits = 600
				st.CacheHits = 400
				st.CacheMisses = 1500
				st.CutSize, st.CutWindow, st.CutQuiescent = 40, 10, 250
				st.AdmissionParked = 7
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=1500 batches=300 avg-batch=5.0 dedup-hits=600 cache-hit/miss=400/1500\n" +
				"batch cuts: size=40 window=10 quiescent=250 admission-parked=7",
		},
		{
			name: "with-cluster",
			st: func() Stats {
				st := baseGoldenStats()
				st.Cluster = &ClusterStats{
					Shards: 2, Replicas: 2,
					Hedges: 50, HedgeWins: 30, Retries: 7, Timeouts: 3,
					Errors: 9, BreakerTrips: 1, Failed: 2,
					Replica: [][]ReplicaStats{
						{{Queries: 700, Errors: 9, Timeouts: 3, BreakerTrips: 1}, {Queries: 650}},
						{{Queries: 600}, {Queries: 610}},
					},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"cluster: shards=2 replicas=2 hedges=30/50 won retries=7 timeouts=3 breaker-trips=1 failed=2\n" +
				"  shard 0: r0[q=700 err=9 to=3 trips=1] r1[q=650 err=0 to=0 trips=0]\n" +
				"  shard 1: r0[q=600 err=0 to=0 trips=0] r1[q=610 err=0 to=0 trips=0]",
		},
		{
			name: "with-peer-tier",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 900
				st.Batches = 200
				st.DedupHits = 300
				st.CacheHits = 500
				st.CacheMisses = 900
				st.PeerForwards = 800
				st.PeerFallbacks = 25
				st.PeerServed = 750
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=900 batches=200 avg-batch=4.5 dedup-hits=300 cache-hit/miss=500/900\n" +
				"peer tier: forwards=800 fallbacks=25 served=750",
		},
		{
			name: "with-shadow",
			st: func() Stats {
				st := baseGoldenStats()
				st.ShadowSubmitted = 120
				st.ShadowCompleted = 118
				st.ShadowErrors = 1
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"shadow: submitted=120 completed=118 errors=1",
		},
		{
			name: "with-tenants",
			st: func() Stats {
				st := baseGoldenStats()
				st.Tenants = map[string]TenantStats{
					"beta": {Completed: 400, Errors: 2,
						P50: time.Millisecond, P99: 8 * time.Millisecond, Max: 20 * time.Millisecond},
					"alpha": {Completed: 600,
						P50: 3 * time.Millisecond, P99: 15 * time.Millisecond, Max: 40 * time.Millisecond},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"tenant alpha: completed=600 errors=0 p50=3ms p99=15ms max=40ms\n" +
				"tenant beta: completed=400 errors=2 p50=1ms p99=8ms max=20ms",
		},
		{
			name: "everything",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 10
				st.Batches = 10
				st.Cluster = &ClusterStats{
					Shards: 1, Replicas: 1,
					Replica: [][]ReplicaStats{{{Queries: 10}}},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=10 batches=10 avg-batch=1.0 dedup-hits=0 cache-hit/miss=0/0\n" +
				"cluster: shards=1 replicas=1 hedges=0/0 won retries=0 timeouts=0 breaker-trips=0 failed=0\n" +
				"  shard 0: r0[q=10 err=0 to=0 trips=0]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.st().String(); got != tc.want {
				t.Errorf("Stats.String mismatch\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestStatsLayers: Layers is String's middle — no totals, no tenants —
// and empty when no layer saw traffic.
func TestStatsLayers(t *testing.T) {
	st := baseGoldenStats()
	if got := st.Layers(); got != "" {
		t.Fatalf("Layers without traffic = %q, want empty", got)
	}
	st.BackendQueries, st.Batches = 10, 10
	st.Cluster = &ClusterStats{Shards: 1, Replicas: 1, Replica: [][]ReplicaStats{{{Queries: 10}}}}
	st.Tenants = map[string]TenantStats{"alpha": {Completed: 600}}
	want := "query layer: backend=10 batches=10 avg-batch=1.0 dedup-hits=0 cache-hit/miss=0/0\n" +
		"cluster: shards=1 replicas=1 hedges=0/0 won retries=0 timeouts=0 breaker-trips=0 failed=0\n" +
		"  shard 0: r0[q=10 err=0 to=0 trips=0]"
	if got := st.Layers(); got != want {
		t.Fatalf("Layers mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}
