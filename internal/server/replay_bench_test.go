package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/flows"
	"repro/internal/runtime"
	"repro/internal/value"
)

// replayFixturePath is the committed capture fixture the replay
// benchmarks cycle: 256 quickstart instances across 4 tenants at a
// 250µs recorded inter-arrival gap, digests computed by deterministic
// virtual execution. TestReplayFixtureDeterministic regenerates it in
// memory on every run and fails on any byte of drift, so the committed
// file can never silently disagree with the encoder or the engine.
const replayFixturePath = "testdata/capture_mixed.dfcap"

const (
	replayFixtureRecords = 256
	replayFixtureTenants = 4
	replayFixtureGapNs   = 250_000 // recorded pace: 4k inst/s across tenants
)

// generateReplayFixture builds the fixture capture byte-for-byte: every
// input is fixed, every digest comes from engine.Run on the simulated
// clock, so two generations anywhere produce identical bytes.
func generateReplayFixture(tb testing.TB) []byte {
	tb.Helper()
	s, _, err := flows.ByName("quickstart")
	if err != nil {
		tb.Fatal(err)
	}
	st, err := engine.ParseStrategy("PSE100")
	if err != nil {
		tb.Fatal(err)
	}
	buf := []byte(api.CaptureMagic)
	for i := 0; i < replayFixtureRecords; i++ {
		src := quickstartSources(i)
		names := make([]string, 0, len(src))
		for name := range src {
			names = append(names, name)
		}
		sort.Strings(names)
		rec := api.CaptureRecord{
			MonoNs:      uint64(i) * replayFixtureGapNs,
			WallNs:      1_700_000_000_000_000_000 + uint64(i)*replayFixtureGapNs,
			Tenant:      fmt.Sprintf("tenant-%d", i%replayFixtureTenants),
			Schema:      s.Name(),
			Version:     1,
			Fingerprint: s.Fingerprint(),
			Strategy:    st.String(),
			Digest:      capture.DigestResult(s, engine.Run(s, src, st)),
		}
		for _, name := range names {
			rec.Sources = append(rec.Sources, api.CaptureSource{Name: name, Val: src[name]})
		}
		buf = api.AppendCaptureRecord(buf, &rec)
	}
	return buf
}

// TestReplayFixtureDeterministic pins the committed fixture to its
// generator. Refresh with REGEN_FIXTURE=1 go test ./internal/server
// -run TestReplayFixtureDeterministic — any other drift is a codec or
// engine determinism break.
func TestReplayFixtureDeterministic(t *testing.T) {
	want := generateReplayFixture(t)
	if os.Getenv("REGEN_FIXTURE") != "" {
		if err := os.MkdirAll(filepath.Dir(replayFixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayFixturePath, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %d bytes", replayFixturePath, len(want))
	}
	got, err := os.ReadFile(replayFixturePath)
	if err != nil {
		t.Fatalf("committed fixture missing (regenerate with REGEN_FIXTURE=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("committed fixture (%d bytes) != deterministic regeneration (%d bytes)", len(got), len(want))
	}
	res, err := capture.Read(replayFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != replayFixtureRecords {
		t.Fatalf("fixture has %d records, want %d", len(res.Records), replayFixtureRecords)
	}
}

// benchReplayMixedTenants replays the committed fixture against the
// production-shaped stack the way dfreplay does: per-tenant clients,
// open-loop Arrivals at the recorded inter-arrival gaps (compressed so
// pacing exercises the schedule without throttling the measurement),
// and a digest comparison on every result. It is the one guarded
// benchmark whose offered load is a recorded trace rather than a
// Poisson process or a closed loop.
func benchReplayMixedTenants(b *testing.B, binary bool) {
	res, err := capture.Read(replayFixturePath)
	if err != nil {
		b.Fatal(err)
	}
	recs := res.Records
	byTenant := map[string][]int{}
	for i := range recs {
		byTenant[recs[i].Tenant] = append(byTenant[recs[i].Tenant], i)
	}

	svc := runtime.New(runtime.Config{
		Backend: runtime.Instant{},
		Query: runtime.QueryConfig{
			BatchSize:   32,
			BatchWindow: 200 * time.Microsecond,
			Dedup:       true,
			CacheSize:   65536,
		},
	})
	srv := New(Config{Service: svc})
	var addr string
	if binary {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.ServeBinary(ln)
		addr = "dfbin://" + ln.Addr().String()
	} else {
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		addr = hs.URL
	}
	defer srv.Drain(context.Background())

	// The recorded schedule cycles: instance i of a tenant replays its
	// (i mod n)-th record, shifted by whole fixture spans, compressed
	// 2000x so the schedule always runs ahead of serving.
	const speed = 2000.0
	span := uint64(replayFixtureRecords) * replayFixtureGapNs
	base := recs[0].MonoNs
	tenants := make([]string, 0, len(byTenant))
	for tenant := range byTenant {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	clients := map[string]*client.Client{}
	for _, tenant := range tenants {
		c, err := client.New(addr, client.WithTenant(tenant), client.WithMaxConns(64))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[tenant] = c
	}

	var diverged atomic.Int64
	run := func(count int) int {
		var wg sync.WaitGroup
		fired := 0
		for _, tenant := range tenants {
			idx := byTenant[tenant]
			share := max(1, count/len(tenants))
			fired += share
			wg.Add(1)
			go func(c *client.Client, idx []int, share int) {
				defer wg.Done()
				rep, err := client.RunLoad(context.Background(), c, client.Load{
					Schema: "quickstart",
					Count:  share,
					SourcesFor: func(i int) map[string]value.Value {
						return sourcesOf(&recs[idx[i%len(idx)]])
					},
					Arrivals: func(i int) time.Duration {
						rec := &recs[idx[i%len(idx)]]
						cycle := uint64(i / len(idx))
						return time.Duration(float64(rec.MonoNs-base+cycle*span) / speed)
					},
					OnResult: func(i int, res api.EvalResult, err error) {
						if err != nil {
							return // surfaces as rep.Failed below
						}
						got, derr := capture.DigestEval(&res)
						if derr != nil || got != recs[idx[i%len(idx)]].Digest {
							diverged.Add(1)
						}
					},
				})
				if err != nil || rep.Failed > 0 || rep.Errors > 0 {
					panic(fmt.Sprintf("replay load not clean: %v %+v", err, rep))
				}
			}(clients[tenant], idx, share)
		}
		wg.Wait()
		return fired
	}

	run(4 * replayFixtureRecords) // warm connections, cache, schema state
	if diverged.Load() > 0 {
		b.Fatalf("%d digests diverged during warmup: replay is not faithful", diverged.Load())
	}
	svc.ResetStats()
	stdruntime.GC()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	fired := run(b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	if diverged.Load() > 0 {
		b.Fatalf("%d digests diverged: the server no longer decides what the capture recorded", diverged.Load())
	}
	if elapsed > 0 {
		b.ReportMetric(float64(fired)/elapsed.Seconds(), "inst/s")
	}
}

// BenchmarkReplayMixedTenantsHTTP: recorded-trace replay over HTTP/JSON.
func BenchmarkReplayMixedTenantsHTTP(b *testing.B) { benchReplayMixedTenants(b, false) }

// BenchmarkReplayMixedTenantsBinary: the same trace over the dfbin wire.
func BenchmarkReplayMixedTenantsBinary(b *testing.B) { benchReplayMixedTenants(b, true) }
