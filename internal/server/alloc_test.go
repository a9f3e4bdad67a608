package server

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/flows"
	"repro/internal/runtime"
)

// Allocation pins for the two wires: one request at a time from the typed
// client through loopback, the server's eval pipeline and the runtime, and
// back, counted with testing.AllocsPerRun across client and server alike.
// The stack is wireStack's, warmed until every launch is a cache hit, so
// the counts are the wire's, not the backend's. The servers
// run with capture off and every failpoint disarmed, so these pins also
// hold both to zero cost: an allocation leaking onto the capture-off eval
// path, or onto the disarmed read and write sites every dfbin connection
// carries, fails here.

// wireAllocs warms req with 200 calls, then reports its mean allocations
// per call over runs runs.
func wireAllocs(t *testing.T, runs int, req func(context.Context) error) float64 {
	t.Helper()
	ctx := context.Background()
	run := func() {
		if err := req(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 { // warm the connection, the schema state and the cache
		run()
	}
	return testing.AllocsPerRun(runs, run)
}

// wireStack starts the benchServe stack — quickstart over an Instant
// backend with batching, dedup and the cache on — on the HTTP wire or,
// when binary is set, on dfbin, and returns a client of it.
func wireStack(t testing.TB, binary bool) *client.Client {
	t.Helper()
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
	t.Cleanup(func() { srv.Drain(context.Background()) })
	addr := ""
	if binary {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeBinary(ln)
		addr = "dfbin://" + ln.Addr().String()
	} else {
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		addr = hs.URL
	}
	c, err := client.New(addr, client.WithTenant("bench"), client.WithMaxConns(128))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// spreadBatch is a batch request of n distinct quickstart source vectors.
func spreadBatch(t *testing.T, n int) api.BatchRequest {
	t.Helper()
	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, n)
	if err != nil {
		t.Fatal(err)
	}
	req := api.BatchRequest{Schema: "quickstart"}
	for i := range n {
		req.Sources = append(req.Sources, api.EncodeSources(sourcesFor(i)))
	}
	return req
}

// TestAllocsWire pins Eval, EvalValues and a 32-instance EvalBatch on
// each wire. HTTP's single evals back BenchmarkServeHTTPSingle and
// BenchmarkReplayMixedTenantsHTTP, its batch BenchmarkServeHTTPBatched;
// dfbin's back the Binary counterparts.
func TestAllocsWire(t *testing.T) {
	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	evalReq := api.EvalRequest{Schema: "quickstart", Sources: api.EncodeSources(sources)}
	batchReq := spreadBatch(t, 32)
	calls := []struct {
		name string
		call func(context.Context, *client.Client) error
	}{
		{"Eval", func(ctx context.Context, c *client.Client) error {
			_, err := c.Eval(ctx, evalReq)
			return err
		}},
		{"EvalValues", func(ctx context.Context, c *client.Client) error {
			_, err := c.EvalValues(ctx, "quickstart", "", sources)
			return err
		}},
		{"EvalBatch32", func(ctx context.Context, c *client.Client) error {
			_, err := c.EvalBatch(ctx, batchReq)
			return err
		}},
	}
	for _, wire := range []struct {
		name   string
		binary bool
		limits [3]float64 // per call, in the order of calls
	}{
		{"HTTP", false, [3]float64{allocsHTTPEval, allocsHTTPEvalValues, allocsHTTPEvalBatch32}},
		{"dfbin", true, [3]float64{allocsBinEval, allocsBinEvalValues, allocsBinEvalBatch32}},
	} {
		for i, call := range calls {
			t.Run(wire.name+"/"+call.name, func(t *testing.T) {
				if raceEnabled {
					t.Skip("the race detector's instrumentation allocates")
				}
				c := wireStack(t, wire.binary)
				got := wireAllocs(t, 500, func(ctx context.Context) error { return call.call(ctx, c) })
				checkWireAllocs(t, got, wire.limits[i])
			})
		}
	}
}

// TestAllocsPeerForwarded pins BenchmarkServePeerForwarded's path: a
// 64-instance dfbin EvalBatch through one node of a 2-node fleet, with
// the launches homed on the other node riding a Forward frame there. The ring orders members by address, and the ports are
// the kernel's, so the test drives the member that sorts last: there the
// identity every instance shares (warehouse_load) is at home, its dedup
// stays local, and the forwards — the tier lookups homed on the peer —
// are 41 per request on every run. Driven from the other member, the
// shared identity is forwarded too, about 119 forwards go out per request
// and how they coalesce on the peer link moves the count by a few
// allocations from run to run. Each run waits for the forwards still on
// the wire, so a straggler's completion is counted in its own run.
func TestAllocsPeerForwarded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	nodes := newFleet(t, fleetOpts{nodes: 2})
	drive := nodes[0]
	if nodes[1].addr > drive.addr {
		drive = nodes[1]
	}
	c := fleetClient(t, drive, "bench")
	req := spreadBatch(t, 64)
	before := drive.svc.Stats().PeerForwards
	got := wireAllocs(t, 100, func(ctx context.Context) error {
		_, err := c.EvalBatch(ctx, req)
		quiesce(nodes)
		return err
	})
	if drive.svc.Stats().PeerForwards == before {
		t.Fatal("no peer forwards: the test is not measuring the peer tier")
	}
	checkWireAllocs(t, got, allocsPeerEvalBatch64)
}

func checkWireAllocs(t *testing.T, got, limit float64) {
	t.Helper()
	t.Logf("%.0f allocs per request (limit %.0f)", got, limit)
	if got > limit {
		t.Fatalf("%.0f allocs per request, want ≤ %.0f", got, limit)
	}
}

// The limits are counts measured with go1.24 on linux/amd64, client and
// server together.
const (
	allocsHTTPEval        = 127
	allocsHTTPEvalValues  = 129
	allocsHTTPEvalBatch32 = 242
	allocsBinEval         = 9
	allocsBinEvalValues   = 9
	allocsBinEvalBatch32  = 139
	allocsPeerEvalBatch64 = 1138
)
