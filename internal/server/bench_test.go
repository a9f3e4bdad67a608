package server

import (
	"context"
	stdruntime "runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/flows"
)

// benchServe drives the full network stack — typed client, loopback HTTP
// or, when binary is set, real TCP connections speaking dfbin frames,
// tenant admission, server, runtime — on wireStack's production-shaped
// query layer and reports client-observed instances per second. reqBatch
// is the number of instances per request: 1 measures per-request protocol
// overhead, larger values amortize it exactly like `dfserve -remote
// -reqbatch`. The delta between the two wires is exactly the protocol
// cost.
func benchServe(b *testing.B, binary bool, reqBatch int) {
	c := wireStack(b, binary)

	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, 512)
	if err != nil {
		b.Fatal(err)
	}

	// Warm the connection pool, the JIT-shaped schema state, and the
	// attribute cache so the measured window is steady state rather than
	// TCP handshakes.
	if _, err := client.RunLoad(context.Background(), c, client.Load{
		Schema: "quickstart", Sources: sources, SourcesFor: sourcesFor,
		Count: 4096, Concurrency: 64, BatchSize: reqBatch,
	}); err != nil {
		b.Fatal(err)
	}
	stdruntime.GC() // clean heap: keep warmup/prior-benchmark GC debt out of the window

	b.ReportAllocs()
	b.ResetTimer()
	rep, err := client.RunLoad(context.Background(), c, client.Load{
		Schema:      "quickstart",
		Sources:     sources,
		SourcesFor:  sourcesFor,
		Count:       b.N,
		Concurrency: 64,
		BatchSize:   reqBatch,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		b.Fatalf("load run not clean: %+v", rep)
	}
	b.ReportMetric(rep.Throughput, "inst/s")
}

// BenchmarkServeHTTPBatched is the e2e acceptance configuration: 32
// instances per HTTP request (dfserve -remote -reqbatch 32).
func BenchmarkServeHTTPBatched(b *testing.B) { benchServe(b, false, 32) }

// BenchmarkServeHTTPSingle pays the full HTTP/JSON round trip per
// instance — the per-request protocol overhead floor.
func BenchmarkServeHTTPSingle(b *testing.B) { benchServe(b, false, 1) }

// BenchmarkServeBinaryBatched: 32 instances per EvalBatch frame
// (dfserve -remote dfbin://... -reqbatch 32), columnar encoding.
func BenchmarkServeBinaryBatched(b *testing.B) { benchServe(b, true, 32) }

// BenchmarkServeBinarySingle pays one Eval frame round trip per
// instance — the binary protocol's per-request overhead floor, to
// compare against BenchmarkServeHTTPSingle.
func BenchmarkServeBinarySingle(b *testing.B) { benchServe(b, true, 1) }

// BenchmarkServePeerForwarded measures the front-end tier's forwarding
// cost: a 2-node in-process fleet (real TCP between peers), driven over
// dfbin through one node, so roughly half the attribute identities home
// on the other node and every launch of those rides a Forward frame to
// its home's cache/single-flight tables. The delta against
// BenchmarkServeBinaryBatched is the price of fleet-wide sharing.
func BenchmarkServePeerForwarded(b *testing.B) {
	nodes := newFleet(b, fleetOpts{nodes: 2})
	c := fleetClient(b, nodes[0], "bench")

	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, 512)
	if err != nil {
		b.Fatal(err)
	}

	if _, err := client.RunLoad(context.Background(), c, client.Load{
		Schema: "quickstart", Sources: sources, SourcesFor: sourcesFor,
		Count: 4096, Concurrency: 64, BatchSize: 32,
	}); err != nil {
		b.Fatal(err)
	}
	for _, n := range nodes {
		n.svc.ResetStats()
	}
	stdruntime.GC()

	b.ReportAllocs()
	b.ResetTimer()
	rep, err := client.RunLoad(context.Background(), c, client.Load{
		Schema:      "quickstart",
		Sources:     sources,
		SourcesFor:  sourcesFor,
		Count:       b.N,
		Concurrency: 64,
		BatchSize:   32,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Failed > 0 || rep.Errors > 0 {
		b.Fatalf("load run not clean: %+v", rep)
	}
	var forwards, fallbacks uint64
	for _, n := range nodes {
		st := n.svc.Stats()
		forwards += st.PeerForwards
		fallbacks += st.PeerFallbacks
	}
	if b.N > 512 && forwards == 0 {
		b.Fatal("no peer forwards: the benchmark is not measuring the peer tier")
	}
	if fallbacks > 0 {
		b.Fatalf("%d fallbacks on a healthy in-process fleet", fallbacks)
	}
	b.ReportMetric(rep.Throughput, "inst/s")
}
