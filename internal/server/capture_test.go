package server

// Eval-capture tests: every admitted eval on either wire lands in the
// capture with a digest that virtual replay reproduces bit-exactly, and
// the writer is fail-open — armed capture failpoints degrade the capture
// (drops counted, stats flagged) while serving latency and correctness
// are untouched. That is deliberately the opposite contract of
// fault_test.go's fail-closed registry: losing a capture record costs a
// counter, lying about durability would cost correctness.

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/flows"
	"repro/internal/runtime"
	"repro/internal/value"
)

// newCaptureStack is a capturing server on both wires.
func newCaptureStack(t *testing.T, dir string, rotateBytes int64) (*Server, *httptest.Server, string) {
	t.Helper()
	svc := runtime.New(runtime.Config{})
	srv, err := Open(Config{Service: svc, CaptureDir: dir, CaptureRotateBytes: rotateBytes})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	t.Cleanup(func() {
		hs.Close()
		if !srv.Draining() {
			srv.Drain(context.Background())
		}
	})
	return srv, hs, "dfbin://" + ln.Addr().String()
}

func quickstartSources(i int) map[string]value.Value {
	_, base, err := flows.ByName("quickstart")
	if err != nil {
		panic(err)
	}
	m := make(map[string]value.Value, len(base))
	for name, v := range base {
		if iv, ok := v.AsInt(); ok {
			m[name] = value.Int(iv + int64(i))
		} else {
			m[name] = v
		}
	}
	return m
}

// TestCaptureBothWiresDigestParity drives every entry point — singles and
// batches over HTTP and dfbin, plus HTTP's async evals and streamed
// batches — drains, reads the capture back, and re-executes every record
// in virtual time: each recorded digest must match the deterministic
// re-execution exactly, whichever entry point recorded it.
func TestCaptureBothWiresDigestParity(t *testing.T) {
	dir := t.TempDir()
	srv, hs, binAddr := newCaptureStack(t, dir, 0)
	ctx := context.Background()

	hc, err := client.New(hs.URL, client.WithTenant("alice"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	bc := binClient(t, binAddr, client.WithTenant("bob"))

	const singles, batch = 8, 8
	for i := 0; i < singles; i++ {
		if res, err := hc.EvalValues(ctx, "quickstart", "", quickstartSources(i)); err != nil || res.Error != "" {
			t.Fatalf("HTTP eval %d: %v %s", i, err, res.Error)
		}
		if res, err := bc.EvalValues(ctx, "quickstart", "", quickstartSources(100+i)); err != nil || res.Error != "" {
			t.Fatalf("binary eval %d: %v %s", i, err, res.Error)
		}
	}
	srcs := make([]map[string]any, batch)
	for i := range srcs {
		srcs[i] = api.EncodeSources(quickstartSources(200 + i))
	}
	for _, c := range []*client.Client{hc, bc} {
		results, err := c.EvalBatch(ctx, api.BatchRequest{Schema: "quickstart", Sources: srcs})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Error != "" {
				t.Fatalf("batch item %d: %s", i, res.Error)
			}
		}
	}
	const async = 4
	for i := 0; i < async; i++ {
		id, err := hc.EvalAsync(ctx, api.EvalRequest{Schema: "quickstart", Sources: api.EncodeSources(quickstartSources(300 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := hc.Result(ctx, id); err != nil || res.Error != "" {
			t.Fatalf("async eval %d: %v %s", i, err, res.Error)
		}
	}
	for i := range srcs {
		srcs[i] = api.EncodeSources(quickstartSources(400 + i))
	}
	streamed := 0
	err = hc.EvalBatchStream(ctx, api.BatchRequest{Schema: "quickstart", Sources: srcs}, func(it api.BatchItem) {
		if it.Error != "" {
			t.Errorf("stream item %d: %s", it.Index, it.Error)
		}
		streamed++
	})
	if err != nil || streamed != batch {
		t.Fatalf("stream: %v, %d of %d items", err, streamed, batch)
	}
	want := 2*singles + 2*batch + async + batch

	if st := srv.CaptureStats(); st == nil || st.Dropped != 0 {
		t.Fatalf("capture stats before drain: %+v", st)
	}
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	got, err := capture.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != want || got.TornFiles != 0 {
		t.Fatalf("capture has %d records (%d torn files), want %d", len(got.Records), got.TornFiles, want)
	}
	sch, _, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string]int{}
	for i := range got.Records {
		rec := &got.Records[i]
		tenants[rec.Tenant]++
		if rec.Schema != "quickstart" || rec.Fingerprint != sch.Fingerprint() {
			t.Fatalf("record %d identity: %+v", i, rec)
		}
		st, err := engine.ParseStrategy(rec.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.Run(sch, sourcesOf(rec), st)
		if d := capture.DigestResult(sch, res); d != rec.Digest {
			t.Fatalf("record %d (tenant %s): recorded digest %016x, virtual replay %016x",
				i, rec.Tenant, rec.Digest, d)
		}
	}
	if tenants["alice"] != singles+batch+async+batch || tenants["bob"] != singles+batch {
		t.Fatalf("per-tenant record counts: %v", tenants)
	}
}

// TestCaptureRegisteredSchemaVirtualParity pins digest parity for
// wire-registered schemas, whose foreign results come from the
// deterministic default computes: virtual re-execution must bind the
// same computes (flows.BindDefaultComputes, as dfreplay does) and then
// reproduce every recorded digest exactly.
func TestCaptureRegisteredSchemaVirtualParity(t *testing.T) {
	const text = `
schema capreg
source amount
query risk from amount cost 2 when amount > 0
synth fee when notnull(risk) = amount / 10 + risk * 0
target fee
`
	dir := t.TempDir()
	srv, hs, _ := newCaptureStack(t, dir, 0)
	ctx := context.Background()
	hc, err := client.New(hs.URL, client.WithTenant("ops"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if _, err := hc.RegisterSchemaText(ctx, text); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		src := map[string]value.Value{"amount": value.Int(int64(10 * (i + 1)))}
		if res, err := hc.EvalValues(ctx, "capreg", "", src); err != nil || res.Error != "" {
			t.Fatalf("eval %d: %v %s", i, err, res.Error)
		}
	}
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := capture.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n {
		t.Fatalf("capture has %d records, want %d", len(got.Records), n)
	}
	sch, err := core.ParseSchema(text)
	if err != nil {
		t.Fatal(err)
	}
	flows.BindDefaultComputes(sch)
	for i := range got.Records {
		rec := &got.Records[i]
		if rec.Fingerprint != sch.Fingerprint() {
			t.Fatalf("record %d fingerprint %016x != parsed %016x", i, rec.Fingerprint, sch.Fingerprint())
		}
		st, err := engine.ParseStrategy(rec.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		if d := capture.DigestResult(sch, engine.Run(sch, sourcesOf(rec), st)); d != rec.Digest {
			t.Fatalf("record %d: recorded %016x, virtual %016x — default computes not bound identically",
				i, rec.Digest, d)
		}
	}
}

func sourcesOf(rec *api.CaptureRecord) map[string]value.Value {
	m := make(map[string]value.Value, len(rec.Sources))
	for _, s := range rec.Sources {
		m[s.Name] = s.Val
	}
	return m
}

// TestCaptureWriteFaultNeverPoisonsServing arms the capture append-write
// failpoint and drives both wires: every eval must keep succeeding with
// correct results (the fail-open contract), the lost records must be
// counted, and /v1/stats must flag the degraded capture. Clearing the
// fault resumes capturing without a restart — unlike the registry, whose
// refusal is deliberately sticky.
func TestCaptureWriteFaultNeverPoisonsServing(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	srv, hs, binAddr := newCaptureStack(t, dir, 0)
	ctx := context.Background()
	hc, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	bc := binClient(t, binAddr, client.WithTenant("t0"))

	// One healthy eval so the capture file exists, then fault every write.
	res, err := hc.EvalValues(ctx, "quickstart", "", quickstartSources(0))
	if err != nil || res.Error != "" {
		t.Fatalf("pre-fault eval: %v %s", err, res.Error)
	}
	want := canonJSON(t, res.Values)

	if err := fault.Arm(fault.SiteCaptureAppendWrite, "error:injected capture disk failure"); err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		hres, err := hc.EvalValues(ctx, "quickstart", "", quickstartSources(0))
		if err != nil || hres.Error != "" {
			t.Fatalf("HTTP eval %d under capture fault: %v %s", i, err, hres.Error)
		}
		if got := canonJSON(t, hres.Values); got != want {
			t.Fatalf("HTTP eval %d answer changed under capture fault: %s vs %s", i, got, want)
		}
		bres, err := bc.EvalValues(ctx, "quickstart", "", quickstartSources(0))
		if err != nil || bres.Error != "" {
			t.Fatalf("binary eval %d under capture fault: %v %s", i, err, bres.Error)
		}
		if got := canonJSON(t, bres.Values); got != want {
			t.Fatalf("binary eval %d answer changed under capture fault: %s vs %s", i, got, want)
		}
	}

	// The writer is asynchronous; wait for the dropped evals to surface.
	waitForStat(t, srv, func(cs *api.CaptureStats) bool { return cs.DroppedIO >= n })
	st, err := hc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Capture == nil || !st.Capture.Degraded || st.Capture.Error == "" {
		t.Fatalf("/v1/stats does not flag the degraded capture: %+v", st.Capture)
	}
	if st.Capture.Dropped < n {
		t.Fatalf("capture_dropped = %d, want >= %d", st.Capture.Dropped, n)
	}
	if st.RegistryReadOnly {
		t.Fatal("capture fault must not touch the registry's state")
	}

	// Fail-open also means self-healing: clear the fault and records flow
	// again onto a fresh file.
	fault.Reset()
	appended := srv.CaptureStats().Appended
	if res, err := hc.EvalValues(ctx, "quickstart", "", quickstartSources(0)); err != nil || res.Error != "" {
		t.Fatalf("eval after fault cleared: %v %s", err, res.Error)
	}
	waitForStat(t, srv, func(cs *api.CaptureStats) bool { return cs.Appended > appended })
}

// TestCaptureSyncFaultOnlyDegradesCapture arms the capture fsync site —
// it fires at rotation/seal — and asserts the same isolation: serving
// stays correct, the capture flags degraded, the complete records written
// before the fault still read back.
func TestCaptureSyncFaultOnlyDegradesCapture(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	// Tiny rotation so a handful of evals crosses a seal boundary.
	srv, hs, _ := newCaptureStack(t, dir, 128)
	ctx := context.Background()
	hc, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	if err := fault.Arm(fault.SiteCaptureAppendSync, "error:injected fsync failure"); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if res, err := hc.EvalValues(ctx, "quickstart", "", quickstartSources(i)); err != nil || res.Error != "" {
			t.Fatalf("eval %d under sync fault: %v %s", i, err, res.Error)
		}
	}
	waitForStat(t, srv, func(cs *api.CaptureStats) bool { return cs.Appended >= n })
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if cs := srv.CaptureStats(); !cs.Degraded || cs.Error == "" {
		t.Fatalf("sync fault not flagged: %+v", cs)
	}
	got, err := capture.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n {
		t.Fatalf("read %d records, want %d (sync faults must not lose written records)", len(got.Records), n)
	}
}

// waitForStat polls the async writer's counters; the capture hook returns
// before the drain goroutine touches the disk, so tests wait, not assert.
func waitForStat(t *testing.T, srv *Server, cond func(*api.CaptureStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cs := srv.CaptureStats(); cs != nil && cond(cs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture stats never converged: %+v", srv.CaptureStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCaptureOffStatsAbsent: without -capture the stats block is absent —
// operators can tell "off" from "healthy with zero traffic".
func TestCaptureOffStatsAbsent(t *testing.T) {
	svc := runtime.New(runtime.Config{})
	srv := New(Config{Service: svc})
	defer srv.Drain(context.Background())
	resp, err := srv.statsResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Capture != nil {
		t.Fatalf("capture stats present with capture off: %+v", resp.Capture)
	}
}
