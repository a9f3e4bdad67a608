package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/runtime"
	"repro/internal/value"
)

// newBinStack is newTestStack plus a dfbin TCP listener: the same server
// serves both wires, which is the whole point — tests cross-check the
// transports against each other.
func newBinStack(t *testing.T, svcCfg runtime.Config, mod func(*Config)) (*runtime.Service, *Server, *httptest.Server, string) {
	t.Helper()
	svc := runtime.New(svcCfg)
	cfg := Config{Service: svc}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
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
	return svc, srv, hs, "dfbin://" + ln.Addr().String()
}

func binClient(t testing.TB, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.New(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if c.Transport() != client.TransportBinary {
		t.Fatalf("transport = %s, want %s", c.Transport(), client.TransportBinary)
	}
	return c
}

// rawConn drives the dfbin wire frame by frame, for tests that assert
// protocol behavior the typed client deliberately hides (stale binds,
// drain pushes, teardown on corruption).
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr *api.FrameReader
}

// dialRaw connects and completes the Hello handshake.
func dialRaw(t *testing.T, addr, tenant string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(addr, "dfbin://"))
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	rc := &rawConn{t: t, nc: nc, fr: api.NewFrameReader(bufio.NewReader(nc), 0)}
	t.Cleanup(func() { nc.Close() })
	rc.send(api.AppendHelloFrame(nil, tenant))
	typ, _ := rc.next()
	if typ != api.FrameHelloAck {
		t.Fatalf("handshake answered with frame %#x, want HelloAck", typ)
	}
	return rc
}

func (rc *rawConn) send(frame []byte) {
	rc.t.Helper()
	if _, err := rc.nc.Write(frame); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) next() (byte, []byte) {
	rc.t.Helper()
	typ, p, err := rc.fr.Next()
	if err != nil {
		rc.t.Fatalf("reading frame: %v", err)
	}
	return typ, p
}

// bind performs Bind/BindAck and returns the attribute name table
// (position = AttrID) plus the schema fingerprint.
func (rc *rawConn) bind(reqID, bindID uint64, schema, strategy string) (names []string, flags []byte, fp uint64) {
	rc.t.Helper()
	b := api.BeginFrame(nil, api.FrameBind)
	b = api.AppendUvarint(b, reqID)
	b = api.AppendUvarint(b, bindID)
	b = api.AppendString(b, schema)
	b = api.AppendString(b, strategy)
	rc.send(api.FinishFrame(b, 0))
	typ, p := rc.next()
	if typ != api.FrameBindAck {
		rc.t.Fatalf("bind answered with frame %#x", typ)
	}
	c := api.NewCursor(p)
	if got := c.Uvarint(); got != reqID {
		rc.t.Fatalf("BindAck for request %d, want %d", got, reqID)
	}
	if got := c.Uvarint(); got != bindID {
		rc.t.Fatalf("BindAck for bind %d, want %d", got, bindID)
	}
	fp = c.U64()
	n := c.Uvarint()
	for i := uint64(0); i < n; i++ {
		flags = append(flags, c.Byte())
		names = append(names, c.String())
	}
	if err := c.Done(); err != nil {
		rc.t.Fatalf("BindAck payload: %v", err)
	}
	return names, flags, fp
}

// eval sends one Eval frame over an established bind.
func (rc *rawConn) eval(reqID, bindID uint64, pairs map[uint64]value.Value) {
	rc.t.Helper()
	b := api.BeginFrame(nil, api.FrameEval)
	b = api.AppendUvarint(b, reqID)
	b = api.AppendUvarint(b, bindID)
	b = api.AppendUvarint(b, uint64(len(pairs)))
	for id, v := range pairs {
		b = api.AppendUvarint(b, id)
		b = api.AppendValue(b, v)
	}
	rc.send(api.FinishFrame(b, 0))
}

// canonJSON renders a result-values map through the JSON codec so the
// lossless binary wire (int64) and the HTTP wire (float64) compare equal
// when they agree semantically.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestBinaryRegisterAndEval runs the whole client surface over the
// binary wire: register a text schema, bind-and-eval it (twice — the
// second hits the per-connection bind cache), batch it, read stats,
// probe health.
func TestBinaryRegisterAndEval(t *testing.T) {
	_, _, _, addr := newBinStack(t, runtime.Config{}, nil)
	c := binClient(t, addr, client.WithTenant("t0"))
	ctx := context.Background()

	ack, err := c.RegisterSchemaText(ctx, `
		schema scoring
		source amount
		query risk from amount cost 2 when amount > 0
		synth fee when notnull(risk) = amount / 10 + risk * 0
		target fee
	`)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Name != "scoring" || len(ack.Targets) != 1 || ack.Targets[0] != "fee" {
		t.Fatalf("ack = %+v", ack)
	}

	eval := func() api.EvalResult {
		res, err := c.EvalValues(ctx, "scoring", "", map[string]value.Value{"amount": value.Int(120)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Error != "" {
			t.Fatalf("instance error: %s", res.Error)
		}
		return res
	}
	r1, r2 := eval(), eval()
	if canonJSON(t, r1.Values["fee"]) != "12" {
		t.Fatalf("fee = %v (%T), want 12", r1.Values["fee"], r1.Values["fee"])
	}
	if canonJSON(t, r1.Values) != canonJSON(t, r2.Values) {
		t.Fatalf("evals disagree: %v vs %v", r1.Values, r2.Values)
	}
	if r1.Work == 0 || r1.Launched == 0 {
		t.Fatalf("accounting empty: %+v", r1)
	}

	// Batch: distinct instances come back in request order.
	srcs := make([]map[string]any, 5)
	for i := range srcs {
		srcs[i] = map[string]any{"amount": float64(10 * (i + 1))}
	}
	results, err := c.EvalBatch(ctx, api.BatchRequest{Schema: "scoring", Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if want := fmt.Sprint(i + 1); canonJSON(t, res.Values["fee"]) != want {
			t.Fatalf("batch[%d]: fee = %v, want %s", i, res.Values["fee"], want)
		}
	}

	// Unknown schema surfaces the server's not-found error, not a hang.
	if _, err := c.EvalValues(ctx, "nope", "", nil); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("unknown schema: %v", err)
	}
	// Unknown source names are ignored, exactly like the JSON map path.
	if res, err := c.Eval(ctx, api.EvalRequest{Schema: "scoring",
		Sources: map[string]any{"amount": float64(120), "no_such_attr": true}}); err != nil || res.Error != "" {
		t.Fatalf("unknown source name must be ignored: %v %s", err, res.Error)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stats.Schemas) != fmt.Sprint([]string{"pattern", "quickstart", "scoring"}) {
		t.Fatalf("schemas = %v", stats.Schemas)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// The HTTP-only extended surface refuses loudly instead of dialing.
	if _, err := c.EvalAsync(ctx, api.EvalRequest{Schema: "scoring"}); err == nil {
		t.Fatal("EvalAsync over binary must error")
	}
}

// TestBinaryMatchesHTTP is the transport-equivalence check: the same
// instances through both front ends of one server must produce
// semantically identical results — same values (modulo JSON number
// erasure), same accounting shape.
func TestBinaryMatchesHTTP(t *testing.T) {
	_, _, hs, addr := newBinStack(t, runtime.Config{}, nil)
	ctx := context.Background()
	cb := binClient(t, addr, client.WithTenant("t0"))
	ch, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	cases := []map[string]any{
		{"order_total": float64(120), "customer_id": float64(7)},
		{"order_total": float64(3), "customer_id": float64(900)},
		{"order_total": float64(-1)}, // customer_id absent: ⟂ on both wires
		{},
	}
	for i, src := range cases {
		req := api.EvalRequest{Schema: "quickstart", Sources: src}
		rb, errB := cb.Eval(ctx, req)
		rh, errH := ch.Eval(ctx, req)
		if (errB == nil) != (errH == nil) {
			t.Fatalf("case %d: binary err %v, http err %v", i, errB, errH)
		}
		if errB != nil {
			continue
		}
		if canonJSON(t, rb.Values) != canonJSON(t, rh.Values) {
			t.Fatalf("case %d: binary %s vs http %s", i, canonJSON(t, rb.Values), canonJSON(t, rh.Values))
		}
		if rb.Error != rh.Error {
			t.Fatalf("case %d: errors differ: %q vs %q", i, rb.Error, rh.Error)
		}
	}

	// Batched: same column-major batch against both wires.
	batch := api.BatchRequest{Schema: "quickstart", Sources: cases}
	bs, err := cb.EvalBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	hsRes, err := ch.EvalBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bs {
		if canonJSON(t, bs[i].Values) != canonJSON(t, hsRes[i].Values) {
			t.Fatalf("batch[%d]: binary %s vs http %s", i, canonJSON(t, bs[i].Values), canonJSON(t, hsRes[i].Values))
		}
	}
}

// TestBinaryShedAndRetry mirrors the HTTP rate-limit test on the binary
// wire: a 1-token bucket sheds the second back-to-back eval with a
// CodeShed frame carrying a retry hint; the typed client's shared retry
// loop absorbs it, and a retry-disabled client surfaces ErrShed.
func TestBinaryShedAndRetry(t *testing.T) {
	_, srv, _, addr := newBinStack(t, runtime.Config{},
		func(cfg *Config) { cfg.Tenant = TenantLimits{RatePerSec: 50, Burst: 1} })
	ctx := context.Background()
	src := map[string]any{"order_total": float64(120), "customer_id": float64(7)}

	c := binClient(t, addr, client.WithTenant("patient"), client.WithRetryShed(10))
	for i := 0; i < 3; i++ {
		res, err := c.Eval(ctx, api.EvalRequest{Schema: "quickstart", Sources: src})
		if err != nil || res.Error != "" {
			t.Fatalf("eval %d: %v %s", i, err, res.Error)
		}
	}
	if adm := srv.tenantFor("patient").admission(); adm.ShedRate == 0 {
		t.Fatalf("shed-rate counter not bumped: %+v", adm)
	}

	c2 := binClient(t, addr, client.WithTenant("hasty"), client.WithRetryShed(-1))
	c2.Eval(ctx, api.EvalRequest{Schema: "quickstart", Sources: src})
	_, err := c2.Eval(ctx, api.EvalRequest{Schema: "quickstart", Sources: src})
	if !errors.Is(err, client.ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
}

// TestBinaryStaleBind: a bind pins the schema version it saw. After the
// schema is re-registered, evals on the old bind fail with CodeStale at
// the frame level, and the typed client re-binds transparently.
func TestBinaryStaleBind(t *testing.T) {
	_, _, _, addr := newBinStack(t, runtime.Config{}, nil)
	ctx := context.Background()
	text := "schema churn\nsource x\nsynth y = x + 1\ntarget y"

	c := binClient(t, addr, client.WithTenant("t0"))
	if _, err := c.RegisterSchemaText(ctx, text); err != nil {
		t.Fatal(err)
	}

	// Frame level: bind, then invalidate, then eval on the stale bind.
	rc := dialRaw(t, addr, "t0")
	names, flags, fp := rc.bind(1, 1, "churn", "")
	if fp == 0 {
		t.Fatal("schema fingerprint is zero")
	}
	xID := -1
	for i, name := range names {
		if name == "x" {
			xID = i
			if flags[i]&api.BindFlagSource == 0 {
				t.Fatalf("x not flagged as source: %v", flags)
			}
		}
		if name == "y" && flags[i]&api.BindFlagTarget == 0 {
			t.Fatalf("y not flagged as target: %v", flags)
		}
	}
	rc.eval(2, 1, map[uint64]value.Value{uint64(xID): value.Int(41)})
	if typ, _ := rc.next(); typ != api.FrameResult {
		t.Fatalf("eval before re-registration answered %#x", typ)
	}
	if _, err := c.RegisterSchemaText(ctx, text); err != nil { // same owner: allowed
		t.Fatal(err)
	}
	rc.eval(3, 1, map[uint64]value.Value{uint64(xID): value.Int(41)})
	typ, p := rc.next()
	if typ != api.FrameError {
		t.Fatalf("eval on stale bind answered %#x, want Error", typ)
	}
	cur := api.NewCursor(p)
	cur.Uvarint() // request id
	e, err := api.ParseError(&cur)
	if err != nil || e.Code != api.CodeStale {
		t.Fatalf("stale bind error = %+v, %v; want CodeStale", e, err)
	}

	// Client level: the cached bind from before the re-registration is
	// refreshed transparently; the eval succeeds.
	res, err := c.EvalValues(ctx, "churn", "", map[string]value.Value{"x": value.Int(41)})
	if err != nil || res.Error != "" {
		t.Fatalf("eval after re-registration: %v %s", err, res.Error)
	}
	if canonJSON(t, res.Values["y"]) != "42" {
		t.Fatalf("y = %v, want 42", res.Values["y"])
	}
}

// TestBinaryCorruptTeardown: whatever garbage arrives, the server tears
// the connection down cleanly and keeps serving everyone else.
func TestBinaryCorruptTeardown(t *testing.T) {
	_, _, _, addr := newBinStack(t, runtime.Config{}, nil)
	host := strings.TrimPrefix(addr, "dfbin://")

	expectClosed := func(nc net.Conn) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		var buf [256]byte
		for {
			if _, err := nc.Read(buf[:]); err != nil {
				if err != io.EOF && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset") {
					t.Fatalf("connection ended with %v, want close", err)
				}
				return
			}
		}
	}

	// An HTTP request aimed at the binary port: rejected at the Hello.
	nc, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	expectClosed(nc)

	// A well-formed handshake followed by an unknown frame type.
	rc := dialRaw(t, addr, "t0")
	frame := api.BeginFrame(nil, 0x7f)
	frame = api.AppendUvarint(frame, 1)
	rc.send(api.FinishFrame(frame, 0))
	expectClosed(rc.nc)

	// A truncated Eval payload (corrupt varint stream) on a live bind.
	rc2 := dialRaw(t, addr, "t0")
	rc2.bind(1, 1, "quickstart", "")
	bad := api.BeginFrame(nil, api.FrameEval)
	bad = api.AppendUvarint(bad, 2)
	bad = api.AppendUvarint(bad, 1)
	bad = api.AppendUvarint(bad, 9) // promises 9 pairs, delivers none
	rc2.send(api.FinishFrame(bad, 0))
	expectClosed(rc2.nc)

	// The server is unharmed: a fresh client round-trips fine.
	c := binClient(t, addr, client.WithTenant("t0"))
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryDrainFlushesInFlight is the graceful-shutdown acceptance on
// the binary wire: Drain pushes a Drain frame on live connections,
// refuses new evals with CodeDraining, completes and flushes in-flight
// results before closing the connection, and stops accepting new
// connections.
func TestBinaryDrainFlushesInFlight(t *testing.T) {
	release := make(chan struct{})
	_, srv, _, addr := newBinStack(t, runtime.Config{}, nil)
	srv.mu.Lock()
	srv.schemas["blocker"] = newEntry(blockerSchema(t, release), "", "", 1)
	srv.mu.Unlock()

	rc := dialRaw(t, addr, "t0")
	names, _, _ := rc.bind(1, 1, "blocker", "")
	xID := uint64(0)
	for i, name := range names {
		if name == "x" {
			xID = uint64(i)
		}
	}
	rc.eval(2, 1, map[uint64]value.Value{xID: value.Int(1)})

	// Wait until the eval is admitted (in flight) before draining.
	deadline := time.Now().Add(10 * time.Second)
	for srv.tenantFor("t0").admission().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eval never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		_, err := srv.Drain(context.Background())
		drained <- err
	}()

	// The unsolicited Drain frame arrives while the eval is in flight.
	typ, _ := rc.next()
	if typ != api.FrameDrain {
		t.Fatalf("frame %#x, want Drain push", typ)
	}
	// New work on the draining connection is refused with CodeDraining.
	rc.eval(3, 1, map[uint64]value.Value{xID: value.Int(2)})
	typ, p := rc.next()
	if typ != api.FrameError {
		t.Fatalf("eval during drain answered %#x", typ)
	}
	cur := api.NewCursor(p)
	if got := cur.Uvarint(); got != 3 {
		t.Fatalf("error for request %d, want 3", got)
	}
	if e, err := api.ParseError(&cur); err != nil || e.Code != api.CodeDraining {
		t.Fatalf("drain refusal = %+v, %v; want CodeDraining", e, err)
	}

	// Unblock the in-flight eval: its Result must be flushed before the
	// server closes the connection.
	close(release)
	typ, p = rc.next()
	if typ != api.FrameResult {
		t.Fatalf("frame %#x, want the in-flight Result", typ)
	}
	cur = api.NewCursor(p)
	if got := cur.Uvarint(); got != 2 {
		t.Fatalf("result for request %d, want 2", got)
	}
	if _, _, err := rc.fr.Next(); err == nil {
		t.Fatal("connection still open after drain completed")
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// The listener is closed: new connections are refused or dropped at
	// the handshake.
	nc, err := net.Dial("tcp", strings.TrimPrefix(addr, "dfbin://"))
	if err == nil {
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		nc.Write(api.AppendHelloFrame(nil, "t0"))
		if _, _, err := api.NewFrameReader(bufio.NewReader(nc), 0).Next(); err == nil {
			t.Fatal("drained server accepted a new binary connection")
		}
		nc.Close()
	}
}

// TestBinaryTenantIsolationUnderOverload is the acceptance scenario of
// TestTenantIsolationUnderOverload run over the binary wire: the bully's
// flood sheds with retry hints the client honors, while the in-quota
// tenant's p99 stays within 2x of its solo run.
func TestBinaryTenantIsolationUnderOverload(t *testing.T) {
	if raceEnabled {
		t.Skip("latency-bound acceptance test skipped under -race")
	}
	backend := &runtime.Latency{Base: 8 * time.Millisecond}
	svc, srv, _, addr := newBinStack(t,
		runtime.Config{Backend: backend, MaxInFlightTasks: 512},
		func(cfg *Config) {
			cfg.Tenant = TenantLimits{MaxInFlight: 12}
			cfg.ShedDelay = -1 // isolate the quota: no global shed
		})
	ctx := context.Background()
	src := map[string]value.Value{"order_total": value.Int(120), "customer_id": value.Int(7)}

	runTenant := func(tenant string, conc, n int, retry int) {
		c, err := client.New(addr, client.WithTenant(tenant),
			client.WithRetryShed(retry), client.WithMaxConns(conc))
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if next.Add(1) > int64(n) {
						return
					}
					c.EvalValues(ctx, "quickstart", "", src) // sheds surface as errors; fine
				}
			}()
		}
		wg.Wait()
	}

	runTenant("polite", 8, 200, 3)
	solo := svc.Stats().Tenants["polite"]
	if solo.Completed == 0 || solo.P99 <= 0 {
		t.Fatalf("solo run recorded nothing: %+v", solo)
	}
	svc.ResetStats()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runTenant("bully", 48, 600, 1000)
	}()
	runTenant("polite", 8, 200, 3)
	wg.Wait()

	loaded := svc.Stats().Tenants["polite"]
	bullyAdm := srv.tenantFor("bully").admission()
	if bullyAdm.ShedQuota == 0 {
		t.Fatalf("bully was never shed: %+v", bullyAdm)
	}
	budget := 2*solo.P99 + 2*time.Millisecond
	if loaded.P99 > budget {
		t.Fatalf("polite p99 under load %v exceeds budget %v (solo %v)", loaded.P99, budget, solo.P99)
	}
	t.Logf("polite p99 solo=%v under-load=%v (budget %v); bully accepted=%d shed=%d",
		solo.P99, loaded.P99, budget, bullyAdm.Accepted, bullyAdm.ShedQuota)
}

// TestBinaryBatchTooLarge: the per-request instance cap applies on the
// binary wire with the permanent CodeTooLarge, not a retryable shed.
func TestBinaryBatchTooLarge(t *testing.T) {
	_, _, _, addr := newBinStack(t, runtime.Config{}, func(cfg *Config) { cfg.MaxBatch = 4 })
	c := binClient(t, addr, client.WithTenant("t0"))
	srcs := make([]map[string]any, 5)
	for i := range srcs {
		srcs[i] = map[string]any{"order_total": float64(1)}
	}
	_, err := c.EvalBatch(context.Background(), api.BatchRequest{Schema: "quickstart", Sources: srcs})
	if err == nil || errors.Is(err, client.ErrShed) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized batch: %v", err)
	}
	// RunLoad over the binary wire, within the cap, drives clean.
	rep, err := client.RunLoad(context.Background(), c, client.Load{
		Schema: "quickstart",
		Sources: map[string]value.Value{
			"order_total": value.Int(120), "customer_id": value.Int(7),
		},
		Count: 64, Concurrency: 4, BatchSize: 4,
	})
	if err != nil || rep.Failed > 0 || rep.Errors > 0 {
		t.Fatalf("RunLoad over binary: %v %+v", err, rep)
	}
}

// TestRegisterRefusalBothWires pins schema registration's tenant refusals —
// the tenant table's backstop, the rate bucket, the in-flight quota — on
// both wires: HTTP answers 429 with Retry-After and the JSON error body,
// dfbin an Error frame with CodeShed, and both carry the retry hint and the
// message an eval's refusal has.
func TestRegisterRefusalBothWires(t *testing.T) {
	const text = "schema reg\nsource amount\nsynth fee = amount / 10\ntarget fee"
	eval := api.EvalRequest{Schema: "quickstart", Sources: api.EncodeSources(map[string]value.Value{
		"order_total": value.Int(120), "customer_id": value.Int(7),
	})}
	for _, tc := range []struct {
		name string
		mod  func(*Config)
		// exhaust makes tenant ops's next registration refuse.
		exhaust            func(*testing.T, *httptest.Server, *gateBackend)
		msg                string
		retryMin, retryMax int64 // ms
	}{
		{"table full", func(cfg *Config) { cfg.MaxTenants = 1 },
			func(t *testing.T, hs *httptest.Server, _ *gateBackend) {
				drainBody(t, post(t, hs, "/v1/eval", "other", eval), nil)
			}, "tenant table full", 1000, 1000},
		{"rate", func(cfg *Config) { cfg.Tenant = TenantLimits{RatePerSec: 0.001, Burst: 1} },
			func(t *testing.T, hs *httptest.Server, _ *gateBackend) {
				drainBody(t, post(t, hs, "/v1/eval", "ops", eval), nil)
			}, "over tenant rate limit", 999_000, 1_000_000},
		{"quota", func(cfg *Config) { cfg.Tenant = TenantLimits{MaxInFlight: 1} },
			func(t *testing.T, hs *httptest.Server, gate *gateBackend) {
				gate.stall() // the async eval holds the tenant's one claim
				async := eval
				async.Async = true
				drainBody(t, post(t, hs, "/v1/eval", "ops", async), nil)
			}, "over tenant in-flight quota", 10, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &gateBackend{}
			_, _, hs, addr := newBinStack(t, runtime.Config{Backend: gate}, tc.mod)
			t.Cleanup(gate.unstall) // runs before the stack's Drain
			tc.exhaust(t, hs, gate)

			resp := post(t, hs, "/v1/schemas", "ops", api.SchemaRequest{Text: text})
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var e api.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("body %q: %v", body, err)
			}
			canon, _ := json.Marshal(e)
			if resp.StatusCode != http.StatusTooManyRequests || e.Error != tc.msg || e.RetryAfterMs < tc.retryMin ||
				e.RetryAfterMs > tc.retryMax || string(body) != string(canon)+"\n" {
				t.Fatalf("HTTP refusal: %d %q", resp.StatusCode, body)
			}
			if got, want := resp.Header.Get("Retry-After"), fmt.Sprint((e.RetryAfterMs+999)/1000); got != want {
				t.Fatalf("Retry-After %q, want %q", got, want)
			}

			rc := dialRaw(t, addr, "ops")
			b := api.BeginFrame(nil, api.FrameRegister)
			b = api.AppendUvarint(b, 7)
			b = api.AppendString(b, text)
			rc.send(api.FinishFrame(b, 0))
			typ, p := rc.next()
			cur := api.NewCursor(p)
			if typ != api.FrameError || cur.Uvarint() != 7 {
				t.Fatalf("dfbin registration answered frame %#x", typ)
			}
			be, err := api.ParseError(&cur)
			if err != nil || be.Code != api.CodeShed || be.Msg != tc.msg ||
				be.RetryAfterMs < tc.retryMin || be.RetryAfterMs > tc.retryMax {
				t.Fatalf("dfbin refusal: %+v, %v", be, err)
			}
		})
	}
}
