package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// buildResult is how the JSON wire rendered a completed instance before it
// had a codec of its own — a map[string]any for encoding/json to reflect
// over. It survives as appendResult's oracle.
func buildResult(entry *schemaEntry, res *engine.Result) api.EvalResult {
	out := api.EvalResult{
		Values:        make(map[string]any, len(entry.targetIDs)),
		ElapsedMs:     res.Elapsed,
		Work:          res.Work,
		WastedWork:    res.WastedWork,
		Launched:      res.Launched,
		SynthesisRuns: res.SynthesisRuns,
		Failures:      res.Failures,
	}
	for i, id := range entry.targetIDs {
		out.Values[entry.targetNames[i]] = api.ToJSON(res.Snapshot.Val(id))
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

// fuzzValue derives a value.Value from fuzz bytes (the construction
// program of internal/api's genValue).
func fuzzValue(data []byte, depth int) (value.Value, []byte) {
	if len(data) == 0 {
		return value.Null, nil
	}
	op := data[0]
	data = data[1:]
	take8 := func() (x uint64) {
		for i := 0; i < 8 && len(data) > 0; i++ {
			x, data = x<<8|uint64(data[0]), data[1:]
		}
		return x
	}
	switch op % 7 {
	case 0:
		return value.Null, data
	case 1:
		return value.Bool(op&8 != 0), data
	case 2:
		return value.Int(int64(take8())), data
	case 3:
		return value.Float(math.Float64frombits(take8())), data
	case 4:
		n := min(int(op/7)%24, len(data))
		return value.Str(string(data[:n])), data[n:]
	default:
		var elems []value.Value
		for i := int(op/7) % 5; i > 0 && len(data) > 0 && depth < 6; i-- {
			var e value.Value
			e, data = fuzzValue(data, depth+1)
			elems = append(elems, e)
		}
		return value.List(elems...), data
	}
}

func FuzzEvalResultEncode(f *testing.F) {
	sch, err := core.ParseSchema("schema fz\nsource a\nsource b\nsource c\nsynth zeta = a\nsynth alpha = b\nsynth M<id> = c\ntarget zeta\ntarget alpha\ntarget M<id>")
	if err != nil {
		f.Fatal(err)
	}
	entry := newEntry(sch, "", "", 1)
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x07\x03\x3f\xb9\x99\x99\x99\x99\x99\x9a\x20<a>&\"\\\xff"), 3, 7, 0, "")
	f.Add([]byte("\x1a\x02\x01\x03\x40\x09\x21\xfb\x54\x44\x2d\x18\x00\x01"), 0, 0, 2, "context canceled \u2028")
	f.Add([]byte("\x03\x7f\xf0\x00\x00\x00\x00\x00\x00"), 1, 1, 1, "")
	f.Fuzz(func(t *testing.T, data []byte, work, wasted, failures int, errMsg string) {
		src := map[string]value.Value{}
		src["a"], data = fuzzValue(data, 0)
		src["b"], data = fuzzValue(data, 0)
		src["c"], _ = fuzzValue(data, 0)
		res := &engine.Result{Snapshot: snapshot.Complete(sch, src), Elapsed: float64(work) / 8,
			Work: work, WastedWork: wasted, Launched: work / 2, SynthesisRuns: wasted / 2, Failures: failures}
		if errMsg != "" {
			res.Err = fmt.Errorf("%s", errMsg)
		}
		want, err := json.Marshal(buildResult(entry, res))
		if err != nil {
			return // a non-finite target: TestNonFiniteTargetKeepsTheBatch
		}
		if got := appendResult(nil, -1, entry, res, nil); !bytes.Equal(got, want) {
			t.Fatalf("result:\n got %s\nwant %s", got, want)
		}
		want, _ = json.Marshal(api.BatchItem{Index: work, EvalResult: buildResult(entry, res)})
		if got := appendResult(nil, max(work, 0), entry, res, nil); work >= 0 && !bytes.Equal(got, want) {
			t.Fatalf("item:\n got %s\nwant %s", got, want)
		}
	})
}

func rawPost(t *testing.T, hs *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TenantHeader, "t0")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestEvalWireBytes: what the JSON wire sends is byte for byte what
// encoding/json would send — decoding a response with encoding/json and
// marshalling it again reproduces it — framed with Content-Length and the
// encoder's trailing newline.
func TestEvalWireBytes(t *testing.T) {
	_, _, hs, c := newTestStack(t, runtime.Config{}, nil)
	if _, err := c.RegisterSchemaText(context.Background(),
		"schema wire\nsource s\nsource l\nsource n\nsynth z = s\nsynth a<b = l\nsynth m = n * 1.5\ntarget z\ntarget a<b\ntarget m"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		out        any
	}{
		{"/v1/eval/batch", `{"schema":"quickstart","sources":[{"order_total":120,"customer_id":7},{"order_total":10},null]}`, &api.BatchResponse{}},
		{"/v1/eval/batch", `{"schema":"wire","sources":[{"s":"<\u2028&\"é","l":[1,2.5,[null,"x"],true],"n":3},{"n":1e300},{}]}`, &api.BatchResponse{}},
		{"/v1/eval", `{"schema":"wire","sources":{"s":"plain","l":[],"n":-2}}`, &api.EvalResult{}},
	} {
		code, hdr, body := rawPost(t, hs, tc.path, tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", tc.path, code, body)
		}
		if hdr.Get("Content-Length") != fmt.Sprint(len(body)) || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("%s: headers %v for %d bytes", tc.path, hdr, len(body))
		}
		if err := json.Unmarshal(body, tc.out); err != nil {
			t.Fatalf("%s: %v in %s", tc.path, err, body)
		}
		again, _ := json.Marshal(tc.out)
		if string(again)+"\n" != string(body) {
			t.Errorf("%s:\n sent %s\nencoding/json %s", tc.path, body, again)
		}
	}
}

// TestNonFiniteTargetKeepsTheBatch: one instance whose target JSON cannot
// carry (x*x overflows to +Inf) used to fail json.Encoder after the 200 was
// out, losing every answer of the batch. It now goes out as null with the
// target named in its error, and the other instances are delivered — on
// the batch, the single eval and the stream; dfbin carries the +Inf itself.
func TestNonFiniteTargetKeepsTheBatch(t *testing.T) {
	_, _, hs, addr := newBinStack(t, runtime.Config{}, nil)
	ctx := context.Background()
	hc, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if _, err := hc.RegisterSchemaText(ctx, "schema sq\nsource x\nsynth y = x * x\ntarget y"); err != nil {
		t.Fatal(err)
	}
	req := api.BatchRequest{Schema: "sq", Sources: []map[string]any{{"x": 2}, {"x": 1e200}}}
	check := func(wire string, results []api.EvalResult) {
		t.Helper()
		if len(results) != 2 || results[0].Error != "" || results[0].Values["y"] != 4.0 {
			t.Fatalf("%s: healthy instance lost: %+v", wire, results)
		}
		if results[1].Values["y"] != nil || !strings.Contains(results[1].Error, `"y"`) {
			t.Fatalf("%s: overflowed instance: %+v", wire, results[1])
		}
	}
	results, err := hc.EvalBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", results)

	streamed := make([]api.EvalResult, 2)
	if err := hc.EvalBatchStream(ctx, req, func(it api.BatchItem) { streamed[it.Index] = it.EvalResult }); err != nil {
		t.Fatal(err)
	}
	check("stream", streamed)

	single, err := hc.Eval(ctx, api.EvalRequest{Schema: "sq", Sources: req.Sources[1]})
	if err != nil {
		t.Fatal(err)
	}
	check("single", []api.EvalResult{results[0], single})

	bc := binClient(t, addr)
	results, err = bc.EvalBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if y, _ := results[1].Values["y"].(float64); len(results) != 2 || fmt.Sprint(results[0].Values["y"]) != "4" || !math.IsInf(y, 1) {
		t.Fatalf("dfbin: %+v", results)
	}
}

// TestUnknownSourceNamesSurviveSlots: a name that is not a source of the
// live schema has no slot, yet must reach the shadow candidate (one that
// adds a source would otherwise report false divergence) and the capture
// record, as it did in the name-keyed map.
func TestUnknownSourceNamesSurviveSlots(t *testing.T) {
	dir := t.TempDir()
	srv, hs, _ := newCaptureStack(t, dir, 0)
	ctx := context.Background()
	c, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	live := "schema grow\nsource order_total\nsource customer_id\nsynth tier = order_total + customer_id\ntarget tier"
	cand := "schema grow\nsource order_total\nsource customer_id\nsource bonus\nsynth tier = order_total + customer_id + bonus * 0\ntarget tier"
	if _, err := c.RegisterSchemaText(ctx, live); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSchemaShadow(ctx, cand, 1); err != nil {
		t.Fatal(err)
	}
	const n = 8
	req := api.BatchRequest{Schema: "grow"}
	for i := 0; i < n; i++ {
		req.Sources = append(req.Sources, map[string]any{"order_total": 100 + i, "customer_id": i, "bonus": 5, "tier": "ignored"})
	}
	if _, err := c.EvalBatch(ctx, req); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		rep, err := c.ShadowReport(ctx, "grow")
		if err != nil {
			t.Fatal(err)
		}
		// Without bonus the candidate's tier is ⟂ + … = ⟂: every eval diverges.
		if ts := rep.Tenants["t0"]; ts.Diverged > 0 {
			t.Fatalf("candidate did not see the source only it has: %+v", ts)
		} else if ts.Sampled+rep.Skipped >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow comparisons never completed: %+v", rep)
		}
	}
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rr, err := capture.Read(dir)
	if err != nil || len(rr.Records) != n {
		t.Fatalf("capture: %+v, %v", rr, err)
	}
	for _, rec := range rr.Records {
		var names []string
		for _, s := range rec.Sources {
			names = append(names, s.Name)
		}
		if want := []string{"bonus", "customer_id", "order_total", "tier"}; !reflect.DeepEqual(names, want) || !sort.StringsAreSorted(names) {
			t.Fatalf("capture record sources %v, want %v", names, want)
		}
	}
}

// namesBody binds the sources é and x three ways: escaped, raw, and not at
// all (names that only look alike).
const namesBody = `{"schema":"names","sources":[{"\u00e9":1,"\u0078":2},{"é":1,"x":2},{"e":1,"X":2}]}`

// TestEvalConformance pins the JSON eval handlers' status codes to what the
// encoding/json-based decode answered for the same bodies (this table also
// passes on the commit before the codec); message text is free.
func TestEvalConformance(t *testing.T) {
	_, _, hs, c := newTestStack(t, runtime.Config{}, func(cfg *Config) { cfg.MaxBatch = 4; cfg.MaxBodyBytes = 4096 })
	if _, err := c.RegisterSchemaText(context.Background(), "schema names\nsource é\nsource x\nquery q from é,x cost 1\ntarget q"); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat(" ", 5000)
	qs := `{"order_total":120,"customer_id":7}`
	for _, tc := range []struct {
		name, path, body string
		want             int
		check            string // a substring of the 200 body, or of the error message
	}{
		{"plain", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs + `]}`, 200, `"results":[{"values":{`},
		{"body over MaxBodyBytes", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + big + qs + `]}`, 400, ""},
		{"value complete before MaxBodyBytes", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs + `]}` + big, 200, ""},
		{"sources null", "/v1/eval/batch", `{"schema":"quickstart","sources":null}`, 400, "empty batch"},
		{"sources empty", "/v1/eval/batch", `{"schema":"quickstart","sources":[]}`, 400, "empty batch"},
		{"body null", "/v1/eval/batch", `null`, 400, "empty batch"},
		{"null instance", "/v1/eval/batch", `{"schema":"quickstart","sources":[null,` + qs + `]}`, 200, ""},
		{"sources not an array", "/v1/eval/batch", `{"schema":"quickstart","sources":{}}`, 400, ""},
		{"instance not an object", "/v1/eval/batch", `{"schema":"quickstart","sources":[5]}`, 400, ""},
		{"wrong type beats unknown schema", "/v1/eval/batch", `{"schema":"nope","sources":[5]}`, 400, ""},
		{"schema not a string", "/v1/eval/batch", `{"schema":5,"sources":[{}]}`, 400, ""},
		{"stream not a bool", "/v1/eval/batch", `{"schema":"quickstart","sources":[{}],"stream":"yes"}`, 400, ""},
		{"top level not an object", "/v1/eval/batch", `[]`, 400, ""},
		{"empty body", "/v1/eval/batch", ``, 400, ""},
		{"field names fold case", "/v1/eval/batch", `{"Schema":"quickstart","SOURCES":[` + qs + `],"STRATEGY":"PCE0","Stream":false}`, 200, ""},
		{"trailing garbage", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs + `]} }}garbage`, 200, ""},
		{"truncated", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs, 400, ""},
		{"number out of range", "/v1/eval/batch", `{"schema":"quickstart","sources":[{"order_total":1e999}]}`, 400, "instance 0: source"},
		{"number out of range, unknown schema", "/v1/eval/batch", `{"schema":"nope","sources":[{"order_total":1e999}]}`, 404, ""},
		{"minus zero, 1.0, 19 digits", "/v1/eval/batch", `{"schema":"quickstart","sources":[{"order_total":-0,"customer_id":1.0},{"order_total":9223372036854775807},{"order_total":9223372036854775808}]}`, 200, ""},
		{"leading zero", "/v1/eval/batch", `{"schema":"quickstart","sources":[{"order_total":0120}]}`, 400, ""},
		{"escaped and non-ASCII names", "/v1/eval/batch", namesBody, 200, ""},
		{"nested object value", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs + `,{"order_total":{"a":1}}]}`, 400, "instance 1: source"},
		{"nested object, unknown schema", "/v1/eval/batch", `{"schema":"nope","sources":[{"order_total":{"a":1}}]}`, 404, ""},
		{"batch over MaxBatch", "/v1/eval/batch", `{"schema":"quickstart","sources":[{},{},{},{},{}]}`, 400, "exceeds limit"},
		{"over MaxBatch beats unknown schema", "/v1/eval/batch", `{"schema":"nope","sources":[{},{},{},{},{}]}`, 400, ""},
		{"unknown schema", "/v1/eval/batch", `{"schema":"nope","sources":[{}]}`, 404, ""},
		{"bad strategy", "/v1/eval/batch", `{"schema":"quickstart","strategy":"XYZ","sources":[{}]}`, 400, ""},
		{"unknown fields skipped", "/v1/eval/batch", `{"extra":{"a":[1,{"b":null}]},"schema":"quickstart","sources":[` + qs + `],"async":7}`, 200, ""},
		{"bad syntax in a skipped field", "/v1/eval/batch", `{"extra":{"a":[1,]},"schema":"quickstart","sources":[` + qs + `]}`, 400, ""},
		{"stream", "/v1/eval/batch", `{"schema":"quickstart","sources":[` + qs + `],"stream":true}`, 200, `{"index":0,"values":{`},

		{"single", "/v1/eval", `{"schema":"quickstart","sources":` + qs + `}`, 200, `{"values":{`},
		{"single, sources null", "/v1/eval", `{"schema":"quickstart","sources":null}`, 200, ""},
		{"single, sources absent", "/v1/eval", `{"schema":"quickstart"}`, 200, ""},
		{"single, sources an array", "/v1/eval", `{"schema":"quickstart","sources":[` + qs + `]}`, 400, ""},
		{"single, async not a bool", "/v1/eval", `{"schema":"quickstart","async":1}`, 400, ""},
		{"single, nested object value", "/v1/eval", `{"schema":"quickstart","sources":{"order_total":{}}}`, 400, "source"},
		{"single, body null", "/v1/eval", `null`, 404, ""},
		{"single, async", "/v1/eval", `{"schema":"quickstart","sources":` + qs + `,"ASYNC":true}`, 202, `"id"`},
	} {
		code, _, body := rawPost(t, hs, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, body)
		}
		if !strings.Contains(string(body), tc.check) {
			t.Errorf("%s: body %s lacks %q", tc.name, body, tc.check)
		}
	}

	// An escaped and a non-ASCII source name select the same slots as their
	// plain spellings.
	var out api.BatchResponse
	if _, _, body := rawPost(t, hs, "/v1/eval/batch", namesBody); json.Unmarshal(body, &out) != nil || len(out.Results) != 3 {
		t.Fatalf("names: %s", body)
	}
	if q := out.Results[0].Values["q"]; q == nil || q != out.Results[1].Values["q"] || q == out.Results[2].Values["q"] {
		t.Fatalf("names: q = %v, %v, %v", q, out.Results[1].Values["q"], out.Results[2].Values["q"])
	}
}

// TestDisconnectAbortsEval: when an HTTP client leaves, every instance of
// its eval — single, batch or stream — aborts at once, though the backend
// never answers, and the tenant's claims return with it; none sits out the
// backend holding its claim.
func TestDisconnectAbortsEval(t *testing.T) {
	const text = `
schema gated
source amount
query risk from amount cost 2 when amount > 0
synth fee when notnull(risk) = amount / 10 + risk * 0
target fee
`
	src := map[string]value.Value{"amount": value.Int(10)}
	batch := func(n int) api.BatchRequest {
		srcs := make([]map[string]any, n)
		for i := range srcs {
			srcs[i] = api.EncodeSources(src)
		}
		return api.BatchRequest{Schema: "gated", Sources: srcs}
	}
	for _, tc := range []struct {
		name string
		n    int
		eval func(context.Context, *client.Client) error
	}{
		{"single", 1, func(ctx context.Context, c *client.Client) error {
			_, err := c.EvalValues(ctx, "gated", "", src)
			return err
		}},
		{"batch", 4, func(ctx context.Context, c *client.Client) error {
			_, err := c.EvalBatch(ctx, batch(4))
			return err
		}},
		{"stream", 4, func(ctx context.Context, c *client.Client) error {
			return c.EvalBatchStream(ctx, batch(4), func(api.BatchItem) {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &gateBackend{}
			gate.stall()
			svc, srv, _, c := newTestStack(t, runtime.Config{Backend: gate}, nil)
			t.Cleanup(gate.unstall) // runs before the stack's Drain
			if _, err := c.RegisterSchemaText(context.Background(), text); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- tc.eval(ctx, c) }()

			// Every instance has launched its one query and idles on it.
			deadline := time.Now().Add(10 * time.Second)
			for gate.parkedQueries() < tc.n {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d queries reached the backend", gate.parkedQueries(), tc.n)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-errc; err == nil {
				t.Fatal("eval succeeded on a backend that never answers")
			}

			deadline = time.Now().Add(time.Second)
			for {
				st := svc.Stats()
				inFlight := srv.tenantFor("t0").admission().InFlight
				if inFlight == 0 && st.Completed == uint64(tc.n) && st.Errors == uint64(tc.n) {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("1s after the client left: in-flight %d, %d of %d instances completed, %d aborted",
						inFlight, st.Completed, tc.n, st.Errors)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// parkedQueries counts the backend round trips the gate holds.
func (g *gateBackend) parkedQueries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.parked)
}
