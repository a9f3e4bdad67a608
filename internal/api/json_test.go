package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/value"
)

// encoding/json is the oracle of everything in json.go: these are the
// reflect-based decode and encode the eval path used before it had a codec
// of its own.

// oracleBatchDecode is the server's old request decode: Decoder.Decode with
// UseNumber into a BatchRequest, then DecodeSources per instance.
func oracleBatchDecode(body []byte) (BatchRequest, []map[string]value.Value, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return req, nil, err
	}
	srcs := make([]map[string]value.Value, len(req.Sources))
	for i, m := range req.Sources {
		src, err := DecodeSources(m)
		if err != nil {
			return req, nil, err
		}
		srcs[i] = src
	}
	return req, srcs, nil
}

// codecBatchDecode is the same decode through the scanner, collected into
// the oracle's shape.
func codecBatchDecode(body []byte) (ScannedRequest, []map[string]value.Value, error) {
	req, err := ScanBatchRequest(body)
	if err != nil {
		return req, nil, err
	}
	srcs := make([]map[string]value.Value, req.N)
	for i := range srcs {
		srcs[i] = map[string]value.Value{}
	}
	err = req.Sources(func(i int, name []byte, v value.Value) { srcs[i][string(name)] = v })
	return req, srcs, err
}

// binarySeeds are genValue construction programs (the dfbin differential
// fuzzer's seeds and a few more) covering every kind.
func binarySeeds() [][]byte {
	return [][]byte{
		[]byte("\x03\x01\x02\x03"), []byte("\x06\x02\x03\x7f\x04abcd"), []byte(strings.Repeat("\x06", 40)),
		{0}, {1}, {9}, {2, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {3, 0x3f, 0xb9, 0x99, 0x99, 0x99, 0x99, 0x99, 0x9a},
		{3, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, []byte("\x20<a>&\xe2\x80\xa8\xff\"\\"), {5 + 7*3, 2, 1, 3, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 4 + 7*2, 'h', 'i'},
	}
}

// duplicateKeys reports whether the first JSON value of body holds an
// object with two keys that are equal, or that select the same struct
// field. Decode parity is promised for bodies without them: encoding/json
// merges a repeated field into what the first occurrence left, the codec
// lets the last one win.
func duplicateKeys(body []byte) bool {
	type frame struct {
		keys    map[string]bool // nil inside an array
		wantKey bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			if stack = stack[:len(stack)-1]; len(stack) == 0 {
				return false
			}
			continue
		}
		if top != nil && top.keys != nil && top.wantKey {
			k := string(field([]byte(tok.(string))))
			if top.keys[k] {
				return true
			}
			top.keys[k], top.wantKey = true, false
			continue
		}
		if top != nil {
			top.wantKey = true // this token is, or opens, a member's value
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{keys: map[string]bool{}, wantKey: true})
		case json.Delim('['):
			stack = append(stack, &frame{})
		default:
			if top == nil {
				return false
			}
		}
	}
}

func checkBatchDecode(t *testing.T, body []byte) {
	t.Helper()
	if duplicateKeys(body) {
		return
	}
	want, wantSrcs, wantErr := oracleBatchDecode(body)
	got, gotSrcs, gotErr := codecBatchDecode(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json says %v, codec says %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if got.Schema != want.Schema || got.Strategy != want.Strategy || got.Flag != want.Stream || got.N != len(want.Sources) {
		t.Fatalf("body %q: header %+v, want %+v", body, got, want)
	}
	for i, src := range wantSrcs {
		if len(gotSrcs[i]) != len(src) {
			t.Fatalf("body %q instance %d: sources %v, want %v", body, i, gotSrcs[i], src)
		}
		for name, v := range src {
			if g, ok := gotSrcs[i][name]; !ok || !exactEqual(g, v) {
				t.Fatalf("body %q instance %d source %q: %v (%v), want %v (%v)", body, i, name, g, g.Kind(), v, v.Kind())
			}
		}
	}
}

// requestSeeds are request bodies worth starting from: what bench/ sends,
// and one of each conformance case.
var requestSeeds = []string{
	`{"schema":"quickstart","strategy":"PSE100","sources":[{"customer_id":1017,"order_total":137},{"customer_id":1018,"order_total":138}]}`,
	`{"schema":"pattern","sources":[{"s0":5,"s1":"gold","s2":[1,2.5,"x",null,[true]]},null,{}],"stream":true}`,
	`{"Schema":"a","STRATEGY":"PCE0","SOURCES":[{"x":1}],"Stream":false}`,
	` { "sources" : [ { "x" : -0 , "y" : 1.0 , "z" : 1e999 } ] , "schema" : "late" } trailing`,
	`{"sources":[{"a":9223372036854775807,"b":9223372036854775808,"c":-9223372036854775809}]}`,
	`{"sources":[{"\u0078":"\ud83d\ude00 \ud800 \"q\" \/","é":"\xff","nested":{"k":[]}}]}`,
	`{"sources":null}`, `{"sources":[]}`, `null`, `[]`, `5`, `"s"`, ``, `{`, `{"sources":[5]}`,
	`{"schema":5}`, `{"stream":"yes"}`, `{"sources":{}}`, `{"unknown":{"a":[1,{"b":null}]},"sources":[{}]}`,
	`{"sources":[{"x":01}]}`, `{"sources":[{"x":1.}]}`, `{"sources":[{"x":-}]}`, `{"sources":[{"x":1,}]}`,
	`{"sources":[{"x":[1,]}]}`, `{"sources":[{"x":"a` + "\n" + `b"}]}`, `{"sources":[{"x":"\q"}]}`, `{"ſchema":"k","\u212aey":1}`,
}

func FuzzBatchRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	for _, seed := range binarySeeds() {
		v, _ := genValue(seed, 0)
		if body, err := json.Marshal(BatchRequest{Schema: "s", Sources: []map[string]any{{"v": ToJSON(v)}}}); err == nil {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkBatchDecode(t, body) })
}

func TestBatchRequestDecodeSeeds(t *testing.T) {
	for _, s := range requestSeeds {
		checkBatchDecode(t, []byte(s))
	}
	// Nesting to encoding/json's limit is accepted, one deeper is not.
	for _, depth := range []int{maxJSONDepth - 3, maxJSONDepth - 2} {
		body := `{"sources":[{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}]}`
		checkBatchDecode(t, []byte(body))
	}
	if _, err := ScanBatchRequest([]byte(`{"sources":[{"x":` + strings.Repeat("[", 1<<20))); err == nil {
		t.Fatal("a megabyte of open brackets scanned without error")
	}
}

// TestRepeatedSourceLastWins: a repeated source binds its last
// occurrence, so an earlier one that is no value (a number out of range, an
// object) does not fail the instance, and a last one that is no value does.
func TestRepeatedSourceLastWins(t *testing.T) {
	for body, want := range map[string]string{
		`{"sources":[{"x":1e999,"x":7}]}`:             "7",
		`{"sources":[{"x":{"a":[1]},"y":2,"x":[3]}]}`: "[3]",
		`{"sources":[{"x":7,"x":1e999}]}`:             "",
		`{"sources":[{"x":[{}],"x":7,"x":{}}]}`:       "",
	} {
		_, srcs, err := codecBatchDecode([]byte(body))
		if want == "" {
			if err == nil {
				t.Errorf("%s: accepted as %v, want an error", body, srcs)
			}
			continue
		}
		if err != nil || srcs[0]["x"].String() != want {
			t.Errorf("%s: x = %v (err %v), want %s", body, srcs, err, want)
		}
	}
}

// genRequest derives a BatchRequest from fuzz bytes.
func genRequest(data []byte) BatchRequest {
	take := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0]%12), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	req := BatchRequest{Schema: take(), Strategy: take()}
	if len(data) > 0 {
		req.Stream = data[0]&1 != 0
		for n := int(data[0]>>1) % 4; n > 0; n-- {
			var m map[string]any
			if k := take(); k != "nil" {
				m = map[string]any{}
				for j := len(k) % 4; j > 0 && len(data) > 0; j-- {
					var v value.Value
					name := take()
					v, data = genValue(data, 0)
					m[name] = ToJSON(v)
				}
			}
			req.Sources = append(req.Sources, m)
		}
	}
	return req
}

func checkRequestEncode(t *testing.T, req BatchRequest) {
	t.Helper()
	want, wantErr := json.Marshal(req)
	got, gotErr := AppendBatchRequest(nil, &req)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%+v: json.Marshal says %v, codec says %v", req, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %s\nwant %s", req, got, want)
	}
}

func FuzzBatchRequestEncode(f *testing.F) {
	for _, seed := range binarySeeds() {
		f.Add(seed)
	}
	f.Add([]byte("\x05quick\x06PSE100\x07\x03abc\x02ab\x02\x00\x00\x00\x00\x00\x00\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) { checkRequestEncode(t, genRequest(data)) })
}

func TestBatchRequestEncode(t *testing.T) {
	for _, req := range []BatchRequest{
		{},
		{Schema: "s", Sources: []map[string]any{}},
		{Schema: "<s>&\u2028", Strategy: "PSE100", Stream: true, Sources: []map[string]any{
			nil, {}, {"b": int64(2), "a": 1, "c": 2.5, "d": "x\x00\xff\"\\", "e": nil, "f": true,
				"g": []any{int64(1), []any{}, []any(nil)}, "h": json.Number("12"), "i": int32(7),
				"j": map[string]any{"z": 1}, "k": float32(1.5), "l": uint8(3)}}},
		{Sources: []map[string]any{{"nan": math.NaN()}}},
		{Sources: []map[string]any{{"inf": []any{math.Inf(-1)}}}},
	} {
		checkRequestEncode(t, req)
	}
}

func checkResponseDecode(t *testing.T, data []byte) {
	t.Helper()
	if duplicateKeys(data) {
		return
	}
	var want BatchResponse
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := DecodeBatchResponse(data, 0)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json says %v, codec says %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want.Results) {
		t.Fatalf("body %q:\n got %#v\nwant %#v", data, got, want.Results)
	}
}

var responseSeeds = []string{
	goldenResponse,
	`{"results":[{"values":{"t":[1,"a",null,{"k":[]}],"u":-0.0},"elapsed_ms":1e-7,"work":-0,"Launched":3,"ERROR":"\u00e9"},null,{}]}`,
	`{"results":[{"wor\u212a":3,"fa\u0131lures":2,"\u017fynthesis_runs":1,"LAUNCHED":4}]}`,
	`{"results":null}`, `{"results":[]}`, `null`, ` {} `, `{} x`, `[]`, ``, `{"results":[5]}`, `{"results":{}}`,
	`{"results":[{"values":[]}]}`, `{"results":[{"values":null,"work":null,"error":null}]}`,
	`{"results":[{"work":1.0}]}`, `{"results":[{"work":1e2}]}`, `{"results":[{"work":9223372036854775808}]}`,
	`{"results":[{"elapsed_ms":1e999}]}`, `{"results":[{"values":{"t":1e999}}]}`, `{"results":[{"elapsed_ms":"1"}]}`,
	`{"results":[{"error":5}]}`, `{"results":[{"values":{"a":1,}}]}`, `{"other":[{"values":5}],"results":[{"x":{}}]}`,
}

func FuzzBatchResponseDecode(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkResponseDecode(t, data) })
}

func TestBatchResponseDecodeSeeds(t *testing.T) {
	for _, s := range responseSeeds {
		checkResponseDecode(t, []byte(s))
	}
	for _, s := range requestSeeds {
		checkResponseDecode(t, []byte(s))
	}
}

// The golden pair: the bytes on the wire for one request and one response,
// as the parent commit's json.Marshal / json.Encoder wrote them.
const (
	goldenRequest  = `{"schema":"quickstart","strategy":"PSE100","sources":[{"customer_id":1017,"order_total":137.5},{"note":"a\u003cb","tags":["x",null,true]},null]}`
	goldenResponse = `{"results":[{"values":{"discount":0.1,"label":"gold \u0026 \"new\"","route":null},"elapsed_ms":0.25,"work":6,"wasted_work":2,"launched":3,"synthesis_runs":1},{"values":null,"elapsed_ms":0,"work":0,"launched":0,"error":"runtime: service closed"}]}` + "\n"
)

func TestGoldenWirePair(t *testing.T) {
	req := BatchRequest{Schema: "quickstart", Strategy: "PSE100", Sources: []map[string]any{
		{"order_total": 137.5, "customer_id": int64(1017)},
		{"tags": []any{"x", nil, true}, "note": "a<b"},
		nil,
	}}
	got, err := AppendBatchRequest(nil, &req)
	if err != nil || string(got) != goldenRequest {
		t.Fatalf("request:\n got %s (%v)\nwant %s", got, err, goldenRequest)
	}
	body := append([]byte(nil), `{"results":[`...)
	body = AppendEvalResult(body, -1, []string{"discount", "label", "route"},
		[]value.Value{value.Float(0.1), value.Str(`gold & "new"`), value.Null},
		&EvalResult{ElapsedMs: 0.25, Work: 6, WastedWork: 2, Launched: 3, SynthesisRuns: 1})
	body = AppendEvalResult(append(body, ','), -1, nil, nil, &EvalResult{Error: "runtime: service closed"})
	body = append(body, "]}\n"...)
	if string(body) != goldenResponse {
		t.Fatalf("response:\n got %s\nwant %s", body, goldenResponse)
	}
	results, err := DecodeBatchResponse(body, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []EvalResult{
		{Values: map[string]any{"discount": 0.1, "label": `gold & "new"`, "route": nil},
			ElapsedMs: 0.25, Work: 6, WastedWork: 2, Launched: 3, SynthesisRuns: 1},
		{Error: "runtime: service closed"},
	}
	if !reflect.DeepEqual(results, want) {
		t.Fatalf("decoded %#v, want %#v", results, want)
	}
}

// TestAppendEvalResultMatchesMarshal: every value domain corner, the
// omitempty set, and the index tag, against json.Marshal.
func TestAppendEvalResultMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324,
		math.MaxFloat64, 100, 123456789.125, 1.0 / 3}
	for i := 0; i < 2000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var names []string
	var vals []value.Value
	for i, f := range floats {
		if finite(f) {
			names = append(names, "f"+strings.Repeat("0", i%3)+string(rune('a'+i%26))+strings.Repeat("x", i/26))
			vals = append(vals, value.Float(f))
		}
	}
	for i, seed := range binarySeeds() {
		if v, _ := genValue(seed, 0); jsonable(v) {
			names = append(names, "g"+strings.Repeat("y", i))
			vals = append(vals, v)
		}
	}
	names = append(names, "s1", "s2<>&", "s3\u2028\u2029", "s4\x00\x1f\x7f\b\f\n\r\t", "s5\xff\xc0é\"\\")
	for _, n := range names[len(names)-5:] {
		vals = append(vals, value.Str(n))
	}
	results := []EvalResult{
		{ElapsedMs: 0.125, Work: 5, Launched: 2},
		{ElapsedMs: 1e-9, Work: 1, WastedWork: 2, Launched: 3, SynthesisRuns: 4, Failures: 5, Error: "boom <x>"},
	}
	for _, r := range results {
		r.Values = map[string]any{}
		for i, n := range names {
			r.Values[n] = ToJSON(vals[i])
		}
		sorted, sortedVals := sortByName(names, vals)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEvalResult(nil, -1, sorted, sortedVals, &r); !bytes.Equal(got, want) {
			t.Fatalf("result:\n got %s\nwant %s", got, want)
		}
		want, _ = json.Marshal(BatchItem{Index: 7, EvalResult: r})
		if got := AppendEvalResult(nil, 7, sorted, sortedVals, &r); !bytes.Equal(got, want) {
			t.Fatalf("item:\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendEvalResultNonFinite: a value JSON cannot carry goes out as null
// with the target named in the error, unless the instance erred itself.
func TestAppendEvalResultNonFinite(t *testing.T) {
	names := []string{"a", "b", "c"}
	vals := []value.Value{value.Int(4), value.Float(math.Inf(1)), value.List(value.Int(1), value.Float(math.NaN()))}
	got, err := DecodeBatchResponse(append(AppendEvalResult([]byte(`{"results":[`), -1, names, vals, &EvalResult{Work: 1}), "]}"...), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"a": 4.0, "b": nil, "c": nil}
	if !reflect.DeepEqual(got[0].Values, want) || !strings.Contains(got[0].Error, `"b"`) || got[0].Work != 1 {
		t.Fatalf("got %+v", got[0])
	}
	out := AppendEvalResult(nil, -1, names, vals, &EvalResult{Error: "own"})
	if !strings.Contains(string(out), `"error":"own"`) {
		t.Fatalf("instance error replaced: %s", out)
	}
}

func jsonable(v value.Value) bool {
	if f, ok := v.AsFloat(); ok && v.Kind() == value.KindFloat {
		return finite(f)
	}
	elems, _ := v.AsList()
	for _, e := range elems {
		if !jsonable(e) {
			return false
		}
	}
	return true
}

func sortByName(names []string, vals []value.Value) ([]string, []value.Value) {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	// insertion sort keeps this free of a sort.Interface for two slices
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && names[idx[j]] < names[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sn, sv := make([]string, len(idx)), make([]value.Value, len(idx))
	for i, k := range idx {
		sn[i], sv[i] = names[k], vals[k]
	}
	return sn, sv
}
