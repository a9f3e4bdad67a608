package server

// The eval pipeline's shared middle: every wire decodes an instance's
// sources into a pooled slotBuf, submits it with runtime.Request.SourceSlots
// and encodes the answer inside the runtime's Done callback, while the
// pooled snapshot is valid. The wires differ only at the edges — how the
// slots were decoded (api.ScannedRequest for JSON, api.Cursor for dfbin) and
// what the per-instance sink appends (a JSON result, an NDJSON line, a
// dfbin result body).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/value"
)

// slotBuf is one instance's pooled buffers: the dense source slots the
// runtime consumes (see runtime.Request.SourceSlots), the bindings that have
// no slot, and the instance's encoded answer on the JSON wire.
type slotBuf struct {
	v []value.Value
	// extra holds bindings whose name is not a source of the live schema,
	// which slots cannot carry and the live instance ignores — but a shadow
	// candidate that adds a source must see them, and a capture record
	// keeps them. Nil unless a JSON request sent such a name.
	extra []api.CaptureSource
	out   []byte
}

var slotPool = sync.Pool{New: func() any { return new(slotBuf) }}

// getSlots returns a cleared slot buffer of length n.
func getSlots(n int) *slotBuf {
	sb := slotPool.Get().(*slotBuf)
	if cap(sb.v) < n {
		sb.v = make([]value.Value, n)
	} else {
		sb.v = sb.v[:n]
		clear(sb.v)
	}
	sb.extra = nil
	return sb
}

func putSlots(slots []*slotBuf) {
	for _, sb := range slots {
		slotPool.Put(sb)
	}
}

// bodyPool recycles request and response body buffers of the JSON wire (a
// sync.Pool sheds what it holds across GC cycles, an 8 MiB body included).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// bind stores one decoded binding of an instance: in the source's slot, or
// in the overflow when the live schema has no source of that name. A
// repeated name overwrites, as it did in the name-keyed map.
func (e *schemaEntry) bind(sb *slotBuf, name []byte, v value.Value) {
	if id, ok := e.srcIndex[string(name)]; ok {
		sb.v[id] = v
		return
	}
	for i := range sb.extra {
		if sb.extra[i].Name == string(name) {
			sb.extra[i].Val = v
			return
		}
	}
	sb.extra = append(sb.extra, api.CaptureSource{Name: string(name), Val: v})
}

// decodeEval reads a POST /v1/eval (a batch of one) or /v1/eval/batch body
// and decodes it: the top level once, then — the schema resolved — each
// instance's source object straight into a pooled slotBuf. flag is the
// request's async or stream member. On failure the response is written.
func (s *Server) decodeEval(w http.ResponseWriter, r *http.Request, batch bool) (entry *schemaEntry, st engine.Strategy, flag bool, slots []*slotBuf, ok bool) {
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bodyPool.Put(body)
	// Like Decoder.Decode, only the first JSON value counts: a read error
	// (body over MaxBodyBytes, client gone) matters only if it cut that short.
	_, readErr := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	scan := api.ScanEvalRequest
	if batch {
		scan = api.ScanBatchRequest
	}
	req, err := scan(body.Bytes())
	if err != nil {
		if readErr != nil {
			err = readErr
		}
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	if req.N == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch", 0)
		return
	}
	if req.N > s.cfg.MaxBatch {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", req.N, s.cfg.MaxBatch), 0)
		return
	}
	if entry, st, ok = s.resolveSchema(w, req.Schema, req.Strategy); !ok {
		return
	}
	slots = make([]*slotBuf, req.N)
	for i := range slots {
		slots[i] = getSlots(entry.schema.NumAttrs())
	}
	err = req.Sources(func(i int, name []byte, v value.Value) { entry.bind(slots[i], name, v) })
	if err != nil {
		putSlots(slots)
		writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return entry, st, false, nil, false
	}
	return entry, st, req.Flag, slots, true
}

// submitAll is the Hold → shadowSample → Submit{Done: shadowFinish,
// captureEval, sink} → release loop of every batch: HTTP, NDJSON stream and
// dfbin EvalBatch. sink runs once per instance: inside the runtime's Done
// callback, on a service worker, with the result (valid, like its pooled
// snapshot, only until sink returns) — or at once with the error when the
// service refused the instance. ctx cancels the instances; it is nil on
// dfbin, whose connections have no per-request context.
func (s *Server) submitAll(ctx context.Context, entry *schemaEntry, st engine.Strategy, tenantName string, slots []*slotBuf, sink func(i int, res *engine.Result, err error)) {
	release := s.svc.Hold() // the batch's queries leave together, not per idle instance
	for i, sb := range slots {
		shc := s.shadowSample(entry, tenantName, st, sb)
		err := s.svc.Submit(runtime.Request{
			Schema:      entry.schema,
			SourceSlots: sb.v,
			Strategy:    st,
			Tenant:      tenantName,
			Ctx:         ctx,
			Done: func(res *engine.Result) {
				s.shadowFinish(shc, entry, res)
				s.captureEval(entry, tenantName, st, sb, res)
				sink(i, res, nil)
			},
		})
		if err != nil {
			sink(i, nil, err)
		}
	}
	release()
}

// appendResult renders one instance's answer as JSON — an EvalResult, or
// with index >= 0 the BatchItem of a stream line: res inside the runtime's
// Done callback, or the refusal of an instance that never ran.
func appendResult(b []byte, index int, entry *schemaEntry, res *engine.Result, err error) []byte {
	var (
		r     api.EvalResult
		names []string
		vals  []value.Value
	)
	if res == nil {
		r.Error = err.Error()
	} else {
		r = api.EvalResult{ElapsedMs: res.Elapsed, Work: res.Work, WastedWork: res.WastedWork,
			Launched: res.Launched, SynthesisRuns: res.SynthesisRuns, Failures: res.Failures}
		if res.Err != nil {
			r.Error = res.Err.Error()
		}
		var scratch [8]value.Value
		names, vals = entry.digestNames, scratch[:0]
		for _, id := range entry.digestIDs {
			vals = append(vals, res.Snapshot.Val(id))
		}
	}
	return api.AppendEvalResult(b, index, names, vals, &r)
}

// writeBody sends a JSON body that is already encoded, in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}
