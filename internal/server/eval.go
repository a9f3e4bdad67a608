package server

// The eval pipeline: every entry point on either wire decodes its sources
// into the pooled slots of an evalBatch (a single eval is a batch of one),
// which submits them with runtime.Request.SourceSlots and encodes each
// answer inside the runtime's Done callback, while the pooled snapshot is
// valid. Entry points differ only in the decode, put and last.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/value"
)

// slotBuf is one instance's pooled buffers: the dense source slots the
// runtime consumes (see runtime.Request.SourceSlots), the bindings that have
// no slot, the instance's encoded answer and its cancel handle.
type slotBuf struct {
	v []value.Value
	// extra holds bindings whose name is not a source of the live schema,
	// which slots cannot carry and the live instance ignores — but a shadow
	// candidate that adds a source must see them, and a capture record
	// keeps them. Nil unless a JSON request sent such a name.
	extra []api.CaptureSource
	out   []byte
	// h cancels the instance; set only when it was submitted with a ctx.
	h runtime.Handle
}

var slotPool = sync.Pool{New: func() any { return new(slotBuf) }}

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
// instance's source object straight into a slot of the returned batch. flag
// is the request's async or stream member. On failure the response is
// written.
func (s *Server) decodeEval(w http.ResponseWriter, r *http.Request, batch bool, t *tenant, tenantName string) (h *httpEval, flag bool, ok bool) {
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
	entry, st, found := s.resolveSchema(w, req.Schema, req.Strategy)
	if !found {
		return
	}
	h = new(httpEval)
	h.init(s, t, tenantName, entry, st, req.N, h)
	err = req.Sources(func(i int, name []byte, v value.Value) { entry.bind(h.slots[i], name, v) })
	if err != nil {
		putSlots(h.slots)
		writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return nil, false, false
	}
	return h, req.Flag, true
}

// evalBatch is one admitted eval request from its first Submit to its last
// Done. It owns the slots (each with its instance's cancel handle), the n
// claims admission granted (tenant in-flight and the server's eval count)
// and the countdown; each entry point embeds one and is its end.
type evalBatch struct {
	s          *Server
	t          *tenant
	tenantName string
	entry      *schemaEntry
	st         engine.Strategy
	end        batchEnd
	slots      []*slotBuf
	refused    error // the service's refusal (it was closed), set before put
	left       atomic.Int64
	slot1      [1]*slotBuf // a batch of one allocates no slice
}

// batchEnd is an entry point's side of the pipeline.
type batchEnd interface {
	// put receives instance i's answer on the worker that finished it, res
	// valid (like its pooled snapshot) only until put returns — or, with res
	// nil, the refusal err of an instance that never ran.
	put(i int, res *engine.Result, err error)
	// last runs once after every put: tenant claims released, eval count not.
	last()
}

// init readies b for n instances of entry in cleared pooled slots; the
// caller owns n claims of tenant t.
func (b *evalBatch) init(s *Server, t *tenant, tenantName string, entry *schemaEntry, st engine.Strategy, n int, end batchEnd) {
	b.s, b.t, b.tenantName, b.entry, b.st, b.end = s, t, tenantName, entry, st, end
	b.slots = b.slot1[:]
	if n > 1 {
		b.slots = make([]*slotBuf, n)
	}
	nattrs := entry.schema.NumAttrs()
	for i := range b.slots {
		sb := slotPool.Get().(*slotBuf)
		if cap(sb.v) < nattrs {
			sb.v = make([]value.Value, nattrs)
		} else {
			sb.v = sb.v[:nattrs]
			clear(sb.v)
		}
		sb.extra, sb.h = nil, runtime.Handle{}
		b.slots[i] = sb
	}
	b.left.Store(int64(n))
}

// drop gives back the slots and k claims of a batch that will not be
// submitted (a malformed frame, a refused second admission step).
func (b *evalBatch) drop(k int) {
	putSlots(b.slots)
	b.s.unwind(b.t, k)
}

// submitAll is the Hold → shadowSample → Submit{Done: shadowFinish,
// captureEval, put, done} → release loop of every eval; the Hold makes the
// batch's queries leave together. A non-nil ctx cancels the instances, and
// their handles stay in the slots. A refused instance is put with the
// error and counted down at once, its claim unaccepted (it never ran).
func (b *evalBatch) submitAll(ctx context.Context) {
	s := b.s
	release := s.svc.Hold()
	for i, sb := range b.slots {
		shc := s.shadowSample(b.entry, b.tenantName, b.st, sb)
		h, err := s.svc.SubmitCancel(runtime.Request{
			Schema:      b.entry.schema,
			SourceSlots: sb.v,
			Strategy:    b.st,
			Tenant:      b.tenantName,
			Ctx:         ctx,
			Done: func(res *engine.Result) {
				s.shadowFinish(shc, b.entry, res)
				s.captureEval(b.entry, b.tenantName, b.st, sb, res)
				b.end.put(i, res, nil)
				b.done()
			},
		})
		if err != nil {
			b.refused = err
			b.t.unaccept(1)
			b.end.put(i, nil, err)
			b.done()
		} else if ctx != nil {
			sb.h = h // a worker may finish the instance meanwhile, but never reads h
		}
	}
	release()
}

// done counts one instance down. The last releases the tenant's claims,
// runs last, then drops the eval count: a client that reads its answer
// must find its claims free, and Drain every dfbin answer queued and every
// async TTL timer armed.
func (b *evalBatch) done() {
	if b.left.Add(-1) > 0 {
		return
	}
	n := len(b.slots)
	b.t.release(n)
	b.end.last()
	b.s.evals.Add(-n)
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
