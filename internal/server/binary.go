package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
)

// This file is the binary ("dfbin") front end: persistent TCP connections
// speaking the length-prefixed frame protocol of internal/api (binary.go),
// served beside the HTTP handlers over the same schema registry, tenant
// admission, drain machinery and runtime. The hot path is allocation-lean
// by construction: frames decode into pooled dense value.Value slot
// buffers that the runtime consumes directly (runtime.Request.SourceSlots),
// and results encode into pooled write buffers that a per-connection
// writer goroutine flushes — runtime workers never block on the TCP write.

// ServeBinary accepts dfbin connections from ln until the listener closes
// (Drain closes registered listeners itself, so callers can just let
// Drain take it down). Each connection is handled on its own goroutines.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.bmu.Lock()
	s.blisteners = append(s.blisteners, ln)
	s.bmu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveBinConn(conn)
	}
}

// binBind is one prepared (schema, strategy) binding on a connection.
type binBind struct {
	entry *schemaEntry
	st    engine.Strategy
	name  string
	// gen is the server's schemaGen observed when the bind last verified
	// its entry against the registry; a cheap equality check on the hot
	// path detects possible supersession without touching the registry.
	gen uint64
}

// binConn is one accepted binary connection.
type binConn struct {
	s          *Server
	conn       net.Conn
	tenantName string

	binds map[uint64]*binBind

	out outbox

	// evals tracks this connection's in-flight instances so teardown can
	// wait for their Done callbacks (which touch the outbox) to finish.
	evals sync.WaitGroup

	closeOnce sync.Once
}

// outbox is the connection's outbound frame queue: producers (runtime Done
// callbacks) never block, the writer goroutine drains in order, and
// buffers recycle through an embedded free list so the steady state
// allocates nothing. Queue growth is bounded by admission: every queued
// frame is an admitted instance's result (or a small control frame).
type outbox struct {
	mu     sync.Mutex
	q      [][]byte
	free   [][]byte
	wake   chan struct{}
	closed bool
}

func (o *outbox) init() { o.wake = make(chan struct{}, 1) }

// buf returns a recycled buffer (or nil — append grows it on first use).
func (o *outbox) buf() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n := len(o.free); n > 0 {
		b := o.free[n-1]
		o.free = o.free[:n-1]
		return b[:0]
	}
	return nil
}

// recycle returns a buffer to the free list without queueing it.
func (o *outbox) recycle(b []byte) {
	o.mu.Lock()
	if !o.closed && len(o.free) < 64 {
		o.free = append(o.free, b)
	}
	o.mu.Unlock()
}

// put queues a frame for writing. After close it drops the frame (the
// connection is gone; results are undeliverable).
func (o *outbox) put(b []byte) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.q = append(o.q, b)
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// take removes the queued frames, blocking until at least one is
// available. done=true means the outbox closed and everything queued
// before the close has been taken.
func (o *outbox) take(into [][]byte) (frames [][]byte, done bool) {
	for {
		o.mu.Lock()
		if len(o.q) > 0 {
			frames = append(into[:0], o.q...)
			o.q = o.q[:0]
			o.mu.Unlock()
			return frames, false
		}
		if o.closed {
			o.mu.Unlock()
			return into[:0], true
		}
		o.mu.Unlock()
		<-o.wake
	}
}

func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// serveBinConn owns one connection: handshake, then the read loop. The
// paired writer goroutine owns all writes.
func (s *Server) serveBinConn(nc net.Conn) {
	// Interpose the conn failpoints only while some site is armed: the
	// wrapper hides *net.TCPConn from net.Buffers' writev fast path, so
	// the disarmed hot path must keep the raw conn.
	if fault.Active() {
		nc = fault.WrapConn(nc, fault.SiteBinConnRead, fault.SiteBinConnWrite)
	}
	// The handshake must arrive promptly; afterwards the connection is
	// persistent and idles freely.
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr := api.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), int(s.cfg.MaxBodyBytes))
	typ, payload, err := fr.Next()
	if err != nil || typ != api.FrameHello {
		nc.Close()
		return
	}
	rawTenant, err := api.ParseHello(payload)
	if err != nil {
		nc.Close()
		return
	}
	tenantName, err := api.CleanTenant(rawTenant)
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})

	c := &binConn{s: s, conn: nc, tenantName: tenantName, binds: make(map[uint64]*binBind)}
	c.out.init()

	s.bmu.Lock()
	s.bconns[c] = struct{}{}
	s.bmu.Unlock()
	go c.writer()

	c.out.put(api.AppendHelloAckFrame(c.out.buf(), s.Draining(), int(s.cfg.MaxBodyBytes)))

	c.readLoop(fr)

	// Reader is done (client disconnect, protocol error, or drain close).
	// Wait for in-flight instances — their Done callbacks queue into the
	// outbox — then flush and close.
	c.evals.Wait()
	c.shutdown()
	s.bmu.Lock()
	delete(s.bconns, c)
	s.bmu.Unlock()
}

// writer drains the outbox to the socket, coalescing every frame queued
// since the last flush into a single vectored write — with a multiplexed
// client pipelining many requests per connection, this is most of the
// syscall saving on the server side. Write errors don't stop it — it
// keeps consuming so producers' buffers recycle — and it closes the
// socket when the outbox closes, which is what unblocks the reader on a
// server-initiated shutdown.
func (c *binConn) writer() {
	var scratch [][]byte
	var vecs net.Buffers
	var broken bool
	for {
		frames, done := c.out.take(scratch)
		if done {
			c.conn.Close()
			return
		}
		scratch = frames
		if !broken {
			// WriteTo consumes its receiver, so it gets a copy of the
			// slice headers; the frames themselves still recycle below.
			vecs = append(vecs[:0], frames...)
			if _, err := vecs.WriteTo(c.conn); err != nil {
				// A partial or failed frame write leaves the stream
				// unframeable; close the socket now so the client sees a
				// prompt conn error and redials, instead of waiting out its
				// request timeout against a wedged half-written stream.
				broken = true
				c.conn.Close()
			}
		}
		for _, b := range frames {
			c.out.recycle(b)
		}
	}
}

// sendDrain pushes the unsolicited Drain frame (server going down).
func (c *binConn) sendDrain() {
	b := c.out.buf()
	start := len(b)
	b = api.BeginFrame(b, api.FrameDrain)
	c.out.put(api.FinishFrame(b, start))
}

// shutdown flushes queued frames and closes the connection. Idempotent;
// called from both the reader teardown and Server.Drain.
func (c *binConn) shutdown() { c.closeOnce.Do(c.out.close) }

// sendErr queues an Error frame.
func (c *binConn) sendErr(reqID uint64, code byte, retry time.Duration, msg string) {
	c.out.put(api.AppendErrorFrame(c.out.buf(), reqID, code, retry.Milliseconds(), msg))
}

// readLoop dispatches request frames until the stream ends or turns
// malformed (either way the connection is torn down — a frame boundary
// can't be recovered).
func (c *binConn) readLoop(fr *api.FrameReader) {
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		cur := api.NewCursor(payload)
		reqID := cur.Uvarint()
		if cur.Err() != nil {
			return
		}
		switch typ {
		case api.FrameEval:
			if !c.handleEval(reqID, &cur) {
				return
			}
		case api.FrameEvalBatch:
			if !c.handleEvalBatch(reqID, &cur) {
				return
			}
		case api.FrameBind:
			if !c.handleBind(reqID, &cur) {
				return
			}
		case api.FrameRegister:
			if !c.handleRegister(reqID, &cur) {
				return
			}
		case api.FrameForward:
			if !c.handleForward(reqID, &cur) {
				return
			}
		case api.FrameStats:
			c.handleStats(reqID)
		case api.FramePing:
			b := c.out.buf()
			start := len(b)
			b = api.BeginFrame(b, api.FramePong)
			b = api.AppendUvarint(b, reqID)
			b = append(b, 0)
			if c.s.Draining() {
				b[len(b)-1] = 1
			}
			c.out.put(api.FinishFrame(b, start))
		default:
			// Unknown frame type: protocol mismatch, tear down.
			return
		}
	}
}

// handleBind resolves a (schema, strategy) pair and installs it under the
// client-chosen bind id, answering with the schema fingerprint and the
// attribute-id table that Eval frames will address.
func (c *binConn) handleBind(reqID uint64, cur *api.Cursor) bool {
	bindID := cur.Uvarint()
	name := cur.String()
	stCode := cur.String()
	if cur.Done() != nil {
		return false
	}
	if len(c.binds) >= 1024 {
		c.sendErr(reqID, api.CodeTooLarge, 0, "too many binds on one connection")
		return true
	}
	s := c.s
	s.mu.RLock()
	entry := s.schemas[name]
	s.mu.RUnlock()
	if entry == nil {
		c.sendErr(reqID, api.CodeNotFound, 0, fmt.Sprintf("unknown schema %q", name))
		return true
	}
	st := s.cfg.DefaultStrategy
	if stCode != "" {
		var err error
		if st, err = engine.ParseStrategy(stCode); err != nil {
			c.sendErr(reqID, api.CodeBadRequest, 0, err.Error())
			return true
		}
	}
	c.binds[bindID] = &binBind{entry: entry, st: st, name: name, gen: s.schemaGen.Load()}

	sch := entry.schema
	b := c.out.buf()
	start := len(b)
	b = api.BeginFrame(b, api.FrameBindAck)
	b = api.AppendUvarint(b, reqID)
	b = api.AppendUvarint(b, bindID)
	var fp [8]byte
	for i, v := 0, sch.Fingerprint(); i < 8; i++ {
		fp[i] = byte(v >> (8 * i))
	}
	b = append(b, fp[:]...)
	n := sch.NumAttrs()
	b = api.AppendUvarint(b, uint64(n))
	for id := 0; id < n; id++ {
		a := sch.Attr(core.AttrID(id))
		var flags byte
		if a.IsSource() {
			flags |= api.BindFlagSource
		}
		if a.IsTarget {
			flags |= api.BindFlagTarget
		}
		b = append(b, flags)
		b = api.AppendString(b, a.Name)
	}
	c.out.put(api.FinishFrame(b, start))
	return true
}

// resolveBind returns the bind for the id, verifying it has not been
// superseded by a re-registration (CodeStale tells the client to
// re-bind; its cached attribute table may no longer match).
func (c *binConn) resolveBind(reqID, bindID uint64) *binBind {
	bd := c.binds[bindID]
	if bd == nil {
		c.sendErr(reqID, api.CodeNotFound, 0, fmt.Sprintf("unknown bind id %d", bindID))
		return nil
	}
	if gen := c.s.schemaGen.Load(); gen != bd.gen {
		c.s.mu.RLock()
		cur := c.s.schemas[bd.name]
		c.s.mu.RUnlock()
		if cur != bd.entry {
			c.sendErr(reqID, api.CodeStale, 0,
				fmt.Sprintf("schema %q re-registered since bind; re-bind", bd.name))
			return nil
		}
		bd.gen = gen
	}
	return bd
}

// admitEval admits n instances of bd on this connection and readies their
// batch, or returns nil with the refusal's Error frame queued.
func (c *binConn) admitEval(reqID uint64, bd *binBind, n int) *binEval {
	s := c.s
	t := s.tenantFor(c.tenantName)
	if ref := s.admitShared(t, n); ref != nil {
		c.sendErr(reqID, ref.binCode(), ref.retry, ref.msg)
		return nil
	}
	e := &binEval{c: c, reqID: reqID}
	e.init(s, t, c.tenantName, bd.entry, bd.st, n, e)
	return e
}

// handleEval serves one Eval frame: decode (attrID, value) pairs into the
// slot of a batch of one. Returns false only on a malformed frame
// (connection teardown).
func (c *binConn) handleEval(reqID uint64, cur *api.Cursor) bool {
	bd := c.resolveBind(reqID, cur.Uvarint())
	if cur.Err() != nil {
		return false
	}
	if bd == nil {
		return true // Error frame queued; rest of the payload is moot
	}
	e := c.admitEval(reqID, bd, 1)
	if e == nil {
		return true
	}
	e.single = true
	sb := e.slots[0]
	npairs := cur.Uvarint()
	if npairs > uint64(len(cur.Rest())) { // each pair costs ≥ 2 bytes
		e.drop(1)
		return false
	}
	for i := uint64(0); i < npairs; i++ {
		id := cur.Uvarint()
		v := cur.Value()
		if cur.Err() != nil {
			break
		}
		if id >= uint64(len(sb.v)) {
			e.drop(1)
			c.sendErr(reqID, api.CodeBadRequest, 0,
				fmt.Sprintf("attribute id %d out of range", id))
			return false
		}
		sb.v[id] = v
	}
	if cur.Done() != nil {
		e.drop(1)
		return false
	}
	c.evals.Add(1)
	e.submitAll(nil)
	return true
}

// binEval is a dfbin eval's end: put encodes result bodies into the slots,
// last queues a Result (Eval) or BatchResult (EvalBatch) frame.
type binEval struct {
	evalBatch
	c      *binConn
	reqID  uint64
	single bool // an Eval frame
}

func (e *binEval) put(i int, res *engine.Result, err error) {
	sb := e.slots[i]
	sb.out = appendResultBody(sb.out[:0], e.entry, res, err)
}

func (e *binEval) last() {
	c := e.c
	n := len(e.slots)
	if e.single && e.refused != nil {
		c.sendErr(e.reqID, api.CodeInternal, 0, e.refused.Error())
	} else {
		typ := api.FrameBatchResult
		if e.single {
			typ = api.FrameResult
		}
		b := c.out.buf()
		start := len(b)
		b = api.BeginFrame(b, typ)
		b = api.AppendUvarint(b, e.reqID)
		if !e.single {
			b = api.AppendUvarint(b, uint64(n))
		}
		for _, sb := range e.slots {
			b = append(b, sb.out...)
		}
		c.out.put(api.FinishFrame(b, start))
	}
	putSlots(e.slots)
	c.evals.Add(-n)
}

// handleEvalBatch serves one columnar EvalBatch frame. Admission covers
// the whole batch before the values decode — the frame header names the
// instance count up front, so unlike HTTP there is no two-step admit.
func (c *binConn) handleEvalBatch(reqID uint64, cur *api.Cursor) bool {
	bd := c.resolveBind(reqID, cur.Uvarint())
	if cur.Err() != nil {
		return false
	}
	if bd == nil {
		return true
	}
	n := int(cur.Uvarint())
	ncols := int(cur.Uvarint())
	if cur.Err() != nil {
		return false
	}
	s := c.s
	if n <= 0 {
		c.sendErr(reqID, api.CodeBadRequest, 0, "empty batch")
		return true
	}
	if n > s.cfg.MaxBatch {
		c.sendErr(reqID, api.CodeTooLarge, 0,
			fmt.Sprintf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch))
		return true
	}
	nattrs := bd.entry.schema.NumAttrs()
	if ncols < 0 || ncols > nattrs {
		c.sendErr(reqID, api.CodeBadRequest, 0, "more columns than attributes")
		return false
	}
	cols := make([]int, ncols)
	for i := range cols {
		id := cur.Uvarint()
		if cur.Err() != nil {
			return false
		}
		if id >= uint64(nattrs) {
			c.sendErr(reqID, api.CodeBadRequest, 0,
				fmt.Sprintf("attribute id %d out of range", id))
			return false
		}
		cols[i] = int(id)
	}

	e := c.admitEval(reqID, bd, n)
	if e == nil {
		return true
	}
	// Column-major: all n values of column 0, then column 1, …
	for _, id := range cols {
		for _, sb := range e.slots {
			sb.v[id] = cur.Value()
		}
		if cur.Err() != nil {
			e.drop(n)
			return false
		}
	}
	if cur.Done() != nil {
		e.drop(n)
		return false
	}
	c.evals.Add(n)
	e.submitAll(nil)
	return true
}

// appendResultBody encodes one instance's answer per the result-body
// grammar of internal/api — the binary sibling of appendResult: res while
// its pooled snapshot is valid, or a refusal as a zeroed body with err.
func appendResultBody(b []byte, entry *schemaEntry, res *engine.Result, err error) []byte {
	if res == nil {
		for k := 0; k < 6; k++ {
			b = api.AppendUvarint(b, 0) // elapsedUs, work, wasted, launched, synth, failures
		}
		b = api.AppendString(b, err.Error())
		return api.AppendUvarint(b, 0) // no targets
	}
	b = api.AppendUvarint(b, uint64(max(res.Elapsed*1000, 0))) // µs
	b = api.AppendUvarint(b, uint64(res.Work))
	b = api.AppendUvarint(b, uint64(res.WastedWork))
	b = api.AppendUvarint(b, uint64(res.Launched))
	b = api.AppendUvarint(b, uint64(res.SynthesisRuns))
	b = api.AppendUvarint(b, uint64(res.Failures))
	errStr := ""
	if res.Err != nil {
		errStr = res.Err.Error()
	}
	b = api.AppendString(b, errStr)
	b = api.AppendUvarint(b, uint64(len(entry.targetIDs)))
	for _, id := range entry.targetIDs {
		b = api.AppendUvarint(b, uint64(id))
		b = api.AppendValue(b, res.Snapshot.Val(id))
	}
	return b
}

// handleRegister mirrors POST /v1/schemas: metered under the tenant's
// admission, then the shared registration core.
func (c *binConn) handleRegister(reqID uint64, cur *api.Cursor) bool {
	text := cur.String()
	if cur.Done() != nil {
		return false
	}
	s := c.s
	t := s.tenantFor(c.tenantName)
	if ref := admitTenant(t, 1); ref != nil {
		c.sendErr(reqID, ref.binCode(), ref.retry, ref.msg)
		return true
	}
	defer t.release(1)
	resp, rerr := s.registerSchema(c.tenantName, text, false, 0)
	if rerr != nil {
		code := api.CodeBadRequest
		switch rerr.httpStatus {
		case http.StatusForbidden, http.StatusNotFound:
			code = api.CodeNotFound
		case http.StatusInsufficientStorage:
			code = api.CodeTooLarge
		case http.StatusServiceUnavailable:
			code = api.CodeDraining
		case http.StatusInternalServerError:
			code = api.CodeInternal
		}
		if rerr.binCode != 0 {
			// The registration core pinned the wire code (poisoned /
			// read-only registry must not read as CodeDraining's
			// try-another-node hint).
			code = rerr.binCode
		}
		c.sendErr(reqID, code, 0, rerr.msg)
		return true
	}
	fp, _ := strconv.ParseUint(resp.Fingerprint, 16, 64)
	b := c.out.buf()
	start := len(b)
	b = api.BeginFrame(b, api.FrameRegisterAck)
	b = api.AppendUvarint(b, reqID)
	b = api.AppendString(b, resp.Name)
	b = api.AppendUvarint(b, uint64(resp.Attrs))
	b = api.AppendUvarint(b, uint64(len(resp.Targets)))
	for _, tgt := range resp.Targets {
		b = api.AppendString(b, tgt)
	}
	b = api.AppendUvarint(b, resp.Version)
	b = append(b, byte(fp), byte(fp>>8), byte(fp>>16), byte(fp>>24),
		byte(fp>>32), byte(fp>>40), byte(fp>>48), byte(fp>>56))
	c.out.put(api.FinishFrame(b, start))
	return true
}

// handleForward serves one peer-forwarded backend query (see peer.go):
// this node is the query's home, so it runs the flight under its own
// single-flight/cache tables and acks with the flight's fate. Schemas are
// addressed by name + fingerprint (peers share a registry, not a
// connection); a name miss, a fingerprint mismatch, or a draining server
// refuses with an Error frame, which tells the forwarder to fall back to
// a local flight. Forwarded queries hold the same drain claim as evals —
// Drain flushes their acks before closing connections — but bypass
// tenant admission: the forwarder's node already admitted the eval that
// spawned the query, and double-metering would shed fleet traffic twice.
func (c *binConn) handleForward(reqID uint64, cur *api.Cursor) bool {
	name := cur.String()
	fp := cur.U64()
	attr := cur.Uvarint()
	cost := cur.Uvarint()
	args := cur.Bytes()
	if cur.Done() != nil {
		return false
	}
	s := c.s
	s.mu.RLock()
	entry := s.schemas[name]
	s.mu.RUnlock()
	if entry == nil {
		c.sendErr(reqID, api.CodeNotFound, 0, fmt.Sprintf("unknown schema %q", name))
		return true
	}
	if entry.fingerprint != fp {
		c.sendErr(reqID, api.CodeStale, 0, fmt.Sprintf(
			"schema %q fingerprint mismatch (registry %016x, forwarded %016x)",
			name, entry.fingerprint, fp))
		return true
	}
	if attr >= uint64(entry.schema.NumAttrs()) {
		c.sendErr(reqID, api.CodeBadRequest, 0,
			fmt.Sprintf("attribute id %d out of range", attr))
		return true
	}
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		c.sendErr(reqID, api.CodeDraining, 0, ErrDraining.Error())
		return true
	}
	s.evals.Add(1)
	s.drainMu.RUnlock()
	// The payload buffer recycles when the read loop advances; the flight
	// outlives this frame, so the args must be copied out.
	argsCopy := append([]byte(nil), args...)
	c.evals.Add(1)
	done := func(err error) {
		b := c.out.buf()
		start := len(b)
		b = api.BeginFrame(b, api.FrameForwardAck)
		b = api.AppendUvarint(b, reqID)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		b = api.AppendString(b, msg)
		c.out.put(api.FinishFrame(b, start))
		s.evals.Done()
		c.evals.Done()
	}
	// ServePeerQuery never waits for admission (a query over the bound
	// parks in the dispatcher), but it can flush the batch it completes and
	// so block on the backend's own bound (Latency.Parallel); a dedicated
	// goroutine keeps the read loop serving other frames meanwhile.
	go func() {
		err := s.svc.ServePeerQuery(entry.schema, core.AttrID(attr), argsCopy, int(cost), done)
		if err != nil {
			// Never entered the query layer (service closed mid-drain,
			// or no query layer at all): an Error frame, not a failed
			// ack, so the forwarder falls back instead of sharing fate.
			c.sendErr(reqID, api.CodeInternal, 0, err.Error())
			s.evals.Done()
			c.evals.Done()
		}
	}()
	return true
}

// handleStats answers with the JSON StatsResponse — the cold path reuses
// the JSON rendering rather than duplicating the stats grammar in binary.
func (c *binConn) handleStats(reqID uint64) {
	s := c.s
	resp, err := s.statsResponse()
	if err != nil {
		c.sendErr(reqID, api.CodeInternal, 0, err.Error())
		return
	}
	js, err := json.Marshal(resp)
	if err != nil {
		c.sendErr(reqID, api.CodeInternal, 0, err.Error())
		return
	}
	b := c.out.buf()
	start := len(b)
	b = api.BeginFrame(b, api.FrameStatsAck)
	b = api.AppendUvarint(b, reqID)
	b = api.AppendUvarint(b, uint64(len(js)))
	b = append(b, js...)
	c.out.put(api.FinishFrame(b, start))
}
