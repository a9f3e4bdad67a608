// Package server is the networked front end of the serving runtime: a
// multi-tenant HTTP/JSON API (wire shapes in internal/api) over
// runtime.Service, with per-tenant admission control, global load
// shedding, long-poll delivery for slow instances, and a graceful drain
// protocol. cmd/dfsd is the daemon wrapper; internal/client is the typed
// Go client.
//
// Endpoints:
//
//	POST /v1/schemas      register a schema (text format)
//	POST /v1/eval         evaluate one instance (sync, or async via 202+ID)
//	POST /v1/eval/batch   evaluate many instances (one response or NDJSON stream)
//	GET  /v1/results/{id} long-poll an async result
//	GET  /v1/stats        runtime + per-tenant metrics
//	GET  /healthz         liveness (503 while draining)
//
// Admission runs in layers: per-tenant token-bucket rate limit and
// in-flight quota first (429 + Retry-After, counted per cause), then one
// global overload bound on queueing delay — how long the oldest waiting
// work has waited, whether an instance waiting for a worker or a backend
// query waiting for an admission permit — which sheds regardless of tenant
// (a backlog hurts everyone's latency). What is admitted runs under the
// service's own backend admission.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flows"
	"repro/internal/runtime"
)

// Config configures a Server.
type Config struct {
	// Service is the serving runtime to front. Required.
	Service *runtime.Service
	// DefaultStrategy runs instances whose request names none.
	// Zero value means PSE100.
	DefaultStrategy engine.Strategy
	// Tenant are the per-tenant admission limits (each tenant gets its
	// own bucket/quota with these bounds). Zero means unlimited.
	Tenant TenantLimits
	// ShedDelay sheds new work, whatever its tenant, while the oldest
	// waiting work has waited longer than this: an instance waiting for a
	// worker or a backend query waiting for an admission permit
	// (runtime.Service.QueueDelay), so a CPU-bound and a database-bound
	// backlog both trip it. 0 = 100ms; negative disables.
	ShedDelay time.Duration
	// ResultTTL bounds how long an unfetched async result is retained
	// (0 = 1 minute).
	ResultTTL time.Duration
	// MaxBatch bounds instances per batch request (0 = 4096).
	MaxBatch int
	// MaxSchemas bounds registered schemas (0 = 1024).
	MaxSchemas int
	// MaxTenants bounds the distinct tenants tracked (0 = 4096). Tenant
	// names are client-supplied, and each one pins admission state here
	// plus latency cells in the runtime's stats shards for the server's
	// lifetime — without a cap, a client cycling X-Tenant values grows
	// server memory without bound. Past the cap, requests from unseen
	// tenants are shed with 429.
	MaxTenants int
	// MaxBodyBytes bounds request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// DataDir, when non-empty, makes the schema registry durable: accepted
	// registrations append to a write-ahead log under this directory
	// before acking, and Open replays snapshot+log on boot (verifying each
	// schema's fingerprint). Empty keeps the registry in memory only.
	DataDir string
	// SnapshotEvery is how many WAL appends trigger a snapshot rewrite and
	// log truncation (0 = 256). Only meaningful with DataDir.
	SnapshotEvery int
	// CaptureDir, when non-empty, records every admitted eval (both wires)
	// as a capture record under this directory for later replay with
	// dfreplay (see internal/capture). Capture is best-effort by contract:
	// a full ring or a disk fault drops records and counts them in
	// /v1/stats, and never blocks or fails serving — the opposite of the
	// registry WAL's fail-closed semantics.
	CaptureDir string
	// CaptureRotateBytes rotates capture files past this size (0 = 64 MiB).
	CaptureRotateBytes int64
	// CaptureRing is the capture hand-off ring capacity (0 = 1024).
	CaptureRing int
	// MaxShadowInFlight bounds concurrent shadow-candidate evaluations
	// (0 = 64); sampled evals beyond it are counted as skipped, never
	// queued — shadow work must not be able to starve live traffic.
	MaxShadowInFlight int
	// Peers, when non-empty, joins this node to a front-end fleet: the
	// full member list of dfbin addresses, this node's own included (as
	// PeerSelf). Each attribute-level backend query is routed to its home
	// node by the same hash the backend cluster shards on, so the fleet
	// shares one single-flight/cache entry per identity (see peer.go).
	// Requires the service's query layer (dedup or cache) to be on.
	Peers []string
	// PeerSelf is this node's own address in Peers. Required with Peers.
	PeerSelf string
	// PeerForwardTimeout bounds one forwarded query round trip, after
	// which the forwarder falls back to a local flight (0 = 10s).
	PeerForwardTimeout time.Duration
	// PeerBreakerAfter is how many consecutive forward failures open a
	// peer's fallback breaker (0 = 3); PeerBreakerCooldown is how long an
	// open breaker waits before probing the peer again (0 = 2s).
	PeerBreakerAfter    int
	PeerBreakerCooldown time.Duration
	// PeerStatsTimeout bounds each per-peer stats fetch during the
	// GET /v1/stats?fleet=1 fan-out (0 = 2s): a dead or hung peer
	// degrades to an Err marker in the aggregate instead of stalling it.
	PeerStatsTimeout time.Duration
}

// Server is the HTTP front end. Create with New, expose via Handler,
// shut down with Drain.
type Server struct {
	cfg   Config
	svc   *runtime.Service
	mux   *http.ServeMux
	start time.Time

	mu      sync.RWMutex // guards schemas, versions, and the wal store
	schemas map[string]*schemaEntry
	// versions is the per-name monotone version counter, surviving head
	// replacement and shadow registration (both consume a version).
	versions map[string]uint64
	// wal is the durable registry store; nil without Config.DataDir.
	wal      *walStore
	recovery RecoveryInfo

	tmu     sync.Mutex // guards tenants
	tenants map[string]*tenant

	results   sync.Map // async result id → *httpEval
	resultSeq atomic.Uint64

	// drainMu orders eval admission against Drain: evals hold the read
	// side while raising the in-flight count, so once Drain's write lock
	// falls every later eval observes draining and the WaitGroup can only
	// go down.
	drainMu  sync.RWMutex
	draining bool
	evals    sync.WaitGroup // admitted instances not yet completed

	stopWake chan struct{}

	// schemaGen counts schema registrations; binary connections use it to
	// detect that a bound schema may have been superseded (see binary.go).
	schemaGen atomic.Uint64

	// Binary front end state: the accept listeners and live connections,
	// tracked so Drain can stop accepts, push Drain frames, and flush and
	// close every connection once in-flight evals have completed.
	bmu        sync.Mutex
	blisteners []net.Listener
	bconns     map[*binConn]struct{}

	// peers is the front-end fleet router; nil without Config.Peers.
	peers *peerTier

	// capture is the eval capture writer; nil without Config.CaptureDir
	// (the nil check is the entire disabled-path cost).
	capture *capture.Writer
}

// schemaEntry is one registered schema version with its pre-resolved
// targets. owner is the tenant that registered it ("" for built-ins): the
// schema namespace is shared for reads, but only the owner may replace an
// entry — without this, any tenant could silently swap another tenant's
// schema and change its eval results.
//
// Entries are immutable once installed (shadow is the one mutable slot,
// and it is atomic), which is what makes version pinning free: everything
// in flight — a sync handler, an async Done closure, a batch, a binary
// bind — captured its *schemaEntry at admission and finishes on that
// version no matter how many re-registrations land meanwhile. New
// admissions resolve the registry head.
type schemaEntry struct {
	schema      *core.Schema
	owner       string
	targetIDs   []core.AttrID
	targetNames []string
	// version is the per-name monotone registration version; text is the
	// source it was registered from ("" for built-ins, which are never
	// persisted); fingerprint caches schema.Fingerprint().
	version     uint64
	text        string
	fingerprint uint64
	// prev links the superseded version chain (introspection only;
	// pinning works by capture). Trimmed to maxVersionChain so
	// re-registration churn cannot grow memory without bound.
	prev *schemaEntry
	// shadow is the candidate version under shadow comparison, if any.
	shadow atomic.Pointer[shadowState]
	// digestIDs/digestNames are the targets re-sorted by name — the
	// decision-digest fold order and the key order of a JSON result's
	// values object, precomputed so neither sorts per eval.
	digestIDs   []core.AttrID
	digestNames []string
	// srcIndex maps each source attribute's name to its id: the HTTP
	// handlers decode a request's source objects straight into dense slots
	// by it. srcIDs are the same sources in ascending name order, the order
	// of a capture record's source vector.
	srcIndex map[string]core.AttrID
	srcIDs   []core.AttrID
}

// maxVersionChain bounds how many superseded versions stay linked.
const maxVersionChain = 8

func newEntry(s *core.Schema, owner, text string, version uint64) *schemaEntry {
	e := &schemaEntry{schema: s, owner: owner, targetIDs: s.Targets(),
		version: version, text: text, fingerprint: s.Fingerprint()}
	for _, id := range e.targetIDs {
		e.targetNames = append(e.targetNames, s.Attr(id).Name)
	}
	e.digestIDs, e.digestNames = capture.TargetOrder(s)
	e.srcIndex = make(map[string]core.AttrID)
	for _, id := range s.Sources() {
		e.srcIndex[s.Attr(id).Name] = id
	}
	e.srcIDs = slices.SortedFunc(maps.Values(e.srcIndex), func(a, b core.AttrID) int {
		return strings.Compare(s.Attr(a).Name, s.Attr(b).Name)
	})
	return e
}

// chainTo links e on top of prev and trims the tail of the chain.
func (e *schemaEntry) chainTo(prev *schemaEntry) {
	e.prev = prev
	p := e
	for i := 0; i < maxVersionChain && p.prev != nil; i++ {
		p = p.prev
	}
	p.prev = nil
}

// ErrDraining is returned (as a 503) to evals arriving during shutdown.
var ErrDraining = errors.New("server: draining")

// New builds a Server over the service, preloading the built-in flows
// ("quickstart", "pattern") into the schema registry. It panics on a
// recovery failure; servers with a Config.DataDir should prefer Open,
// which surfaces a damaged data directory as an error instead.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open is New returning recovery errors: with Config.DataDir set it
// replays the registry snapshot+WAL, verifying each recovered schema's
// fingerprint, truncating (and reporting) a torn final log record, and
// refusing to serve on any corruption or verification mismatch.
func Open(cfg Config) (*Server, error) {
	if cfg.Service == nil {
		panic("server: Config.Service is required")
	}
	if cfg.DefaultStrategy == (engine.Strategy{}) {
		cfg.DefaultStrategy = engine.MustParseStrategy("PSE100")
	}
	if cfg.ShedDelay == 0 {
		cfg.ShedDelay = 100 * time.Millisecond
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = time.Minute
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxSchemas <= 0 {
		cfg.MaxSchemas = 1024
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxShadowInFlight <= 0 {
		cfg.MaxShadowInFlight = 64
	}
	s := &Server{
		cfg:      cfg,
		svc:      cfg.Service,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		schemas:  make(map[string]*schemaEntry),
		versions: make(map[string]uint64),
		tenants:  make(map[string]*tenant),
		stopWake: make(chan struct{}),
		bconns:   make(map[*binConn]struct{}),
	}
	for _, name := range []string{"quickstart", "pattern"} {
		sch, _, err := flows.ByName(name)
		if err != nil {
			panic(err)
		}
		s.schemas[name] = newEntry(sch, "", "", 1)
		s.versions[name] = 1
	}
	if cfg.DataDir != "" {
		if err := s.recover(cfg.DataDir, cfg.SnapshotEvery); err != nil {
			return nil, err
		}
	}
	if len(cfg.Peers) > 0 {
		pt, err := newPeerTier(cfg)
		if err != nil {
			return nil, err
		}
		if err := cfg.Service.InstallPeerRouter(pt); err != nil {
			pt.close()
			return nil, err
		}
		s.peers = pt
	}
	if cfg.CaptureDir != "" {
		w, err := capture.NewWriter(capture.Config{
			Dir:         cfg.CaptureDir,
			RotateBytes: cfg.CaptureRotateBytes,
			Ring:        cfg.CaptureRing,
		})
		if err != nil {
			// The one fail-fast capture error: an unusable capture
			// directory at startup. Once running, capture degrades instead.
			if s.peers != nil {
				s.peers.close()
			}
			return nil, err
		}
		s.capture = w
	}
	s.mux.HandleFunc("POST /v1/schemas", s.handleSchemas)
	s.mux.HandleFunc("POST /v1/eval", func(w http.ResponseWriter, r *http.Request) { s.handleEval(w, r, false) })
	s.mux.HandleFunc("POST /v1/eval/batch", func(w http.ResponseWriter, r *http.Request) { s.handleEval(w, r, true) })
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/schemas/{name}/shadow", s.handleShadowReport)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// recover opens the durable registry under dir and replays it into the
// in-memory registry: snapshot first, then the log, verifying each
// schema's deterministic fingerprint against the logged one.
func (s *Server) recover(dir string, snapEvery int) error {
	begin := time.Now()
	w, recs, torn, err := openWALStore(dir, snapEvery)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			w.close()
			return err
		}
	}
	s.wal = w
	s.recovery = RecoveryInfo{Enabled: true, TornBytes: torn}
	for _, e := range s.schemas {
		if e.text != "" {
			s.recovery.Schemas++
		}
		if e.shadow.Load() != nil {
			s.recovery.Shadows++
		}
	}
	s.recovery.Duration = time.Since(begin)
	return nil
}

// applyRecord replays one WAL record: re-parse the logged text, verify the
// fingerprint, install as head (live) or attach as shadow candidate.
func (s *Server) applyRecord(rec api.WALRecord) error {
	sch, err := core.ParseSchema(rec.Text)
	if err != nil {
		return fmt.Errorf("server: recovery: schema %q v%d does not parse: %w", rec.Name, rec.Version, err)
	}
	if sch.Name() != rec.Name {
		return fmt.Errorf("server: recovery: record for %q holds schema %q", rec.Name, sch.Name())
	}
	flows.BindDefaultComputes(sch)
	if got := sch.Fingerprint(); got != rec.Fingerprint {
		return fmt.Errorf("server: recovery: schema %q v%d fingerprint mismatch (logged %016x, recovered %016x)",
			rec.Name, rec.Version, rec.Fingerprint, got)
	}
	entry := newEntry(sch, rec.Tenant, rec.Text, rec.Version)
	if rec.Version > s.versions[rec.Name] {
		s.versions[rec.Name] = rec.Version
	}
	switch rec.Kind {
	case api.WALKindSchema:
		entry.chainTo(s.schemas[rec.Name])
		s.schemas[rec.Name] = entry
	case api.WALKindShadow:
		head := s.schemas[rec.Name]
		if head == nil {
			return fmt.Errorf("server: recovery: shadow record for %q without a live schema", rec.Name)
		}
		head.shadow.Store(newShadowState(entry, int(rec.SampleEvery)))
	}
	return nil
}

// Recovery reports the boot replay summary (zero value without a DataDir).
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain executes the graceful shutdown protocol: flip to draining (new
// evals get 503 / CodeDraining frames, /healthz reports down), stop
// accepting binary connections and push a Drain frame on the live ones,
// wait for every admitted instance to complete — bounded by ctx — then
// close the underlying service and flush-and-close the binary
// connections. It returns the final runtime stats. The HTTP listener
// should stop accepting before or concurrently with Drain
// (http.Server.Shutdown). Long-poll result fetches blocked in
// handleResult are woken immediately with 503 + Draining (delivering the
// result instead if it is already there) so clients re-resolve to a
// healthy peer; binary in-flight evals are still flushed to their
// connections. Once everything admitted has completed, pending async
// results and their TTL timers are swept, and a durable registry writes a
// final snapshot so the next boot replays snapshot-only.
func (s *Server) Drain(ctx context.Context) (runtime.Stats, error) {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return s.svc.Stats(), errors.New("server: already draining")
	}
	close(s.stopWake)

	s.bmu.Lock()
	lns := slices.Clone(s.blisteners)
	conns := make([]*binConn, 0, len(s.bconns))
	for c := range s.bconns {
		conns = append(conns, c)
	}
	s.bmu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.sendDrain()
	}

	done := make(chan struct{})
	go func() { s.evals.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
	st := s.svc.Stats()
	if err == nil {
		// Everything admitted has completed; Close is instant.
		s.svc.Close()
	}
	// Every admitted eval has completed (or the drain timed out), so no
	// new forwards can start; stop the peer tier and drop its
	// connections. Forwarded-IN queries were covered by evals.Wait via
	// the Forward handler's drain gate, same as local evals.
	if s.peers != nil {
		s.peers.close()
	}
	// Every completed eval's result frame was queued before its WaitGroup
	// claim released, so shutdown flushes all of them before closing.
	for _, c := range conns {
		c.shutdown()
	}
	// Sweep undelivered async results: every waiter has been woken via
	// stopWake, and (when the wait completed) every Done callback has run,
	// so each pending's TTL timer exists — stop them all rather than leave
	// timers firing into a closed server.
	s.results.Range(func(k, v any) bool {
		p := v.(*httpEval)
		select {
		case <-p.lines:
			p.tm.Stop()
		default: // drain timed out with the instance still in flight
		}
		s.results.Delete(k)
		return true
	})
	if s.wal != nil {
		s.mu.Lock()
		if err == nil {
			s.wal.snapshot(s.walStateLocked())
		}
		s.wal.close()
		s.wal = nil
		s.mu.Unlock()
	}
	// Every admitted eval completed (or the drain timed out), so no
	// capture hook can still enqueue: flush the ring and seal the last
	// file. A degraded capture does not fail the drain — its damage is
	// already counted — so the error is dropped here; CaptureStats keeps
	// reporting it.
	if s.capture != nil {
		_ = s.capture.Close()
	}
	return st, err
}

// Draining reports whether the drain protocol has started.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// tenantFor returns (creating on first use) the tenant's admission
// state, or nil when the tenant table is full and the name is unseen —
// the memory-bounding backstop for client-controlled tenant names.
func (s *Server) tenantFor(name string) *tenant {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t := s.tenants[name]
	if t == nil {
		if len(s.tenants) >= s.cfg.MaxTenants {
			return nil
		}
		t = newTenant(s.cfg.Tenant)
		s.tenants[name] = t
	}
	return t
}

// admitRefusal describes why admission refused a request, in
// transport-neutral terms: each front end renders it onto its own wire
// (writeHTTP ↔ 429/503/400 with Retry-After, binCode ↔ Error frame
// codes), so the two transports cannot drift in admission semantics.
type admitRefusal struct {
	retry     time.Duration // retry hint; 0 when permanent or draining
	draining  bool          // server is shutting down (↔ 503 / CodeDraining)
	permanent bool          // request can never be admitted (↔ 400 / CodeTooLarge)
	msg       string
}

// admitTenant is admitShared's tenant half — table backstop, bucket and
// quota — and all the metering schema registration gets.
func admitTenant(t *tenant, n int) *admitRefusal {
	if t == nil {
		// tenantFor refused to materialize a new tenant: table full.
		return &admitRefusal{retry: time.Second, msg: "tenant table full"}
	}
	ok, cause, retry := t.admit(n)
	switch {
	case ok:
		return nil
	case cause == shedTooLarge: // permanent: more than the bucket can ever hold
		return &admitRefusal{permanent: true, msg: "batch exceeds the tenant's burst capacity; split it"}
	case cause == shedQuota:
		return &admitRefusal{retry: retry, msg: "over tenant in-flight quota"}
	}
	return &admitRefusal{retry: retry, msg: "over tenant rate limit"}
}

// admitShared runs the admission layers for n instances of tenant t: the
// tenant's own (admitTenant), the global queueing-delay bound, and the
// drain gate. It returns nil when admitted — the caller then owns n
// claims on the tenant and the server's eval WaitGroup — or the refusal
// for the caller's wire to render.
func (s *Server) admitShared(t *tenant, n int) *admitRefusal {
	if ref := admitTenant(t, n); ref != nil {
		return ref
	}
	if s.cfg.ShedDelay >= 0 && s.svc.QueueDelay() > s.cfg.ShedDelay {
		t.unadmit(n)
		t.shedQueue.Add(uint64(n))
		return &admitRefusal{retry: 25 * time.Millisecond,
			msg: "server overloaded (queueing delay past the shed bound)"}
	}
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		t.unadmit(n)
		return &admitRefusal{draining: true, msg: ErrDraining.Error()}
	}
	s.evals.Add(n)
	s.drainMu.RUnlock()
	t.accept(n)
	return nil
}

// writeHTTP renders the refusal as the HTTP front end's status mapping:
// 429 for transient sheds (with a standards-compliant whole-second
// Retry-After header and a millisecond-precise body), 503 while draining,
// 400 for permanent refusals.
func (r *admitRefusal) writeHTTP(w http.ResponseWriter) {
	switch {
	case r.draining:
		writeErr(w, http.StatusServiceUnavailable, r.msg, 0)
	case r.permanent:
		writeErr(w, http.StatusBadRequest, r.msg, 0)
	default:
		writeErr(w, http.StatusTooManyRequests, r.msg, r.retry)
	}
}

// binCode maps the refusal onto the binary protocol's Error frame codes.
func (r *admitRefusal) binCode() byte {
	switch {
	case r.draining:
		return api.CodeDraining
	case r.permanent:
		return api.CodeTooLarge
	default:
		return api.CodeShed
	}
}

// admit is admitShared for the HTTP handlers: on refusal the response has
// been written.
func (s *Server) admit(w http.ResponseWriter, t *tenant, n int) bool {
	if ref := s.admitShared(t, n); ref != nil {
		ref.writeHTTP(w)
		return false
	}
	return true
}

func writeErr(w http.ResponseWriter, code int, msg string, retry time.Duration) {
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(api.ErrorResponse{Error: msg, RetryAfterMs: int64(retry / time.Millisecond)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// decode reads a JSON body with numbers preserved (json.Number).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return false
	}
	return true
}

// requestTenant resolves and validates the caller's tenant.
func requestTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	name, err := api.CleanTenant(r.Header.Get(api.TenantHeader))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error(), 0)
		return "", false
	}
	return name, true
}

// --- handlers ---

// registerError is a schema-registration failure with its status on each
// wire (the binary front end maps httpStatus onto Error frame codes; a
// nonzero binCode overrides that mapping for cases the default status
// table would mistranslate, like the poisoned registry's 503 which must
// NOT read as CodeDraining — draining invites a retry elsewhere, a
// poisoned registry refuses until restart).
type registerError struct {
	httpStatus int
	binCode    byte
	msg        string
}

// registerSchema parses and installs a schema for tenantName — the
// registration core shared by the HTTP and binary front ends. The caller
// has already metered the request under the tenant's admission. With
// shadow set the schema installs as a shadow candidate on the existing
// live version instead of replacing it. When the registry is durable, the
// WAL record is appended and fsynced before the caller is acked.
func (s *Server) registerSchema(tenantName, text string, shadow bool, sampleEvery int) (api.SchemaResponse, *registerError) {
	sch, err := core.ParseSchema(text)
	if err != nil {
		return api.SchemaResponse{}, &registerError{httpStatus: http.StatusBadRequest, msg: err.Error()}
	}
	// Foreign results are served by a deterministic hash compute — the
	// wire carries structure, not code (see flows.BindDefaultComputes).
	flows.BindDefaultComputes(sch)
	if s.Draining() {
		// A draining server must not accept registrations: its WAL is
		// about to seal, and an unpersisted ack would be a silent lie.
		return api.SchemaResponse{}, &registerError{httpStatus: http.StatusServiceUnavailable, msg: ErrDraining.Error()}
	}
	name := sch.Name()
	s.mu.Lock()
	prev, exists := s.schemas[name]
	if exists {
		if prev.owner != tenantName {
			s.mu.Unlock()
			return api.SchemaResponse{}, &registerError{httpStatus: http.StatusForbidden,
				msg: fmt.Sprintf("schema %q is owned by another tenant", name)}
		}
	} else {
		if shadow {
			s.mu.Unlock()
			return api.SchemaResponse{}, &registerError{httpStatus: http.StatusNotFound,
				msg: fmt.Sprintf("no live schema %q to shadow", name)}
		}
		if len(s.schemas) >= s.cfg.MaxSchemas {
			s.mu.Unlock()
			return api.SchemaResponse{}, &registerError{httpStatus: http.StatusInsufficientStorage, msg: "schema registry full"}
		}
	}
	version := s.versions[name] + 1
	entry := newEntry(sch, tenantName, text, version)
	if s.wal != nil {
		rec := api.WALRecord{Kind: api.WALKindSchema, Tenant: tenantName, Name: name,
			Version: version, Fingerprint: entry.fingerprint, Text: text}
		if shadow {
			rec.Kind = api.WALKindShadow
			rec.SampleEvery = uint64(max(sampleEvery, 1))
		}
		// Durability before acknowledgment: if the record cannot be made
		// durable the registration did not happen — and is never retried
		// (the store failed closed; see ErrRegistryPoisoned). 503 tells
		// HTTP clients the condition is operational, not a bad request;
		// the binary code is pinned to CodeInternal so it cannot read as
		// a retry-elsewhere draining hint.
		if err := s.wal.append(rec); err != nil {
			s.mu.Unlock()
			if errors.Is(err, ErrRegistryPoisoned) || errors.Is(err, ErrRegistryReadOnly) {
				return api.SchemaResponse{}, &registerError{httpStatus: http.StatusServiceUnavailable, binCode: api.CodeInternal, msg: err.Error()}
			}
			return api.SchemaResponse{}, &registerError{httpStatus: http.StatusInternalServerError, msg: err.Error()}
		}
	}
	s.versions[name] = version
	if shadow {
		prev.shadow.Store(newShadowState(entry, sampleEvery))
	} else {
		entry.chainTo(prev)
		s.schemas[name] = entry
	}
	if s.wal != nil && s.wal.wantSnapshot() {
		// Advisory: a failed snapshot leaves snapshot+log recoverable.
		s.wal.snapshot(s.walStateLocked())
	}
	s.mu.Unlock()
	if !shadow {
		// Invalidate binary binds that may now refer to a superseded entry.
		s.schemaGen.Add(1)
	}
	return api.SchemaResponse{
		Name:        name,
		Attrs:       sch.NumAttrs(),
		Targets:     entry.targetNames,
		Version:     version,
		Fingerprint: fmt.Sprintf("%016x", entry.fingerprint),
		Shadow:      shadow,
	}, nil
}

// walStateLocked renders the registry's current durable state — every
// tenant-registered head plus attached shadow candidates — as the record
// stream a snapshot holds. Called with s.mu held.
func (s *Server) walStateLocked() []api.WALRecord {
	names := make([]string, 0, len(s.schemas))
	for name, e := range s.schemas {
		if e.text != "" || e.shadow.Load() != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var recs []api.WALRecord
	for _, name := range names {
		e := s.schemas[name]
		if e.text != "" {
			recs = append(recs, api.WALRecord{Kind: api.WALKindSchema, Tenant: e.owner,
				Name: name, Version: e.version, Fingerprint: e.fingerprint, Text: e.text})
		}
		if sh := e.shadow.Load(); sh != nil {
			c := sh.cand
			recs = append(recs, api.WALRecord{Kind: api.WALKindShadow, Tenant: c.owner,
				Name: name, Version: c.version, Fingerprint: c.fingerprint,
				SampleEvery: sh.sampleEvery, Text: c.text})
		}
	}
	return recs
}

func (s *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	tenantName, ok := requestTenant(w, r)
	if !ok {
		return
	}
	// Registration runs under the tenant's rate bucket too: an 8 MiB
	// schema parse is not cheaper than an eval, and this endpoint must
	// not be the unmetered way around TenantLimits.
	t := s.tenantFor(tenantName)
	if ref := admitTenant(t, 1); ref != nil {
		ref.writeHTTP(w)
		return
	}
	defer t.release(1)
	var req api.SchemaRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, rerr := s.registerSchema(tenantName, req.Text, req.Shadow, req.ShadowSampleEvery)
	if rerr != nil {
		writeErr(w, rerr.httpStatus, rerr.msg, 0)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShadowReport serves GET /v1/schemas/{name}/shadow: the running
// live-vs-candidate comparison for a schema with a shadow registration.
func (s *Server) handleShadowReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	entry := s.schemas[name]
	s.mu.RUnlock()
	if entry == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown schema %q", name), 0)
		return
	}
	sh := entry.shadow.Load()
	if sh == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("schema %q has no shadow candidate", name), 0)
		return
	}
	writeJSON(w, http.StatusOK, sh.report(name, entry.version))
}

// resolveSchema maps a request's schema name and strategy code to the
// registry entry and parsed strategy (shared by single and batch eval).
func (s *Server) resolveSchema(w http.ResponseWriter, name, strategy string) (*schemaEntry, engine.Strategy, bool) {
	s.mu.RLock()
	entry := s.schemas[name]
	s.mu.RUnlock()
	if entry == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown schema %q", name), 0)
		return nil, engine.Strategy{}, false
	}
	st := s.cfg.DefaultStrategy
	if strategy != "" {
		var err error
		if st, err = engine.ParseStrategy(strategy); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error(), 0)
			return nil, engine.Strategy{}, false
		}
	}
	return entry, st, true
}

// unwind releases admission claims for a request that failed between
// admission and reaching the runtime (decode/resolve error, a refused
// batch second step): the in-flight gauge, accepted counter, and eval
// WaitGroup return, but the rate tokens stay burned — metering the parse
// work was the point of admitting before decoding.
func (s *Server) unwind(t *tenant, n int) {
	t.release(n)
	t.unaccept(n)
	s.evals.Add(-n)
}

// handleEval serves POST /v1/eval (a batch of one; async parks its answer
// for GET /v1/results/{id}) and /v1/eval/batch (one JSON body, or NDJSON
// lines in completion order when streamed).
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, batch bool) {
	tenantName, ok := requestTenant(w, r)
	if !ok {
		return
	}
	// Admission precedes the body decode, so an over-limit tenant cannot
	// use request parsing as its unmetered path around TenantLimits. The
	// batch size is unknown until then, so admission runs in two steps: one
	// instance's worth up front and the remaining n-1 once n is known.
	t := s.tenantFor(tenantName)
	if !s.admit(w, t, 1) {
		return
	}
	h, flag, ok := s.decodeEval(w, r, batch, t, tenantName)
	if !ok {
		s.unwind(t, 1)
		return
	}
	n := len(h.slots)
	if n > 1 && !s.admit(w, t, n-1) {
		h.drop(1)
		return
	}
	h.stream = flag && batch
	h.lines = make(chan int, n) // a stream sends each index once
	ctx := r.Context()
	if flag && !batch {
		h.id = strconv.FormatUint(s.resultSeq.Add(1), 36)
		s.results.Store(h.id, h)
		ctx = nil // the request's context ends with the 202
	}
	h.submitAll(ctx)
	switch {
	case !batch && h.refused != nil:
		// The service refused the one instance (it was closed); last has run.
		s.results.Delete(h.id) // async: the id was never handed out
		writeErr(w, http.StatusServiceUnavailable, h.refused.Error(), 0)
	case h.id != "":
		writeBody(w, http.StatusAccepted, append(api.AppendJSONString([]byte(`{"id":`), h.id), "}\n"...))
		return // the slots are the poller's
	case h.stream:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		h.wait(ctx, func(i int) {
			// Once the client is gone these fail, and the wait goes on.
			w.Write(h.slots[i].out)
			rc.Flush()
		})
	case batch:
		h.wait(ctx, nil)
		out := bodyPool.Get().(*bytes.Buffer)
		out.Reset()
		out.WriteString(`{"results":[`)
		for i, sb := range h.slots {
			if i > 0 {
				out.WriteByte(',')
			}
			out.Write(sb.out)
		}
		out.WriteString("]}\n")
		writeBody(w, http.StatusOK, out.Bytes())
		bodyPool.Put(out)
	default:
		h.wait(ctx, nil)
		writeBody(w, http.StatusOK, append(h.slots[0].out, '\n'))
	}
	putSlots(h.slots)
}

// httpEval is an HTTP eval's end: put renders into the slots, last closes
// lines for the waiter — the handler, or an async eval's poll.
type httpEval struct {
	evalBatch
	stream bool
	lines  chan int // a stream's finished indexes
	// id names an async eval in Server.results until a poll delivers it or
	// tm, the TTL reaper last arms, expires it. Delivery and Drain stop tm,
	// or async load piles up a live timer per eval that fires after Close.
	id string
	tm *time.Timer
}

func (h *httpEval) put(i int, res *engine.Result, err error) {
	sb := h.slots[i]
	if !h.stream {
		sb.out = appendResult(sb.out[:0], -1, h.entry, res, err)
		return
	}
	sb.out = append(appendResult(sb.out[:0], i, h.entry, res, err), '\n')
	h.lines <- i
}

func (h *httpEval) last() {
	if h.id != "" {
		// Unfetched results expire so abandoned polls can't pin memory.
		s, id := h.s, h.id
		h.tm = time.AfterFunc(s.cfg.ResultTTL, func() { s.results.Delete(id) })
	}
	close(h.lines)
}

// wait returns after last, handing line each streamed index. If the client
// leaves first it cancels every instance, so none idles on a slow backend
// holding its claim, and waits on: the slots are the workers' until last.
func (h *httpEval) wait(ctx context.Context, line func(i int)) {
	gone := ctx.Done()
	for {
		select {
		case i, ok := <-h.lines:
			if !ok {
				return
			}
			line(i)
		case <-gone:
			for _, sb := range h.slots {
				sb.h.Cancel(ctx.Err())
			}
			gone = nil
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	tenantName, ok := requestTenant(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	v, found := s.results.Load(id)
	p, _ := v.(*httpEval)
	if !found || p.tenantName != tenantName { // result IDs are tenant-scoped capabilities
		writeErr(w, http.StatusNotFound, "unknown or expired result id", 0)
		return
	}
	timeout := 30 * time.Second
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad timeout: "+err.Error(), 0)
			return
		}
		timeout = min(max(d, 0), 2*time.Minute)
	}
	// deliver hands the result to exactly one poller: of two concurrent
	// polls, only the one that wins the delete gets the body — and the
	// winner also retires the TTL reaper (armed before lines closed).
	deliver := func() {
		if _, won := s.results.LoadAndDelete(id); !won {
			writeErr(w, http.StatusNotFound, "unknown or expired result id", 0)
			return
		}
		p.tm.Stop()
		writeBody(w, http.StatusOK, append(p.slots[0].out, '\n'))
		putSlots(p.slots)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-p.lines:
		deliver()
	case <-s.stopWake:
		// Drain began: fail fast with 503 so the client re-resolves to a
		// healthy peer instead of hanging to its poll timeout — unless the
		// result is already here, in which case deliver it on the way out.
		select {
		case <-p.lines:
			deliver()
		default:
			writeErr(w, http.StatusServiceUnavailable, ErrDraining.Error(), 0)
		}
	case <-timer.C:
		writeJSON(w, http.StatusAccepted, api.PendingResponse{Pending: true})
	case <-r.Context().Done():
	}
}

// statsResponse builds the stats view shared by GET /v1/stats and the
// binary Stats frame.
func (s *Server) statsResponse() (api.StatsResponse, error) {
	svcStats, err := json.Marshal(s.svc.Stats())
	if err != nil {
		return api.StatsResponse{}, err
	}
	s.tmu.Lock()
	tenants := make(map[string]api.TenantAdmission, len(s.tenants))
	for name, t := range s.tenants {
		tenants[name] = t.admission()
	}
	s.tmu.Unlock()
	s.mu.RLock()
	regErr := s.wal.failedErr()
	names := make([]string, 0, len(s.schemas))
	for name := range s.schemas {
		names = append(names, name)
	}
	slices.Sort(names)
	details := make([]api.SchemaInfo, 0, len(names))
	for _, name := range names {
		e := s.schemas[name]
		details = append(details, api.SchemaInfo{
			Name:        name,
			Version:     e.version,
			Fingerprint: fmt.Sprintf("%016x", e.fingerprint),
			Owner:       e.owner,
			Shadow:      e.shadow.Load() != nil,
		})
	}
	s.mu.RUnlock()
	resp := api.StatsResponse{
		Service:          svcStats,
		Tenants:          tenants,
		UptimeMs:         time.Since(s.start).Milliseconds(),
		Draining:         s.Draining(),
		Schemas:          names,
		SchemaDetails:    details,
		RecoveredSchemas: s.recovery.Schemas,
		RecoveryMs:       s.recovery.Duration.Milliseconds(),
		Capture:          s.CaptureStats(),
	}
	if regErr != nil {
		// Both degradations (poisoned, disk-full) read as read-only to an
		// operator: the server serves what it has and refuses new
		// registrations until restarted. The error text tells them which.
		resp.RegistryReadOnly = true
		resp.RegistryError = regErr.Error()
	}
	return resp, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp, err := s.statsResponse()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	// ?fleet=1 aggregates across the peer fleet (HTTP only; the binary
	// Stats frame always answers locally, so the fan-out cannot recurse).
	if s.peers != nil && r.URL.Query().Get("fleet") != "" {
		resp.Fleet = s.peers.fleet(r.Context(), &resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}
