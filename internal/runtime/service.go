package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

// Request asks the service to execute one decision flow instance.
type Request struct {
	// Schema is the decision flow to execute.
	Schema *core.Schema
	// Sources are the instance's source-attribute values.
	Sources map[string]value.Value
	// SourceSlots, when non-nil, supplies the source values as a dense
	// per-AttrID slice instead of Sources (which is then ignored):
	// SourceSlots[id] is the value of source attribute id, entries at
	// non-source IDs are ignored, and a short slice leaves the remaining
	// sources ⟂. The binary wire front end decodes frames straight into
	// pooled slot buffers and submits them here, skipping the name-keyed
	// map. The service reads the slice only until Done is invoked (it is
	// consumed when the instance initializes, which happens no later);
	// callers may recycle the buffer once Done returns.
	SourceSlots []value.Value
	// Strategy selects the optimization options (e.g. "PSE100").
	Strategy engine.Strategy
	// Done, if non-nil, is invoked once when the instance reaches a
	// terminal snapshot (or fails). It runs on a service worker; the
	// Result — including its Snapshot — is only valid until Done returns,
	// because the service recycles the instance's state. Clone what you
	// keep. Result.Elapsed is the wall-clock latency in milliseconds.
	Done func(*engine.Result)
	// Ctx, if non-nil, cancels the instance: once Ctx is done the instance
	// aborts at its next step instead of launching further work (tasks
	// already on the backend run to completion and are charged as waste).
	// The abort completes the instance with Result.Err wrapping Ctx.Err().
	// DoContext additionally nudges the abort immediately on cancellation.
	Ctx context.Context
	// Tenant, if non-empty, attributes this instance to a tenant in the
	// service's stats (per-tenant completion counts and latency
	// percentiles in Stats.Tenants). The empty tenant is not tracked.
	Tenant string
	// Shadow marks the instance as background comparison work (the
	// server's shadow-evaluation path): it executes normally but is kept
	// out of the serving metrics — completion counts, latency percentiles,
	// Submitted — so overload shedding and SLO reporting see only the live
	// traffic. Shadow instances count under Stats.ShadowSubmitted /
	// ShadowCompleted instead.
	Shadow bool
}

// Config configures a Service.
type Config struct {
	// Backend is the external database queries execute against.
	// Defaults to Instant{}.
	Backend Backend
	// Workers is the number of goroutines stepping instances.
	// Defaults to GOMAXPROCS.
	Workers int
	// MaxInFlightTasks bounds the database tasks in flight across all
	// instances (global admission control). On the direct path a launch
	// beyond the bound blocks its worker until a completion. With the
	// query layer enabled the bound applies to unique backend queries —
	// deduplicated and cached launches put no task on the database and
	// consume no admission — and a query beyond it parks in the
	// dispatcher while the worker goes on. Defaults to 16× Workers.
	MaxInFlightTasks int
	// Query configures the shared query layer between instances and the
	// Backend: cross-instance batching, single-flight deduplication of
	// identical queries, and the attribute-result cache. The zero value
	// disables the layer entirely (launches go straight to the Backend).
	Query QueryConfig
	// LatencyWindow, when > 0, bounds the latency samples retained per
	// stats shard to the most recent LatencyWindow completions, so
	// percentiles cover a sliding recent window and a long-running server
	// holds constant memory. 0 (the default) retains every sample since
	// the last ResetStats — exact percentiles for bounded load runs.
	LatencyWindow int
}

// Service executes decision flow instances concurrently in wall-clock
// time. Each instance is a small actor: every event for it (begin, task
// completion, cancel nudge) is posted to its mailbox, and the one worker
// that owns the instance drains the mailbox to empty, driving the shared
// engine.Core loop per message. Foreign tasks run on the Backend under a
// global in-flight bound; completions delivered inline (Instant, cache
// hits) land in the owner's own mailbox, so such an instance runs start
// to finish on one worker with one run-queue push. Per-instance state
// (snapshot, prequalifier, scheduler scratch) is pooled, so steady-state
// serving performs no per-instance allocation.
//
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	runq    runQueue
	adm     *admission // global bound on database tasks in flight (direct path)
	pool    sync.Pool
	shards  []shard
	disp    *dispatcher    // shared query layer; nil when Config.Query is off
	unhold  func()         // disp.release, bound once for Hold (nil-safe)
	active  sync.WaitGroup // one count per unretired instance
	workers sync.WaitGroup

	// cluster is the backend when it is a *Cluster — the one Backend that
	// reads Query.Hash, so only then does a launch without sharing tables
	// to consult render its sharing identity (for consistent shard
	// placement) — and the source of Stats.Cluster.
	cluster  *Cluster
	routeSeq atomic.Uint64 // spreads unroutable direct launches over shards

	// closeMu makes Submit and Close safe to race: submits hold the read
	// side across the accept-and-enqueue step, so once Close's write lock
	// falls every later Submit observes closed and no active.Add can slip
	// past active.Wait.
	closeMu   sync.RWMutex
	closed    bool
	submitted atomic.Uint64
	scheduled atomic.Uint64 // run-queue pushes (Stats.Scheduled)
	// shadowSubmitted counts Request.Shadow submissions, kept apart from
	// submitted so the live Submitted/Completed pair stays an identity.
	shadowSubmitted atomic.Uint64
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("runtime: service closed")

// New starts a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.Backend == nil {
		cfg.Backend = Instant{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	if cfg.MaxInFlightTasks <= 0 {
		cfg.MaxInFlightTasks = 16 * cfg.Workers
	}
	s := &Service{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlightTasks),
		shards: make([]shard, cfg.Workers),
	}
	for i := range s.shards {
		s.shards[i].window = cfg.LatencyWindow
		s.shards[i].lats.window = cfg.LatencyWindow
	}
	s.cluster, _ = cfg.Backend.(*Cluster)
	if cfg.Query.enabled() {
		s.disp = newDispatcher(cfg.Backend, s.cluster != nil, cfg.MaxInFlightTasks, cfg.Query)
	}
	s.unhold = s.disp.release
	s.runq.cond.L = &s.runq.mu
	s.pool.New = func() any { return &inst{svc: s} }
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(&s.shards[i])
	}
	return s
}

// Submit enqueues one instance for execution. It returns immediately; the
// request's Done callback reports completion.
func (s *Service) Submit(req Request) error {
	_, err := s.SubmitCancel(req)
	return err
}

// Handle names one submitted instance for SubmitCancel's caller. It is a
// comparable value, so holding one per instance allocates nothing; the zero
// Handle's Cancel is a no-op.
type Handle struct {
	in  *inst
	gen uint64 // the occupancy of in's pooled state this handle targets
}

// Cancel aborts the instance promptly: it stops launching work and
// completes with Result.Err wrapping cause (context.Canceled when nil),
// even while it idles on a slow backend query. Cancel after completion is
// a no-op — the generation check makes a handle that outlives its instance
// inert — and it is safe from any goroutine, any number of times.
func (h Handle) Cancel(cause error) {
	if h.in != nil {
		h.in.cancel(h.gen, cause)
	}
}

// SubmitCancel is Submit returning the instance's Handle. DoContext wires
// it to a context; the network front end wires it to client disconnects.
func (s *Service) SubmitCancel(req Request) (Handle, error) {
	if req.Schema == nil {
		return Handle{}, errors.New("runtime: request needs a Schema")
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return Handle{}, ErrClosed
	}
	in := s.pool.Get().(*inst)
	in.req = req
	in.start = time.Now()
	// The generation stamps this occupancy of the pooled state: a cancel
	// nudge carrying an older generation finds the instance recycled and
	// does nothing. A worker may be running such a stale nudge on this
	// very state right now, which is why req and start (which that run
	// never reads) are the only plain fields written here, gen is atomic,
	// and begin goes through post like every other message — if a stale
	// run owns the instance, begin is simply the next message behind it.
	gen := in.gen.Add(1)
	if req.Shadow {
		s.shadowSubmitted.Add(1)
	} else {
		s.submitted.Add(1)
	}
	s.active.Add(1)
	in.post(msg{kind: msgBegin})
	return Handle{in: in, gen: gen}, nil
}

// Hold brackets a caller about to Submit a group of instances: until the
// returned release is called (once, after the last Submit) the query layer
// does not cut a partial batch for lack of producers, so the group's queries
// leave together, not as each instance goes idle. A no-op without batching.
func (s *Service) Hold() (release func()) {
	s.disp.hold()
	return s.unhold
}

// Do executes one instance synchronously and returns an independent result
// (snapshot cloned out of the pooled state).
func (s *Service) Do(schema *core.Schema, sources map[string]value.Value, st engine.Strategy) (*engine.Result, error) {
	return s.DoContext(context.Background(), schema, sources, st)
}

// DoContext is Do with cancellation: when ctx is done before the instance
// completes, the instance is aborted — it stops launching work, completes
// immediately with Result.Err wrapping ctx.Err(), and any tasks already on
// the backend finish as accounted waste. The (partial) result is returned
// either way; inspect Result.Err to distinguish.
func (s *Service) DoContext(ctx context.Context, schema *core.Schema, sources map[string]value.Value, st engine.Strategy) (*engine.Result, error) {
	var out engine.Result
	done := make(chan struct{})
	h, err := s.SubmitCancel(Request{
		Schema:   schema,
		Sources:  sources,
		Strategy: st,
		Ctx:      ctx,
		Done: func(r *engine.Result) {
			out = *r
			out.Snapshot = r.Snapshot.Clone()
			close(done)
		},
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-done:
	case <-ctx.Done():
		// Nudge the abort: an instance idling on a slow backend query has
		// no upcoming step at which to notice the cancellation, so feed it
		// one. The generation check makes a late nudge a no-op.
		h.Cancel(ctx.Err())
		<-done
	}
	return &out, nil
}

// ErrNoQueryLayer rejects peer routing on a service without sharing
// tables: homing queries on one node is meaningless unless that node
// deduplicates or caches them.
var ErrNoQueryLayer = errors.New("runtime: peer routing needs the query layer's sharing tables (dedup or cache)")

// InstallPeerRouter wires a front-end peer router into the query layer:
// every keyed launch consults it before the local sharing tables, so each
// sharing identity is classified at its one home node in the fleet. It is
// installed after construction because the router (one layer up, in the
// server) needs the serving stack that needs this service first.
func (s *Service) InstallPeerRouter(p PeerExec) error {
	if s.disp == nil || (!s.disp.cfg.Dedup && s.disp.cfg.CacheSize == 0) {
		return ErrNoQueryLayer
	}
	s.disp.peer.Store(&peerExecBox{p: p})
	return nil
}

// ServePeerQuery executes one attribute query forwarded in by a peer
// front-end node through this node's sharing tables: a cache hit, an
// attach to the identical in-flight query, or a fresh backend flight —
// exactly what a local launch of the same identity would do, minus the
// peer-router consult (the forwarder already resolved this node as the
// home, so forwards cannot loop). done is invoked exactly once with the
// backend verdict; the forwarder's waiters share this node's fate. The
// call never waits for an admission permit, but it may flush a batch (the
// one it fills, or its own on an idle node) and so block on the backend's
// own bound (e.g. Latency.Parallel): run it off any latency-sensitive loop.
func (s *Service) ServePeerQuery(schema *core.Schema, id core.AttrID, args []byte, cost int, done func(error)) error {
	d := s.disp
	if d == nil || (!d.cfg.Dedup && d.cfg.CacheSize == 0) {
		return ErrNoQueryLayer
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.active.Add(1)
	s.closeMu.RUnlock()
	d.peerServed.Add(1)
	key := queryKey{schema: schema, id: id, args: string(args)}
	d.hold()
	d.submitKeyed(key, hashKey(key), cost, func(err error) {
		done(err)
		s.active.Done()
	})
	d.release()
	return nil
}

// Close stops accepting new instances, waits for every submitted instance
// to finish (including stragglers of early-terminated instances), and
// shuts the workers down.
func (s *Service) Close() {
	s.closeMu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if wasClosed {
		return
	}
	s.active.Wait()
	s.runq.close()
	s.workers.Wait()
}

// worker runs instances: it pops a runnable instance, owns it until its
// mailbox is empty (or it retires), and goes back for the next.
func (s *Service) worker(sh *shard) {
	defer s.workers.Done()
	for {
		in, ok := s.runq.pop()
		if !ok {
			return
		}
		in.run(sh)
	}
}

// taskDone is the backend completion path: release the admission permit and
// post the completion to the instance. It must stay cheap and non-blocking
// — it runs on backend goroutines (timers, pacers) and never waits on the
// instance's owner. A non-nil err means the query terminally failed (every
// cluster retry exhausted): the task completes as failed, delivering ⟂.
func (s *Service) taskDone(in *inst, id core.AttrID, err error) {
	s.adm.release()
	s.taskDoneShared(in, id, err)
}

// taskDoneShared is the completion path for launches routed through the
// query layer: admission permits there belong to unique backend queries
// (acquired and released by the dispatcher), not to per-instance launches
// — a deduplicated or cached launch puts no new task on the database, so
// it must not consume database admission. This only delivers.
func (s *Service) taskDoneShared(in *inst, id core.AttrID, err error) {
	kind := msgDone
	if err != nil {
		kind = msgFailed
	}
	in.post(msg{kind: kind, id: id})
}

// --- instance ---

// msg is one event for an instance. Everything that happens to an instance
// arrives as a msg in its mailbox and is handled by its current owner, in
// arrival order.
type msg struct {
	kind msgKind
	id   core.AttrID // msgDone / msgFailed: the completed task
	gen  uint64      // msgCancel: the generation the nudge targets
	err  error       // msgCancel: the cause
}

type msgKind uint8

const (
	msgBegin  msgKind = iota // first advance of a freshly submitted request
	msgDone                  // database task id completed
	msgFailed                // database task id terminally failed (delivers ⟂)
	msgCancel                // Handle.Cancel nudge
)

// inst is one pooled wall-clock instance: the shared engine.Core loop
// driven as an actor. mbMu guards only the mailbox and the scheduled flag;
// every other field below them belongs to the instance's owner — the one
// worker that popped it off the run queue — so stepping the core, launching
// and the Done callback all run without any lock.
type inst struct {
	svc   *Service
	req   Request
	start time.Time
	// gen stamps each occupancy of this pooled state (incremented by
	// submit); cancel nudges carry the generation they target so one
	// arriving after recycling is inert.
	gen atomic.Uint64

	mbMu sync.Mutex
	mbox []msg
	// scheduled is true from the post that found the instance idle until
	// its owner finds the mailbox empty (or retires it): exactly then the
	// instance is on the run queue or owned by a worker. Only the poster
	// that flips it pushes, so an instance is never on the queue twice.
	scheduled bool

	// Owner-only state.
	spare       []msg // the mailbox's other buffer (see run)
	core        engine.Core
	res         engine.Result
	outstanding int // backend tasks submitted but not yet completed
	finalized   bool
	// doneFns (query layer) and execFns (direct path) cache one completion
	// closure per attribute so steady-state launches allocate nothing; a
	// service uses one of the two.
	doneFns []func(error)
	execFns []func(int, error)
	// q is the direct path's Exec argument; backends do not retain it.
	q [1]Query
	// keyBuf is the scratch buffer for rendering query sharing identities.
	keyBuf []byte
}

// post appends one event to the mailbox and, when nobody owns the instance,
// makes it runnable. Safe from any goroutine, including the owner itself:
// a completion delivered inline during a launch just queues behind the
// message being handled.
func (in *inst) post(m msg) {
	in.mbMu.Lock()
	in.mbox = append(in.mbox, m)
	idle := !in.scheduled
	in.scheduled = true
	in.mbMu.Unlock()
	if idle {
		in.svc.disp.hold() // until the owner goes idle (run) or retires
		in.svc.scheduled.Add(1)
		in.svc.runq.push(in)
	}
}

// cancel is the body of Handle.Cancel: nudge occupancy gen to abort.
func (in *inst) cancel(gen uint64, cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	in.post(msg{kind: msgCancel, gen: gen, err: cause})
}

// run is the owner's loop: drain the mailbox to empty, one message at a
// time in arrival order — the same completion order engine.Core sees in
// virtual time, so running to quiescence changes where the steps execute,
// not which steps (or which Work) there are. The mailbox is double
// buffered by swapping two distinct slices, so posters never append into
// the array being iterated.
func (in *inst) run(sh *shard) {
	for {
		in.mbMu.Lock()
		if len(in.mbox) == 0 {
			in.scheduled = false
			in.mbMu.Unlock()
			in.svc.disp.release()
			return
		}
		batch := in.mbox
		in.mbox = in.spare[:0]
		in.mbMu.Unlock()
		retire := false
		for i := range batch {
			// Nothing is outstanding once an instance retires, so anything
			// behind the retiring message is a stale cancel nudge: skip it.
			if retire = in.handle(sh, &batch[i]); retire {
				break
			}
		}
		clear(batch) // drop cancel causes
		in.spare = batch
		if retire {
			in.retire()
			return
		}
	}
}

// handle processes one message; true means the instance is finished with
// (finalized and nothing outstanding) and must retire.
func (in *inst) handle(sh *shard, m *msg) (retire bool) {
	switch m.kind {
	case msgBegin:
		if in.req.SourceSlots != nil {
			in.core.ResetSlots(in.req.Schema, in.req.SourceSlots, in.req.Strategy, &in.res, nil)
		} else {
			in.core.Reset(in.req.Schema, in.req.Sources, in.req.Strategy, &in.res, nil)
		}
		in.outstanding = 0
		in.finalized = false
		return in.drive(sh)
	case msgCancel:
		// Inert unless it targets the live occupancy: the handle is only
		// returned after begin was posted, so mailbox order guarantees a
		// matching generation has begun.
		if m.gen != in.gen.Load() || in.finalized {
			return false
		}
		return in.abort(sh, m.err)
	default:
		// Evaluation phase for one completed database task. A failed task's
		// work was done (and stays in Work) but it delivers ⟂ (counted in
		// Result.Failures) — the terminal outcome of a cluster query whose
		// every retry failed.
		in.outstanding--
		if in.finalized {
			// Straggler of an early-terminated instance: its work was sealed
			// as waste at termination; the last one out releases the state.
			return in.outstanding == 0
		}
		in.core.Complete(m.id, m.kind == msgFailed)
		return in.drive(sh)
	}
}

// drive advances the core and submits the launches it selects.
func (in *inst) drive(sh *shard) (retire bool) {
	if ctx := in.req.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return in.abort(sh, err)
		}
	}
	launches, status := in.core.Advance()
	if status != engine.StatusRunning {
		return in.finalize(sh, status)
	}
	for _, id := range launches {
		cost, _ := in.core.Book(id)
		in.outstanding++
		in.launch(id, cost)
	}
	return false
}

// launch routes one booked task to the backend — through the shared query
// layer when configured. Admission control differs by path. The direct path
// acquires a permit per launch and may block on it under overload, which
// stalls only this owner: completion delivery never waits on it (see
// Backend docs). The query layer takes one per unique backend query
// (deduplicated and cached launches hit no database, so they bypass
// admission) and never blocks the owner: a query over the bound parks in
// the dispatcher and the instance awaits its completion like any other.
func (in *inst) launch(id core.AttrID, cost int) {
	svc := in.svc
	d := svc.disp
	if d == nil {
		svc.adm.acquire() // global admission; blocks under overload
		var h uint64
		if svc.cluster != nil {
			// Sharded backend: place by sharing identity so the same
			// logical query consistently lands on the same shard; volatile
			// (unroutable) launches spread by sequence instead.
			var keyed bool
			in.keyBuf, keyed = in.core.AppendQueryArgs(id, in.keyBuf[:0])
			if keyed {
				h = hashIdentity(in.req.Schema, id, in.keyBuf)
			} else {
				h = splitmix64(svc.routeSeq.Add(1))
			}
		}
		in.q[0] = Query{Hash: h, Cost: cost}
		svc.cfg.Backend.Exec(in.q[:], in.execFn(id))
		return
	}
	var key queryKey
	keyed := false
	if d.needsKey() {
		in.keyBuf, keyed = in.core.AppendQueryArgs(id, in.keyBuf[:0])
		if keyed {
			key = queryKey{schema: in.req.Schema, id: id, args: string(in.keyBuf)}
		}
	}
	d.Submit(key, keyed, cost, in.doneFn(id))
}

// abort terminates the instance early on cancellation: waste accounting is
// sealed (in-flight backend tasks complete as stragglers) and the instance
// finalizes now with the cancellation recorded on the result.
func (in *inst) abort(sh *shard, cause error) (retire bool) {
	in.core.Abort()
	in.res.Err = fmt.Errorf("runtime: instance aborted: %w", cause)
	return in.finalize(sh, engine.StatusDone)
}

// finalize records the terminal result and notifies the caller. The state
// stays alive for the callback plus every outstanding completion; the
// instance retires here only when nothing is still on the backend.
func (in *inst) finalize(sh *shard, status engine.Status) (retire bool) {
	in.finalized = true
	if status == engine.StatusStuck {
		in.res.Err = fmt.Errorf("runtime: instance stuck; no candidates, nothing in flight:\n%s", in.core.Snapshot())
	}
	latency := time.Since(in.start)
	in.res.Elapsed = float64(latency) / float64(time.Millisecond)
	if in.req.Shadow {
		sh.recordShadow(&in.res)
	} else {
		sh.record(&in.res, latency, in.req.Tenant)
	}
	if cb := in.req.Done; cb != nil {
		cb(&in.res)
	}
	return in.outstanding == 0
}

// retire returns the finished instance to the pool. Nothing is
// outstanding, so whatever sits in the mailbox — or arrives later — is a
// stale cancel nudge: drop those, and hand ownership back (scheduled=false)
// before the Put, because after it the state may belong to a new request.
// A late nudge then schedules a run of its own that finds a finalized
// instance or a newer generation and does nothing. The caller must not
// touch in again.
func (in *inst) retire() {
	in.req = Request{} // drop caller references before pooling
	in.mbMu.Lock()
	clear(in.mbox)
	in.mbox = in.mbox[:0]
	in.scheduled = false
	in.mbMu.Unlock()
	svc := in.svc
	svc.pool.Put(in)
	svc.disp.release()
	svc.active.Done()
}

// doneFn returns the query layer's cached completion closure for the
// attribute.
func (in *inst) doneFn(id core.AttrID) func(error) {
	in.doneFns = growFns(in.doneFns, id, in.req.Schema)
	if in.doneFns[id] == nil {
		in.doneFns[id] = func(err error) { in.svc.taskDoneShared(in, id, err) }
	}
	return in.doneFns[id]
}

// execFn returns the direct path's cached Exec callback for the attribute.
func (in *inst) execFn(id core.AttrID) func(int, error) {
	in.execFns = growFns(in.execFns, id, in.req.Schema)
	if in.execFns[id] == nil {
		in.execFns[id] = func(_ int, err error) { in.svc.taskDone(in, id, err) }
	}
	return in.execFns[id]
}

// growFns sizes a per-attribute closure cache to cover id.
func growFns[F any](fns []F, id core.AttrID, schema *core.Schema) []F {
	if int(id) < len(fns) {
		return fns
	}
	grown := make([]F, schema.NumAttrs())
	copy(grown, fns)
	return grown
}

// --- run queue ---

// runQueue is an unbounded MPMC FIFO of runnable instances. Unbounded is
// deliberate: admission control bounds database tasks, while instance
// starts are the open workload itself — under overload the queue depth is
// the load shed signal (see Service.QueueDepth).
type runQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []*inst
	head   int
	closed bool
}

func (q *runQueue) push(in *inst) {
	q.mu.Lock()
	// Compact when the dead prefix dominates, so a queue that never fully
	// drains (sustained overload backlog) doesn't grow without bound.
	if q.head > 32 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, in)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *runQueue) pop() (*inst, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return nil, false
	}
	in := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return in, true
}

func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// QueueDepth returns the number of runnable instances waiting for a worker
// — instances with undelivered events (a begin, completions, a cancel) that
// no worker owns yet. It is the backlog signal under overload; an instance
// counts once however many events it has pending.
func (s *Service) QueueDepth() int {
	q := &s.runq
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
