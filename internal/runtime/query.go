package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// QueryConfig configures the service's shared query layer — the dispatcher
// that sits between instance launches and the Backend. Every launch goes
// through the dispatcher; the zero value shares and batches nothing, so each
// launch is one backend query of its own under the global admission bound.
//
// The layer attacks the paper's central cost — external database queries —
// at fleet scale: when thousands of concurrent instances run the same
// flow, many issue identical foreign-attribute queries. Batching amortizes
// the per-query fixed cost, single-flight deduplication collapses
// identical in-flight queries into one backend round trip, and the
// attribute cache skips the round trip entirely for recently answered
// queries. All three preserve the oracle invariant: a cached or deduped
// completion is indistinguishable from a fresh one in every terminal
// snapshot, because a query's sharing identity (schema, attribute, stable
// data-input values) fully determines its result for pure task functions,
// and each instance still materializes the value from its own inputs.
type QueryConfig struct {
	// BatchSize > 1 coalesces up to that many in-flight launches into one
	// combined backend round trip (the size trigger): one Exec call.
	BatchSize int
	// BatchWindow is the deadline trigger: the cap on how long a partial
	// batch waits for company. It is the fallback — a batch is cut as soon
	// as nothing in the process can still add to it (dispatcher.busy) — and
	// it fires late: the Go netpoller rounds a sub-millisecond sleep of an
	// idle process up to 1ms. Defaults to 200µs when batching is enabled.
	BatchWindow time.Duration
	// Dedup enables single-flight deduplication: launches whose sharing
	// identity matches a query already in flight attach to it and share
	// its single backend round trip.
	Dedup bool
	// CacheSize > 0 enables the sharded attribute-result cache with that
	// many entries, evicting under SIEVE: a launch whose identity was
	// answered within CacheTTL completes immediately, with no backend
	// round trip.
	CacheSize int
	// CacheTTL bounds the age of usable cache entries; 0 means entries
	// never expire (sound for strictly pure task functions; set a TTL when
	// backing queries read slowly drifting external state).
	CacheTTL time.Duration
	// CacheShards spreads the cache and the single-flight table over this
	// many independently locked shards. Defaults to 8.
	CacheShards int
}

// queryKey is the sharing identity of one foreign-task launch. Two
// launches with equal keys are the same query: same schema (by identity),
// same attribute, same stable data-input values (rendered by
// engine.Core.AppendQueryArgs). Launches carry the rendered args as bytes
// and look the tables up with queryKey{schema, id, string(args)} written
// in the index expression, which does not allocate; the string is built
// only for a new flight, whose key a new cache entry then shares.
type queryKey struct {
	schema *core.Schema
	id     core.AttrID
	args   string
}

// PeerQuery is one keyed attribute query offered to the front-end peer
// tier: the sharing identity in wire-transportable form (schema by
// name+fingerprint at the far end, attribute id, rendered args) plus the
// identity hash the ring places it by.
type PeerQuery struct {
	// Schema is the query's schema; peers resolve it remotely by
	// Schema.Name() and verify Schema.Fingerprint().
	Schema *core.Schema
	// Attr is the foreign attribute being queried.
	Attr core.AttrID
	// Args is the rendered sharing-identity arguments (AppendQueryArgs).
	Args string
	// Cost is the query's cost in units of processing.
	Cost int
	// Hash is the sharing-identity hash (hashIdentity), the ring placement key.
	Hash uint64
}

// PeerExec routes keyed queries whose sharing identity homes on another
// front-end node. Installed after construction via InstallPeerRouter —
// the router needs the serving stack that needs this service first.
type PeerExec interface {
	// SubmitPeer offers one keyed query to the tier. false keeps the
	// query local (this node is its home, the home's breaker is open, or
	// no live peers). true transfers ownership: the router must invoke
	// outcome exactly once — remote=true when the home node classified
	// the query (err is the backend verdict; waiters share fate with the
	// home's flight), remote=false when the forward could not be served
	// (peer died, draining, version skew) and the query must re-enter the
	// local path.
	SubmitPeer(q PeerQuery, outcome func(err error, remote bool)) bool
}

// peerExecBox wraps the interface for atomic installation.
type peerExecBox struct{ p PeerExec }

// Identity hashing is FNV-1a, deliberately unseeded: a query's hash — and
// therefore its cluster shard — must be stable across processes and
// restarts, or consistent placement (and any per-shard locality built on
// it) would reshuffle on every deploy. Inputs are schema/attribute names
// and rendered attribute values, not attacker-controlled keys, so seedless
// hashing is sound here.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvFold folds data into a running FNV-1a state.
func fnvFold[T ~string | ~[]byte](h uint64, data T) uint64 {
	for i := 0; i < len(data); i++ {
		h = (h ^ uint64(data[i])) * fnvPrime
	}
	return h
}

// hashIdentity hashes one sharing identity (schema, attribute, rendered
// stable data-input values).
func hashIdentity(schema *core.Schema, id core.AttrID, args []byte) uint64 {
	return fnvFold(hashPrefix(schema, id), args)
}

// hashPrefix folds the schema name and attribute id.
func hashPrefix(schema *core.Schema, id core.AttrID) uint64 {
	h := fnvFold(fnvOffset, schema.Name())
	h = (h ^ uint64(id&0xff)) * fnvPrime
	h = (h ^ uint64(id>>8)) * fnvPrime
	return h
}

// flight is one query on its way to the backend, with every completion
// callback waiting on it. A heap flight (each == nil) is keyed into the
// sharing tables, its dones guarded by the owning shard's lock; any other
// is an instance's own (ownFlight). q[0].Hash is the sharing-identity hash
// (sequence-spread for unkeyed launches on a Cluster), used for lock-domain
// selection here and consistent shard placement in a Cluster; a flight cut
// alone is handed to the backend as q[:].
type flight struct {
	key   queryKey
	q     [1]Query
	dones []func(error)    // a heap flight's waiters
	done  func(error)      // an own flight's one waiter
	each  func(int, error) // an own flight's Exec callback
	// parkedAt is when the flight last parked for a permit (under bmu).
	parkedAt time.Time
}

// dispatcher implements the shared query layer; every launch of the service
// goes through it (inst.launch).
type dispatcher struct {
	backend Backend
	cfg     QueryConfig
	placed  bool          // the backend places by Query.Hash (a Cluster)
	seq     atomic.Uint64 // spreads unkeyed flights over a Cluster's shards
	shards  []qshard

	// peer is the optional front-end peer router, consulted before the
	// local sharing tables so every keyed query is classified at its one
	// home node in the fleet.
	peer atomic.Pointer[peerExecBox]

	// The admission bound (Config.MaxInFlightTasks), per unique query: n
	// counts flights holding a permit (pending or on the backend) plus
	// those parked, so below the bound admission is one atomic add. Past it
	// a flight parks in waiting (FIFO); the worker never blocks. A
	// completion leaving n >= limit hands its permit to the longest-parked
	// flight, or banks it in permits for one not yet in waiting. Every
	// launch and completion writes n: the pad keeps it off the cache line
	// of the read-mostly fields above.
	_     [64]byte
	limit int64
	n     atomic.Int64

	// bmu guards the parked flights, the banked permits and the batcher.
	bmu     sync.Mutex
	permits int
	waiting []*flight
	pending []*flight // the forming batch
	timer   *time.Timer
	// busy gauges everything in this process that can still add a query to
	// pending: instances on the run queue or owned by a worker, plus open
	// Service.Hold brackets. Whoever takes it to zero cuts the batch; the
	// timer is the cap for when it never gets there. npending mirrors
	// len(pending) so going quiet with nothing pending costs no lock.
	busy, npending atomic.Int64

	// metrics (see Stats, which derives the ones not counted per launch)
	backendQueries atomic.Uint64 // flights admitted (sharing tables only)
	batches        atomic.Uint64 // backend round trips (batching only)
	parked         atomic.Uint64 // flights that waited for a permit
	dedupHits      atomic.Uint64 // launches attached to an in-flight query
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	cacheEvictions atomic.Uint64 // entries evicted to make room
	peerForwards   atomic.Uint64 // launches classified at a remote home
	peerFallbacks  atomic.Uint64 // forwards re-entered locally (peer down)
	peerServed     atomic.Uint64 // forwarded-in queries served for peers
	// batches cut (batching only), by cause: full, window expired, nobody
	// left to add to it
	cutSize, cutWindow, cutQuiescent atomic.Uint64
}

// qshard is one lock domain of the single-flight table and the cache.
type qshard struct {
	mu       sync.Mutex
	inflight map[queryKey]*flight
	cache    sieve
}

func newDispatcher(backend Backend, placed bool, limit int, cfg QueryConfig) *dispatcher {
	if cfg.BatchSize > 1 && cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 200 * time.Microsecond
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 8
	}
	d := &dispatcher{
		backend: backend,
		cfg:     cfg,
		placed:  placed,
		limit:   int64(limit),
		shards:  make([]qshard, cfg.CacheShards),
	}
	perShard := 0
	if cfg.CacheSize > 0 {
		perShard = max(1, cfg.CacheSize/cfg.CacheShards)
	}
	for i := range d.shards {
		sh := &d.shards[i]
		if cfg.Dedup {
			sh.inflight = make(map[queryKey]*flight)
		}
		if perShard > 0 {
			sh.cache.init(perShard, cfg.CacheTTL)
		}
	}
	return d
}

// shard picks the lock domain for an identity hash.
func (d *dispatcher) shard(hash uint64) *qshard {
	return &d.shards[hash%uint64(len(d.shards))]
}

// shares reports whether the layer has sharing tables (the single-flight
// table or the cache) — what peer routing needs to mean anything.
func (d *dispatcher) shares() bool {
	return d.cfg.Dedup || d.cfg.CacheSize > 0
}

// needsKey reports whether launches should render their sharing identity:
// for the sharing tables, or — even without them — for consistent shard
// placement on a Cluster.
func (d *dispatcher) needsKey() bool {
	return d.shares() || d.placed
}

// cacheNow is the time cache entries are stamped and judged by: the wall
// clock under a TTL, and never read without one.
func (d *dispatcher) cacheNow() time.Time {
	if d.cfg.CacheTTL > 0 {
		return time.Now()
	}
	return time.Time{}
}

// ownFlight builds the flight an instance reuses for every launch of one
// attribute: its one waiter is done, and its Exec callback is bound here,
// once, so launching it allocates nothing.
func (d *dispatcher) ownFlight(done func(error)) *flight {
	f := &flight{done: done}
	f.each = func(_ int, err error) { d.complete(f, err) }
	return f
}

// Submit routes one foreign-task launch of attribute id of schema, whose
// sharing identity AppendQueryArgs rendered into args (keyed); args is read
// only during the call. own is the launcher's idle flight for the attribute
// (ownFlight); its waiter is invoked exactly once when the result is
// available — possibly synchronously (cache hit, or an immediate backend).
// Unkeyed launches (volatile tasks) bypass the cache and dedup but still batch.
func (d *dispatcher) Submit(schema *core.Schema, id core.AttrID, args []byte, keyed bool, cost int, own *flight) {
	var hash uint64
	if keyed {
		hash = hashIdentity(schema, id, args)
	} else if d.placed {
		hash = splitmix64(d.seq.Add(1))
	}
	if !keyed || !d.shares() {
		own.q[0] = Query{Hash: hash, Cost: cost}
		d.enqueue(own)
		return
	}
	done := own.done
	// Peer tier first, local tables second: a query homed on another node
	// is NOT checked against the local cache or single-flight table —
	// every launch of an identity is classified at its one home, which is
	// what makes the fleet-wide hit rate match a single node's. The router
	// owns accepted queries end to end; a forward the home could not serve
	// re-enters the local path below.
	if box := d.peer.Load(); box != nil {
		q := PeerQuery{Schema: schema, Attr: id, Args: string(args), Cost: cost, Hash: hash}
		if box.p.SubmitPeer(q, func(err error, remote bool) {
			if remote {
				d.peerForwards.Add(1)
				done(err)
				return
			}
			d.peerFallbacks.Add(1)
			d.hold() // the router's goroutine, not the launching owner's
			d.submitKeyed(schema, id, []byte(q.Args), hash, cost, done)
			d.release()
		}) {
			return
		}
	}
	d.submitKeyed(schema, id, args, hash, cost, done)
}

// submitKeyed is the local keyed path: cache lookup, single-flight attach,
// or a fresh flight. It is entered by local launches whose home is this
// node (or whose home could not serve them) and by queries forwarded in
// from peers — the latter never re-consult the peer router, so forwards
// cannot loop. The layer has sharing tables. args is read only during the
// call.
func (d *dispatcher) submitKeyed(schema *core.Schema, id core.AttrID, args []byte, hash uint64, cost int, done func(error)) {
	sh := d.shard(hash)
	sh.mu.Lock()
	if d.cfg.CacheSize > 0 && sh.cache.get(schema, id, args, d.cacheNow()) {
		sh.mu.Unlock()
		d.cacheHits.Add(1)
		done(nil)
		return
	}
	if d.cfg.Dedup {
		if f := sh.inflight[queryKey{schema, id, string(args)}]; f != nil {
			f.dones = append(f.dones, done)
			sh.mu.Unlock()
			d.dedupHits.Add(1)
			return
		}
	}
	// The identity's key string is built here, once per flight; the cache
	// entry the flight primes shares it.
	f := &flight{key: queryKey{schema, id, string(args)},
		q: [1]Query{{Hash: hash, Cost: cost}}, dones: []func(error){done}}
	if d.cfg.Dedup {
		sh.inflight[f.key] = f
	}
	sh.mu.Unlock()
	// A miss is a cache lookup that reaches the backend: dedup attaches
	// above don't count.
	if d.cfg.CacheSize > 0 {
		d.cacheMisses.Add(1)
	}
	d.enqueue(f)
}

// hold and release move the busy gauge — no-ops unless batching is on. The
// release that takes it to zero cuts what is pending: nobody is left to add
// to it.
func (d *dispatcher) hold() {
	if d.cfg.BatchSize > 1 {
		d.busy.Add(1)
	}
}

func (d *dispatcher) release() {
	if d.cfg.BatchSize > 1 && d.busy.Add(-1) == 0 && d.npending.Load() > 0 {
		d.cut(&d.cutQuiescent)
	}
}

// enqueue offers one unique query for a permit: below the bound it goes on
// at once, past it it parks. It never blocks on admission.
func (d *dispatcher) enqueue(f *flight) {
	if d.n.Add(1) > d.limit {
		d.bmu.Lock()
		if d.permits == 0 {
			f.parkedAt = time.Now()
			d.waiting = append(d.waiting, f)
			d.bmu.Unlock()
			d.parked.Add(1)
			return
		}
		d.permits-- // a completion beat f here and left its permit
		d.bmu.Unlock()
	}
	d.send(f)
}

// oldestParked returns when the longest-parked flight parked, or the zero
// time when none is. Flights park only past the bound, so below it this is
// one atomic load.
func (d *dispatcher) oldestParked() time.Time {
	if d.n.Load() <= d.limit {
		return time.Time{}
	}
	d.bmu.Lock()
	defer d.bmu.Unlock()
	if len(d.waiting) == 0 {
		return time.Time{}
	}
	return d.waiting[0].parkedAt
}

// send hands an admitted flight to the batcher, or with batching off
// straight to the backend.
func (d *dispatcher) send(f *flight) {
	if d.shares() { // else a backend query is simply a launch (see Stats)
		d.backendQueries.Add(1)
	}
	if d.cfg.BatchSize <= 1 {
		d.exec(f)
		return
	}
	d.bmu.Lock()
	batch := d.add(f)
	d.bmu.Unlock()
	d.flush(batch, &d.cutSize)
}

// add puts an admitted flight into the forming batch, returning the batch
// if f filled it. Caller holds bmu.
func (d *dispatcher) add(f *flight) []*flight {
	d.pending = append(d.pending, f)
	if len(d.pending) >= d.cfg.BatchSize {
		return d.take()
	}
	d.npending.Store(int64(len(d.pending)))
	if len(d.pending) == 1 {
		// First query of a new batch: arm the deadline trigger.
		if d.timer == nil {
			d.timer = time.AfterFunc(d.cfg.BatchWindow, func() { d.cut(&d.cutWindow) })
		} else {
			d.timer.Reset(d.cfg.BatchWindow)
		}
	}
	return nil
}

// take empties the forming batch. Caller holds bmu.
func (d *dispatcher) take() []*flight {
	batch := d.pending
	d.pending = nil
	d.npending.Store(0)
	if d.timer != nil {
		d.timer.Stop()
	}
	return batch
}

// cut flushes what accumulated (nothing, if a size trigger raced it): the
// window expired or the process went quiet.
func (d *dispatcher) cut(cause *atomic.Uint64) {
	d.bmu.Lock()
	batch := d.take()
	d.bmu.Unlock()
	d.flush(batch, cause)
}

// flush submits one cut batch to the backend as one Exec call, on the
// goroutine that cut it: the launcher or completion that filled it, whoever
// took the busy gauge to zero, or the deadline timer's. It may block on
// backend admission (e.g. Latency.Parallel), which back-pressures later
// batches. Batches counts dispatcher cuts; a Cluster's SubBatches counts
// the shard trips it fans them out to.
func (d *dispatcher) flush(batch []*flight, cause *atomic.Uint64) {
	if len(batch) == 0 {
		return
	}
	cause.Add(1)
	d.batches.Add(1)
	if len(batch) == 1 {
		d.exec(batch[0])
		return
	}
	qs := make([]Query, len(batch))
	for i, f := range batch {
		qs[i] = f.q[0]
	}
	d.backend.Exec(qs, func(i int, err error) { d.complete(batch[i], err) })
}

// exec hands one flight to the backend as a round trip of its own. Only a
// heap flight needs a callback built for it.
func (d *dispatcher) exec(f *flight) {
	each := f.each
	if each == nil {
		each = func(_ int, err error) { d.complete(f, err) }
	}
	d.backend.Exec(f.q[:], each)
}

// complete fans a finished flight out to its waiters, retiring it from the
// single-flight table and priming the cache. It runs on backend goroutines;
// each waiter is the service's cheap non-blocking completion handler. A
// failed flight (err non-nil, every cluster retry exhausted) shares its
// fate with all deduplicated waiters — standard single-flight semantics —
// and is never cached, so the next identical launch retries the backend.
// An own flight may be launched again once its waiter has run: nothing
// here touches f after that.
func (d *dispatcher) complete(f *flight, err error) {
	// Return the permit first: past the bound it goes to the longest-parked
	// flight. That flight is sent on only after f's own waiters are
	// delivered — a send may block (see flush), and delivery must never
	// wait on it.
	var next *flight
	if d.n.Add(-1) >= d.limit {
		d.bmu.Lock()
		if len(d.waiting) == 0 {
			d.permits++ // for the flight on its way to waiting
		} else {
			next = d.waiting[0]
			d.waiting[0] = nil
			d.waiting = d.waiting[1:]
		}
		d.bmu.Unlock()
	}
	if f.each != nil {
		f.done(err)
	} else {
		// f.dones of a keyed flight is only readable under the shard lock:
		// dedup waiters append to it until the retirement below.
		sh := d.shard(f.q[0].Hash)
		sh.mu.Lock()
		if d.cfg.Dedup {
			delete(sh.inflight, f.key)
		}
		if d.cfg.CacheSize > 0 && err == nil && sh.cache.put(f.key, d.cacheNow()) {
			d.cacheEvictions.Add(1)
		}
		dones := f.dones
		sh.mu.Unlock()
		for _, fn := range dones {
			fn(err)
		}
	}
	if next != nil {
		d.send(next)
	}
}

// --- sharded SIEVE+TTL cache ---

// sieve is one shard's fixed-capacity cache of answered query identities
// under SIEVE eviction (Zhang et al., "SIEVE is Simpler than LRU", NSDI
// 2024). The "result" needs no payload: the key (schema, attribute, stable
// input values) fully determines the task's value for pure ComputeFuncs,
// and the hitting instance materializes it locally from its own identical
// inputs — what the cache elides is the backend round trip, which is the
// entirety of a foreign task's cost in this model.
//
// Entries sit in one queue in insertion order, newest at the head. A hit
// only sets the entry's visited bit; nothing moves. To make room, a hand
// walks from the tail toward the head (wrapping back to the tail), clears
// the visited bits it passes and evicts the first unvisited entry, then
// rests where it stopped. One-time identities are therefore evicted soon
// after insertion, while an identity hit since the hand last passed it
// survives a full sweep: on a Zipf key stream this keeps more of the hot
// set than LRU, whose every hit is a move-to-front.
type sieve struct {
	ttl     time.Duration    // 0: entries never expire, and at is never set
	entries map[queryKey]int // key -> slot index
	slots   []sieveSlot
	head    int // newest entry; -1 when empty
	tail    int // oldest entry
	hand    int // next eviction candidate; -1 means start at the tail
	free    []int
}

type sieveSlot struct {
	key        queryKey
	at         time.Time // insertion time, kept only under a TTL
	prev, next int       // toward the head (newer), toward the tail (older)
	visited    bool
}

func (c *sieve) init(capacity int, ttl time.Duration) {
	c.ttl = ttl
	c.entries = make(map[queryKey]int, capacity)
	c.slots = make([]sieveSlot, capacity)
	c.free = make([]int, capacity)
	for i := range c.free {
		c.free[i] = capacity - 1 - i
	}
	c.head, c.tail, c.hand = -1, -1, -1
}

// get reports whether the identity was answered within the TTL of now,
// marking it visited. It builds no key string: the conversion inside the
// index expression does not allocate. Expired entries are removed on
// contact.
func (c *sieve) get(schema *core.Schema, id core.AttrID, args []byte, now time.Time) bool {
	i, ok := c.entries[queryKey{schema, id, string(args)}]
	if !ok {
		return false
	}
	if c.ttl > 0 && now.Sub(c.slots[i].at) > c.ttl {
		c.remove(i)
		return false
	}
	c.slots[i].visited = true
	return true
}

// put records key as answered at time at, evicting one entry when full;
// it reports whether it did. A key already present counts as a hit.
func (c *sieve) put(key queryKey, at time.Time) (evicted bool) {
	if i, ok := c.entries[key]; ok {
		c.slots[i].at = at
		c.slots[i].visited = true
		return false
	}
	if len(c.free) == 0 {
		c.evict()
		evicted = true
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[i] = sieveSlot{key: key, at: at, prev: -1, next: c.head}
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
	c.entries[key] = i
	return evicted
}

// evict moves the hand to the first unvisited entry, clearing visited bits
// on the way, and removes it. The cache is full, so the walk ends within
// one lap.
func (c *sieve) evict() {
	i := c.hand
	if i < 0 {
		i = c.tail
	}
	for c.slots[i].visited {
		c.slots[i].visited = false
		if i = c.slots[i].prev; i < 0 {
			i = c.tail
		}
	}
	c.hand = i
	c.remove(i)
}

// remove unlinks slot i; a hand resting on it moves on toward the head.
func (c *sieve) remove(i int) {
	s := &c.slots[i]
	if c.hand == i {
		c.hand = s.prev
	}
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	delete(c.entries, s.key)
	*s = sieveSlot{} // drop the key's schema and args
	c.free = append(c.free, i)
}
