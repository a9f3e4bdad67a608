package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// QueryConfig configures the service's shared query layer — the dispatcher
// that sits between instance launches and the Backend. All features are
// off by default (zero value), in which case launches go straight to the
// Backend exactly as before.
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
	// CacheSize > 0 enables the sharded LRU attribute-result cache with
	// that many entries: a launch whose identity was answered within
	// CacheTTL completes immediately, with no backend round trip.
	CacheSize int
	// CacheTTL bounds the age of usable cache entries; 0 means entries
	// never expire (sound for strictly pure task functions; set a TTL when
	// backing queries read slowly drifting external state).
	CacheTTL time.Duration
	// CacheShards spreads the cache and the single-flight table over this
	// many independently locked shards. Defaults to 8.
	CacheShards int
}

// enabled reports whether any feature of the layer is on.
func (q QueryConfig) enabled() bool {
	return q.BatchSize > 1 || q.Dedup || q.CacheSize > 0
}

// queryKey is the sharing identity of one foreign-task launch. Two
// launches with equal keys are the same query: same schema (by identity),
// same attribute, same stable data-input values (rendered by
// engine.Core.AppendQueryArgs).
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
	// Hash is the sharing-identity hash (hashKey), the ring placement key.
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

// fnvFold folds data into a running FNV-1a state. Both hash entry points
// go through it, so the direct launch path (byte-slice args) and the
// dispatcher (interned string args) cannot drift apart and split the same
// query across cluster shards.
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

// hashKey is hashIdentity over an interned queryKey.
func hashKey(key queryKey) uint64 {
	return fnvFold(hashPrefix(key.schema, key.id), key.args)
}

// hashPrefix folds the schema name and attribute id.
func hashPrefix(schema *core.Schema, id core.AttrID) uint64 {
	h := fnvFold(fnvOffset, schema.Name())
	h = (h ^ uint64(id&0xff)) * fnvPrime
	h = (h ^ uint64(id>>8)) * fnvPrime
	return h
}

// flight is one query on its way to the backend, with every completion
// callback waiting on it. dones is guarded by the owning shard's lock for
// keyed flights; unkeyed flights have exactly one waiter and no sharing.
// q[0].Hash is the sharing-identity hash (a sequence-spread value for
// unkeyed flights), used for lock-domain selection here and consistent
// shard placement in a Cluster; a flight cut alone is handed to the
// backend as q[:].
type flight struct {
	key   queryKey
	keyed bool
	q     [1]Query
	dones []func(error)
}

// dispatcher implements the shared query layer. It is created only when
// QueryConfig.enabled(); a nil dispatcher means launches take the direct
// path (inst.launch).
type dispatcher struct {
	backend Backend
	cfg     QueryConfig
	placed  bool          // the backend places by Query.Hash (a Cluster)
	seq     atomic.Uint64 // spreads unkeyed flights over shards
	shards  []qshard

	// peer is the optional front-end peer router, consulted before the
	// local sharing tables so every keyed query is classified at its one
	// home node in the fleet.
	peer atomic.Pointer[peerExecBox]

	// bmu guards the batcher and the global admission bound
	// (Config.MaxInFlightTasks), owned here at unique-query granularity:
	// held counts flights pending or on the backend, and one over the bound
	// parks in waiting (FIFO) until a completion admits it — the launching
	// worker never blocks. Deduplicated and cached launches take no permit.
	bmu     sync.Mutex
	limit   int
	held    int
	waiting []*flight
	pending []*flight // the forming batch
	timer   *time.Timer
	// busy gauges everything in this process that can still add a query to
	// pending: instances on the run queue or owned by a worker, plus open
	// Service.Hold brackets. Whoever takes it to zero cuts the batch; the
	// timer is the cap for when it never gets there. npending mirrors
	// len(pending) so going quiet with nothing pending costs no lock.
	busy, npending atomic.Int64

	// metrics (see Stats).
	backendQueries atomic.Uint64 // unique flights handed to the backend
	batches        atomic.Uint64 // backend round trips
	parked         atomic.Uint64 // flights that waited for a permit
	dedupHits      atomic.Uint64 // launches attached to an in-flight query
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	peerForwards   atomic.Uint64 // launches classified at a remote home
	peerFallbacks  atomic.Uint64 // forwards re-entered locally (peer down)
	peerServed     atomic.Uint64 // forwarded-in queries served for peers
	// batches cut, by cause: full, window expired, nobody left to add to it
	cutSize, cutWindow, cutQuiescent atomic.Uint64
}

// qshard is one lock domain of the single-flight table and the cache.
type qshard struct {
	mu       sync.Mutex
	inflight map[queryKey]*flight
	cache    lru
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
		limit:   limit,
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
			sh.cache.init(perShard)
		}
	}
	return d
}

// shard picks the lock domain for an identity hash.
func (d *dispatcher) shard(hash uint64) *qshard {
	return &d.shards[hash%uint64(len(d.shards))]
}

// needsKey reports whether launches should render their sharing identity:
// for the dedup/cache tables, or — even with both off — for consistent
// shard placement on a Cluster.
func (d *dispatcher) needsKey() bool {
	return d.cfg.Dedup || d.cfg.CacheSize > 0 || d.placed
}

// Submit routes one foreign-task launch. done is invoked exactly once when
// the query's result is available — possibly synchronously (cache hit, or
// an immediate backend). keyed=false launches (volatile tasks) bypass the
// cache and dedup but still batch.
func (d *dispatcher) Submit(key queryKey, keyed bool, cost int, done func(error)) {
	if keyed && d.needsKey() {
		hash := hashKey(key)
		// Peer tier first, local tables second: a query homed on another
		// node is NOT checked against the local cache or single-flight
		// table — every launch of an identity is classified at its one
		// home, which is what makes the fleet-wide hit rate match a
		// single node's. The router owns accepted queries end to end; a
		// forward the home could not serve re-enters the local path below.
		if box := d.peer.Load(); box != nil {
			q := PeerQuery{Schema: key.schema, Attr: key.id, Args: key.args, Cost: cost, Hash: hash}
			if box.p.SubmitPeer(q, func(err error, remote bool) {
				if remote {
					d.peerForwards.Add(1)
					done(err)
					return
				}
				d.peerFallbacks.Add(1)
				d.hold() // the router's goroutine, not the launching owner's
				d.submitKeyed(key, hash, cost, done)
				d.release()
			}) {
				return
			}
		}
		d.submitKeyed(key, hash, cost, done)
		return
	}
	d.enqueue(&flight{q: [1]Query{{Hash: splitmix64(d.seq.Add(1)), Cost: cost}}, dones: []func(error){done}})
}

// submitKeyed is the local keyed path: cache lookup, single-flight attach,
// or a fresh flight. It is entered by local launches whose home is this
// node (or whose home could not serve them) and by queries forwarded in
// from peers — the latter never re-consult the peer router, so forwards
// cannot loop.
func (d *dispatcher) submitKeyed(key queryKey, hash uint64, cost int, done func(error)) {
	if !d.cfg.Dedup && d.cfg.CacheSize == 0 {
		// Keyed purely for placement (batching-only layer over a
		// Cluster): no sharing tables to consult, and exactly one
		// waiter — but the identity hash still pins the shard.
		d.enqueue(&flight{q: [1]Query{{Hash: hash, Cost: cost}}, dones: []func(error){done}})
		return
	}
	sh := d.shard(hash)
	sh.mu.Lock()
	if d.cfg.CacheSize > 0 {
		if sh.cache.get(key, time.Now(), d.cfg.CacheTTL) {
			sh.mu.Unlock()
			d.cacheHits.Add(1)
			done(nil)
			return
		}
	}
	if d.cfg.Dedup {
		if f := sh.inflight[key]; f != nil {
			f.dones = append(f.dones, done)
			sh.mu.Unlock()
			d.dedupHits.Add(1)
			return
		}
		f := &flight{key: key, keyed: true, q: [1]Query{{Hash: hash, Cost: cost}}, dones: []func(error){done}}
		sh.inflight[key] = f
		sh.mu.Unlock()
		// A miss is a cache lookup that reaches the backend: dedup
		// attaches above don't count.
		if d.cfg.CacheSize > 0 {
			d.cacheMisses.Add(1)
		}
		d.enqueue(f)
		return
	}
	sh.mu.Unlock()
	if d.cfg.CacheSize > 0 {
		d.cacheMisses.Add(1)
	}
	d.enqueue(&flight{key: key, keyed: true, q: [1]Query{{Hash: hash, Cost: cost}}, dones: []func(error){done}})
}

// hold and release move the busy gauge — no-ops unless batching is on (a
// nil dispatcher included), so the direct path pays a nil check. The release
// that takes it to zero cuts what is pending: nobody is left to add to it.
func (d *dispatcher) hold() {
	if d != nil && d.cfg.BatchSize > 1 {
		d.busy.Add(1)
	}
}

func (d *dispatcher) release() {
	if d != nil && d.cfg.BatchSize > 1 && d.busy.Add(-1) == 0 && d.npending.Load() > 0 {
		d.cut(&d.cutQuiescent)
	}
}

// enqueue hands one unique query to the batcher, or parks it when the
// admission bound is reached; it never blocks on admission.
func (d *dispatcher) enqueue(f *flight) {
	d.bmu.Lock()
	if d.held == d.limit {
		d.waiting = append(d.waiting, f)
		d.bmu.Unlock()
		d.parked.Add(1)
		return
	}
	batch := d.admit(f)
	d.bmu.Unlock()
	d.flush(batch, &d.cutSize)
}

// admit takes f's permit and adds it to the forming batch, returning the
// batch if f filled it (always, with batching off). Caller holds bmu.
func (d *dispatcher) admit(f *flight) []*flight {
	d.held++
	d.backendQueries.Add(1)
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
		f := batch[0]
		d.backend.Exec(f.q[:], func(_ int, err error) { d.complete(f, err) })
		return
	}
	qs := make([]Query, len(batch))
	for i, f := range batch {
		qs[i] = f.q[0]
	}
	d.backend.Exec(qs, func(i int, err error) { d.complete(batch[i], err) })
}

// complete fans a finished flight out to its waiters, retiring it from the
// single-flight table and priming the cache. It runs on backend goroutines;
// each waiter is the service's cheap non-blocking completion handler. A
// failed flight (err non-nil, every cluster retry exhausted) shares its
// fate with all deduplicated waiters — standard single-flight semantics —
// and is never cached, so the next identical launch retries the backend.
func (d *dispatcher) complete(f *flight, err error) {
	// Return the permit first: it admits the longest-parked flight. A batch
	// that fills is flushed only after f's own waiters are delivered —
	// flush may block (see there), and delivery must never wait on it.
	d.bmu.Lock()
	d.held--
	var batch []*flight
	if len(d.waiting) > 0 {
		batch = d.admit(d.waiting[0])
		d.waiting[0] = nil
		d.waiting = d.waiting[1:]
	}
	d.bmu.Unlock()
	var dones []func(error)
	if f.keyed {
		// f.dones of a keyed flight is only readable under the shard lock:
		// dedup waiters append to it until the retirement below.
		sh := d.shard(f.q[0].Hash)
		sh.mu.Lock()
		if d.cfg.Dedup {
			delete(sh.inflight, f.key)
		}
		if d.cfg.CacheSize > 0 && err == nil {
			sh.cache.put(f.key, time.Now())
		}
		dones = f.dones
		sh.mu.Unlock()
	} else {
		dones = f.dones // single waiter, never shared
	}
	for _, fn := range dones {
		fn(err)
	}
	d.flush(batch, &d.cutSize)
}

// --- sharded LRU+TTL cache ---

// lru is one shard's fixed-capacity LRU of answered query identities with
// insertion timestamps. The "result" needs no payload: the key (schema,
// attribute, stable input values) fully determines the task's value for
// pure ComputeFuncs, and the hitting instance materializes it locally from
// its own identical inputs — what the cache elides is the backend round
// trip, which is the entirety of a foreign task's cost in this model.
type lru struct {
	cap     int
	entries map[queryKey]int // key -> slot index
	slots   []lruSlot
	head    int // most recently used; -1 when empty
	tail    int // least recently used
	free    []int
}

type lruSlot struct {
	key        queryKey
	at         time.Time
	prev, next int
}

func (c *lru) init(capacity int) {
	c.cap = capacity
	c.entries = make(map[queryKey]int, capacity)
	c.slots = make([]lruSlot, capacity)
	c.free = make([]int, capacity)
	for i := range c.free {
		c.free[i] = capacity - 1 - i
	}
	c.head, c.tail = -1, -1
}

// get reports whether key was answered within ttl of now, refreshing its
// recency. Expired entries are evicted on contact.
func (c *lru) get(key queryKey, now time.Time, ttl time.Duration) bool {
	i, ok := c.entries[key]
	if !ok {
		return false
	}
	if ttl > 0 && now.Sub(c.slots[i].at) > ttl {
		c.remove(i)
		return false
	}
	c.moveToFront(i)
	return true
}

// put records key as answered at time at, evicting the least recently used
// entry when full.
func (c *lru) put(key queryKey, at time.Time) {
	if c.cap == 0 {
		return
	}
	if i, ok := c.entries[key]; ok {
		c.slots[i].at = at
		c.moveToFront(i)
		return
	}
	if len(c.free) == 0 {
		c.remove(c.tail)
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[i] = lruSlot{key: key, at: at, prev: -1, next: c.head}
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
	c.entries[key] = i
}

func (c *lru) moveToFront(i int) {
	if c.head == i {
		return
	}
	s := &c.slots[i]
	c.slots[s.prev].next = s.next
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, c.head
	c.slots[c.head].prev = i
	c.head = i
}

func (c *lru) remove(i int) {
	s := &c.slots[i]
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
	c.free = append(c.free, i)
}
