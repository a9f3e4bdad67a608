package runtime

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Cluster is a sharded, replicated Backend: N consistent-hash shards ×
// R replicas of any underlying Backend, with the tail-tolerance layer the
// single-backend runtime lacks — replica load balancing, per-attempt
// deadlines, retry-with-backoff on a different replica, hedged requests,
// and a per-replica circuit breaker.
//
// Placement is by the query's 64-bit sharing-identity hash (the same
// identity the query layer deduplicates and caches on, rendered by
// engine.Core.AppendQueryArgs), so the same logical query always lands on
// the same shard — which is what lets per-shard data locality, caches and
// batches compose. The query layer sits *above* the cluster: batching,
// dedup and the attribute cache see one Backend; the cluster fans each
// Exec out per shard underneath and masks replica faults before the layer
// ever observes them. It is the only Backend that reads Query.Hash.
//
// Failure semantics: an attempt that errors or exceeds Deadline is retried
// on a different replica, up to Retries times, with exponential backoff.
// Only when every attempt fails does the query surface a non-nil error to
// the caller (the service then completes the instance's task as failed —
// value ⟂, counted in Result.Failures). With at least one healthy replica
// per shard and Retries ≥ 1, faults are fully masked: results are
// indistinguishable from a healthy single backend, which is the oracle
// invariant the chaos suite pins.
type Cluster struct {
	cfg    ClusterConfig
	shards []*cshard

	hedges     atomic.Uint64
	hedgeWins  atomic.Uint64
	retriesN   atomic.Uint64
	timeoutsN  atomic.Uint64
	errorsN    atomic.Uint64
	failed     atomic.Uint64
	subBatches atomic.Uint64 // per-shard sub-batches cut from combined round trips
}

// ClusterConfig configures a Cluster. The zero value of every optional
// field is a sane default; Shards, Replicas and New define the topology.
type ClusterConfig struct {
	// Shards is the number of consistent-hash partitions (default 1).
	Shards int
	// Replicas is the number of backend copies per shard (default 1).
	Replicas int
	// New constructs the backend of (shard, replica); required. The faults
	// it reports are what the cluster retries around.
	New func(shard, replica int) Backend
	// Retries is the maximum extra attempts after the first, each
	// preferring an untried replica (default 0: fail fast).
	Retries int
	// RetryBackoff delays retry k by RetryBackoff × 2^(k-1); 0 retries
	// immediately.
	RetryBackoff time.Duration
	// Deadline bounds each attempt; an attempt that hasn't completed in
	// time is abandoned (its late result ignored) and retried elsewhere.
	// 0 disables — required for stall faults to be survivable.
	Deadline time.Duration
	// HedgeDelay launches one backup attempt on a different replica when
	// the first hasn't completed after this fixed delay. 0 defers to
	// HedgeQuantile.
	HedgeDelay time.Duration
	// HedgeQuantile, when HedgeDelay is 0, derives the hedge delay from
	// the shard's observed latency distribution: e.g. 0.95 hedges only the
	// slowest ~5% of requests ("The Tail at Scale"). 0 disables hedging.
	HedgeQuantile float64
	// BreakAfter consecutive failures open a replica's circuit breaker
	// (default 5; negative disables breaking entirely).
	BreakAfter int
	// BreakCooldown is how long an open breaker rejects traffic before
	// admitting a half-open probe (default 250ms).
	BreakCooldown time.Duration
}

// errDeadline is the terminal error of a query whose every attempt timed
// out.
var errDeadline = errors.New("runtime: cluster query deadline exceeded")

// NewCluster builds the shard × replica topology.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.New == nil {
		panic("runtime: ClusterConfig.New is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	breakAfter := int32(cfg.BreakAfter)
	if cfg.BreakAfter == 0 {
		breakAfter = 5
	} else if cfg.BreakAfter < 0 {
		breakAfter = math.MaxInt32
	}
	if cfg.BreakCooldown <= 0 {
		cfg.BreakCooldown = 250 * time.Millisecond
	}
	cl := &Cluster{cfg: cfg, shards: make([]*cshard, cfg.Shards)}
	for s := range cl.shards {
		sh := &cshard{replicas: make([]*replica, cfg.Replicas)}
		for r := range sh.replicas {
			sh.replicas[r] = newReplica(cfg.New(s, r), breakAfter, cfg.BreakCooldown)
		}
		cl.shards[s] = sh
	}
	return cl
}

// Config returns the cluster's (defaulted) configuration.
func (cl *Cluster) Config() ClusterConfig { return cl.cfg }

// shardFor maps a sharing-identity hash to its consistent partition.
func (cl *Cluster) shardFor(hash uint64) *cshard {
	return cl.shards[jumpHash(hash, len(cl.shards))]
}

// Exec places every member on its consistent shard by Query.Hash. A lone
// query executes as itself; several are grouped by shard, each group
// executing as one sub-batch on its shard (with the full retry/hedge
// machinery), and each member's callback fires as its group lands — fast
// shards don't wait for slow ones.
func (cl *Cluster) Exec(qs []Query, each func(i int, err error)) {
	n := len(cl.shards)
	switch {
	case len(qs) == 1:
		cl.start(cl.shardFor(qs[0].Hash), qs, nil, each)
		return
	case n == 1:
		cl.start(cl.shards[0], slices.Clone(qs), nil, each)
		return
	}
	groups := make([][]int, n)
	for i, q := range qs {
		s := jumpHash(q.Hash, n)
		groups[s] = append(groups[s], i)
	}
	for s, members := range groups {
		switch len(members) {
		case 0:
		case 1:
			i := members[0]
			cl.start(cl.shards[s], qs[i:i+1], members, each)
		default:
			sub := make([]Query, len(members))
			for j, i := range members {
				sub[j] = qs[i]
			}
			cl.start(cl.shards[s], sub, members, each)
		}
	}
}

// --- per-query lifecycle ---

// call is one logical query's (or sub-batch's) journey through the
// cluster: up to 1 + Retries attempts plus at most one hedge, first success
// wins. Its outcome is delivered to every member.
type call struct {
	cl   *Cluster
	sh   *cshard
	qs   []Query // the members: one[:] for a lone query, else the call's own copy
	one  [1]Query
	idx  []int // qs[j] is the caller's member idx[j]; nil means j
	each func(int, error)

	mu          sync.Mutex
	settled     bool
	tried       uint64 // replica exclusion mask
	retriesLeft int
	retriesUsed int
	outstanding int // live (unresolved) attempts
	hedged      bool
	hedgeTimer  *time.Timer
	lastErr     error
}

// attempt is one submission to one replica. It is referenced only by the
// closures of its completion and deadline paths; resolved (guarded by the
// call's mutex) makes those paths meet exactly once.
type attempt struct {
	rep      *replica
	start    time.Time
	isHedge  bool
	resolved bool
	deadline *time.Timer
}

// start launches one logical query or sub-batch on the shard. A lone query
// is copied into the call; a sub-batch's qs must already be the call's own
// (attempts outlive the caller's Exec).
func (cl *Cluster) start(sh *cshard, qs []Query, idx []int, each func(int, error)) {
	c := &call{cl: cl, sh: sh, idx: idx, each: each, retriesLeft: cl.cfg.Retries}
	if len(qs) == 1 {
		c.one[0] = qs[0]
		c.qs = c.one[:]
	} else {
		c.qs = qs
		cl.subBatches.Add(1)
	}
	c.mu.Lock()
	at := c.launchLocked(false)
	if delay := cl.hedgeDelay(sh); delay > 0 && len(sh.replicas) > 1 {
		c.hedgeTimer = time.AfterFunc(delay, c.hedge)
	}
	c.mu.Unlock()
	c.exec(at)
}

// hedgeDelay resolves the hedge trigger: fixed, or the shard's observed
// latency quantile (0 until the histogram has warmed past 64 samples).
func (cl *Cluster) hedgeDelay(sh *cshard) time.Duration {
	if cl.cfg.HedgeDelay > 0 {
		return cl.cfg.HedgeDelay
	}
	if q := cl.cfg.HedgeQuantile; q > 0 && sh.lat.Count() >= 64 {
		return sh.lat.Quantile(q)
	}
	return 0
}

// launchLocked prepares one attempt: picks a replica (preferring untried,
// breaker-admitted ones), marks it tried, arms the deadline. The caller
// submits it with exec after releasing the lock — backends may complete
// synchronously, and the completion path takes the lock.
func (c *call) launchLocked(isHedge bool) *attempt {
	now := time.Now()
	i := c.sh.pick(c.tried, now.UnixNano())
	c.tried |= 1 << uint(i)
	at := &attempt{rep: c.sh.replicas[i], start: now, isHedge: isHedge}
	c.outstanding++
	if d := c.cl.cfg.Deadline; d > 0 {
		at.deadline = time.AfterFunc(d, func() { c.timeout(at) })
	}
	return at
}

// exec submits a prepared attempt to its replica.
func (c *call) exec(at *attempt) {
	at.rep.exec(c.qs, func(err error) { c.finish(at, err) })
}

// finish is an attempt's completion path. Errors and latencies feed the
// breaker and histogram even for abandoned attempts — they are real
// observations of the replica — but a breaker *success* is only fed for
// in-time completions: a replica that answers after its deadline is alive
// yet useless, and crediting its late successes would keep re-closing the
// breaker of a replica every caller times out on.
func (c *call) finish(at *attempt, err error) {
	now := time.Now()
	if err != nil {
		at.rep.errors.Add(1)
		at.rep.brk.failure(now.UnixNano())
		c.cl.errorsN.Add(1)
	} else {
		c.sh.lat.Observe(now.Sub(at.start))
	}
	c.mu.Lock()
	if at.resolved {
		c.mu.Unlock() // late completion of a timed-out attempt
		return
	}
	at.resolved = true
	if err == nil {
		at.rep.brk.success()
	}
	if at.deadline != nil {
		at.deadline.Stop()
	}
	c.outstanding--
	if c.settled {
		c.mu.Unlock() // the other attempt already won
		return
	}
	if err == nil {
		c.settleLocked(nil, at.isHedge)
		return
	}
	c.lastErr = err
	c.resolveFailureLocked()
}

// timeout abandons one attempt at its deadline: the attempt counts as a
// failure (feeding the breaker) and the retry machinery takes over; the
// attempt's real completion, whenever it arrives, is ignored.
func (c *call) timeout(at *attempt) {
	c.mu.Lock()
	if at.resolved || c.settled {
		c.mu.Unlock()
		return
	}
	at.resolved = true
	c.outstanding--
	at.rep.timeouts.Add(1)
	at.rep.brk.failure(time.Now().UnixNano())
	c.cl.timeoutsN.Add(1)
	c.lastErr = errDeadline
	c.resolveFailureLocked()
}

// hedge fires at the hedge delay: if the primary attempt is still out, a
// backup attempt races it on a different replica. At most one hedge per
// call.
func (c *call) hedge() {
	c.mu.Lock()
	if c.settled || c.hedged || c.outstanding == 0 {
		c.mu.Unlock() // done, already hedged, or a retry is driving
		return
	}
	c.hedged = true
	c.cl.hedges.Add(1)
	at := c.launchLocked(true)
	c.mu.Unlock()
	c.exec(at)
}

// resolveFailureLocked decides what a failed/timed-out attempt means for
// the call: wait (another attempt still racing), retry (budget left), or
// surface the failure. Called with the lock held; releases it.
func (c *call) resolveFailureLocked() {
	if c.outstanding > 0 {
		c.mu.Unlock() // the hedge (or primary) is still racing; let it decide
		return
	}
	if c.retriesLeft > 0 {
		c.retriesLeft--
		c.retriesUsed++
		c.cl.retriesN.Add(1)
		if c.tried == 1<<uint(len(c.sh.replicas))-1 {
			c.tried = 0 // every replica tried: allow repeats
		}
		if backoff := c.backoff(); backoff > 0 {
			c.mu.Unlock()
			time.AfterFunc(backoff, c.retry)
			return
		}
		at := c.launchLocked(false)
		c.mu.Unlock()
		c.exec(at)
		return
	}
	c.settleLocked(c.lastErr, false)
}

// backoff returns the exponential delay before the next retry.
func (c *call) backoff() time.Duration {
	if c.cl.cfg.RetryBackoff <= 0 {
		return 0
	}
	return c.cl.cfg.RetryBackoff << uint(c.retriesUsed-1)
}

// retry launches the next attempt after its backoff.
func (c *call) retry() {
	c.mu.Lock()
	if c.settled {
		c.mu.Unlock()
		return
	}
	at := c.launchLocked(false)
	c.mu.Unlock()
	c.exec(at)
}

// settleLocked delivers the call's terminal outcome exactly once. Called
// with the lock held; releases it.
func (c *call) settleLocked(err error, hedgeWon bool) {
	c.settled = true
	if c.hedgeTimer != nil {
		c.hedgeTimer.Stop()
	}
	c.mu.Unlock()
	if hedgeWon {
		c.cl.hedgeWins.Add(1)
	}
	if err != nil {
		c.cl.failed.Add(1)
	}
	for j := range c.qs {
		i := j
		if c.idx != nil {
			i = c.idx[j]
		}
		c.each(i, err)
	}
}

// --- stats ---

// ReplicaStats is one replica's traffic view.
type ReplicaStats struct {
	// Queries counts attempts handed to the replica, including hedges,
	// retries and sub-batches.
	Queries uint64
	// Errors counts attempts that reported a failure.
	Errors uint64
	// Timeouts counts attempts abandoned at the per-attempt deadline.
	Timeouts uint64
	// BreakerTrips counts closed→open transitions of the replica's
	// circuit breaker.
	BreakerTrips uint64
	// InFlight is the replica's current outstanding-attempt gauge.
	InFlight int
}

// ClusterStats aggregates the cluster's resilience counters: the totals
// the serving Stats report, plus the per-shard/per-replica breakdown.
type ClusterStats struct {
	Shards   int
	Replicas int
	// Hedges / HedgeWins count backup attempts launched and backup
	// attempts that completed first.
	Hedges, HedgeWins uint64
	// Retries counts re-attempts after an error or timeout; Timeouts and
	// Errors count the attempt-level observations that caused them.
	Retries, Timeouts, Errors uint64
	// BreakerTrips sums closed→open transitions across replicas.
	BreakerTrips uint64
	// Failed counts queries whose every attempt failed — the only case a
	// fault surfaces to the caller.
	Failed uint64
	// SubBatches counts per-shard sub-batches cut from combined round trips.
	SubBatches uint64
	// Replica is the per-[shard][replica] breakdown.
	Replica [][]ReplicaStats
}

// ClusterStats snapshots the counters.
func (cl *Cluster) ClusterStats() ClusterStats {
	st := ClusterStats{
		Shards:     len(cl.shards),
		Replicas:   cl.cfg.Replicas,
		Hedges:     cl.hedges.Load(),
		HedgeWins:  cl.hedgeWins.Load(),
		Retries:    cl.retriesN.Load(),
		Timeouts:   cl.timeoutsN.Load(),
		Errors:     cl.errorsN.Load(),
		Failed:     cl.failed.Load(),
		SubBatches: cl.subBatches.Load(),
	}
	st.Replica = make([][]ReplicaStats, len(cl.shards))
	for s, sh := range cl.shards {
		row := make([]ReplicaStats, len(sh.replicas))
		for r, rep := range sh.replicas {
			row[r] = ReplicaStats{
				Queries:      rep.queries.Load(),
				Errors:       rep.errors.Load(),
				Timeouts:     rep.timeouts.Load(),
				BreakerTrips: rep.brk.trips.Load(),
				InFlight:     int(rep.inFlight.Load()),
			}
			st.BreakerTrips += row[r].BreakerTrips
		}
		st.Replica[s] = row
	}
	return st
}

// ResetStats zeroes the run-scoped counters (breaker state and the learned
// latency histograms are operational state, not run metrics, and persist).
func (cl *Cluster) ResetStats() {
	cl.hedges.Store(0)
	cl.hedgeWins.Store(0)
	cl.retriesN.Store(0)
	cl.timeoutsN.Store(0)
	cl.errorsN.Store(0)
	cl.failed.Store(0)
	cl.subBatches.Store(0)
	for _, sh := range cl.shards {
		for _, rep := range sh.replicas {
			rep.queries.Store(0)
			rep.errors.Store(0)
			rep.timeouts.Store(0)
			rep.brk.trips.Store(0)
		}
	}
}

// Stop releases backend resources: every replica implementing
// interface{ Stop() } (e.g. PacedSim) is stopped. Call after the service
// has drained.
func (cl *Cluster) Stop() {
	for _, sh := range cl.shards {
		for _, rep := range sh.replicas {
			if s, ok := rep.be.(interface{ Stop() }); ok {
				s.Stop()
			}
		}
	}
}
