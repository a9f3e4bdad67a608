package runtime

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hist"
)

// Stats aggregates the service's serving metrics since start (or the last
// ResetStats). Work metrics are summed over completed instances only —
// matching the per-instance Result accounting, so no work is lost or
// double-counted across the fleet.
type Stats struct {
	// Submitted counts accepted Submit calls.
	Submitted uint64
	// Scheduled counts run-queue pushes: how many times an instance went
	// from idle to runnable (shadow instances included). An instance whose
	// completions all arrive inline — Instant backend, cache hits — is
	// pushed exactly once, so there Scheduled equals the submissions.
	Scheduled uint64
	// Completed counts instances that reached a terminal snapshot
	// (including those that finished with Err).
	Completed uint64
	// Errors counts completed instances with a non-nil Err.
	Errors uint64
	// Work / WastedWork / Launched / SynthesisRuns / Failures sum the
	// corresponding Result fields over completed instances.
	Work          uint64
	WastedWork    uint64
	Launched      uint64
	SynthesisRuns uint64
	Failures      uint64
	// StepMemoHits and StepMemoMisses sum the completed instances' control
	// steps replayed from the engine's step tables and run on the plain
	// path. StepMemoBytes is what their misses added to the tables of every
	// schema and strategy the service ran: ResetStats leaves it alone.
	StepMemoHits, StepMemoMisses, StepMemoBytes uint64
	// Latency percentiles over completed instances (wall clock, submit to
	// terminal snapshot), read from a log-linear histogram: each is at most
	// 1/16 above the exact nearest-rank value and never above Max.
	P50, P95, P99, Max time.Duration
	// AvgLatency is the mean wall-clock latency.
	AvgLatency time.Duration

	// Query-layer metrics. Every launched task is accounted to exactly one
	// of BackendQueries, DedupHits or CacheHits — the conservation identity
	// Launched + ShadowLaunched == BackendQueries + DedupHits + CacheHits
	// the property tests assert. Unlike the Work metrics above, these count
	// at launch time, so they include queries of instances still in flight
	// — except where the layer derives them instead of counting each
	// launch: without sharing tables (no Dedup, no cache) BackendQueries is
	// Launched + ShadowLaunched, and without batching Batches and CutSize
	// are BackendQueries. The two readings agree once drained.
	BackendQueries uint64 // unique queries handed to the backend
	Batches        uint64 // backend round trips (≤ BackendQueries)
	DedupHits      uint64 // launches that shared an in-flight query
	CacheHits      uint64 // launches answered by the attribute cache
	CacheMisses    uint64 // cache lookups that went to the backend
	CacheEvictions uint64 // cache entries evicted to make room (not expiries)
	// Why each batch left the batcher — it filled (or batching is off), the
	// BatchWindow timer fired, or nothing in the process could still add to
	// it; on a batch-capable backend the three sum to Batches — and how many
	// unique queries arrived over MaxInFlightTasks and waited for a permit.
	CutSize, CutWindow, CutQuiescent, AdmissionParked uint64

	// Peer-tier metrics (all zero without an installed peer router). A
	// launch classified at a remote home counts in PeerForwards instead of
	// the three buckets above; a query forwarded in from a peer counts in
	// PeerServed AND exactly one of the buckets above. The per-node
	// conservation identity therefore becomes
	// Launched + ShadowLaunched == BackendQueries + DedupHits + CacheHits - PeerServed + PeerForwards,
	// and summing over the fleet restores the launch-exact identity
	// (forwards and serves cancel pairwise).
	PeerForwards  uint64 // launches classified at a remote home node
	PeerFallbacks uint64 // forwards re-entered locally (peer down/draining)
	PeerServed    uint64 // forwarded-in queries served on behalf of peers

	// Cluster resilience totals (all zero unless the Backend is a
	// Cluster): hedges launched/won, retries after errors or timeouts,
	// breaker trips, and queries whose every attempt failed. Cluster
	// additionally carries the per-shard/per-replica breakdown.
	Hedges        uint64
	HedgeWins     uint64
	Retries       uint64
	Timeouts      uint64
	BreakerTrips  uint64
	FailedQueries uint64
	Cluster       *ClusterStats

	// ShadowSubmitted / ShadowCompleted / ShadowErrors / ShadowLaunched
	// count Request.Shadow instances (the server's shadow-evaluation
	// background work) and the tasks they launched. Shadow instances are
	// excluded from every metric above except the query layer's, whose
	// queries reach the database like any other: shadow load must not move
	// the latency percentiles or the completion counts.
	ShadowSubmitted uint64
	ShadowCompleted uint64
	ShadowErrors    uint64
	ShadowLaunched  uint64

	// Tenants breaks completions down by Request.Tenant, for requests that
	// carried one (the network front end tags every instance with its
	// tenant). Untagged instances appear only in the aggregate above.
	Tenants map[string]TenantStats
}

// TenantStats is one tenant's slice of the service metrics: completions,
// errors, and latency percentiles over that tenant's instances.
type TenantStats struct {
	Completed          uint64
	Errors             uint64
	P50, P95, P99, Max time.Duration
	AvgLatency         time.Duration
}

// AvgBatchSize returns the mean queries per backend round trip (1 when
// batching never coalesced anything; 0 before any query).
func (st Stats) AvgBatchSize() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BackendQueries) / float64(st.Batches)
}

// String renders the stats as a one-stop report block in a single
// strings.Builder pass: the totals and latency, the Layers lines, then one
// line per tenant. The exact format is pinned by TestStatsStringGolden —
// extend that test with any new line.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"completed=%d errors=%d work=%d wasted=%d launched=%d synthesis=%d",
		st.Completed, st.Errors, st.Work, st.WastedWork, st.Launched, st.SynthesisRuns)
	if st.StepMemoHits+st.StepMemoMisses > 0 {
		fmt.Fprintf(&b, " memo=%d/%d", st.StepMemoHits, st.StepMemoMisses)
	}
	fmt.Fprintf(&b, "\nlatency p50=%v p95=%v p99=%v max=%v avg=%v",
		st.P50, st.P95, st.P99, st.Max, st.AvgLatency)
	st.writeLayers(&b)
	for _, name := range slices.Sorted(maps.Keys(st.Tenants)) {
		t := st.Tenants[name]
		fmt.Fprintf(&b, "\ntenant %s: completed=%d errors=%d p50=%v p99=%v max=%v",
			name, t.Completed, t.Errors, t.P50, t.P99, t.Max)
	}
	return b.String()
}

// Layers renders String's lines for the layers between instances and the
// database — query layer, batch cuts, peer tier, shadow, cluster — each
// only when it saw traffic (the cluster block when the backend is a
// cluster), without the instance totals and tenants.
func (st Stats) Layers() string {
	var b strings.Builder
	st.writeLayers(&b)
	return strings.TrimPrefix(b.String(), "\n")
}

// writeLayers appends the Layers lines to b, each after a newline.
func (st Stats) writeLayers(b *strings.Builder) {
	if st.BackendQueries+st.DedupHits+st.CacheHits > 0 {
		fmt.Fprintf(b,
			"\nquery layer: backend=%d batches=%d avg-batch=%.1f dedup-hits=%d cache-hit/miss=%d/%d evicted=%d",
			st.BackendQueries, st.Batches, st.AvgBatchSize(), st.DedupHits, st.CacheHits, st.CacheMisses, st.CacheEvictions)
	}
	if st.CutSize+st.CutWindow+st.CutQuiescent+st.AdmissionParked > 0 {
		fmt.Fprintf(b, "\nbatch cuts: size=%d window=%d quiescent=%d admission-parked=%d",
			st.CutSize, st.CutWindow, st.CutQuiescent, st.AdmissionParked)
	}
	if st.PeerForwards+st.PeerFallbacks+st.PeerServed > 0 {
		fmt.Fprintf(b, "\npeer tier: forwards=%d fallbacks=%d served=%d",
			st.PeerForwards, st.PeerFallbacks, st.PeerServed)
	}
	if st.ShadowSubmitted > 0 {
		fmt.Fprintf(b, "\nshadow: submitted=%d completed=%d errors=%d launched=%d",
			st.ShadowSubmitted, st.ShadowCompleted, st.ShadowErrors, st.ShadowLaunched)
	}
	if c := st.Cluster; c != nil {
		fmt.Fprintf(b,
			"\ncluster: shards=%d replicas=%d hedges=%d/%d won retries=%d timeouts=%d breaker-trips=%d failed=%d",
			c.Shards, c.Replicas, c.HedgeWins, c.Hedges, c.Retries, c.Timeouts, c.BreakerTrips, c.Failed)
		for s, row := range c.Replica {
			fmt.Fprintf(b, "\n  shard %d:", s)
			for r, rep := range row {
				fmt.Fprintf(b, " r%d[q=%d err=%d to=%d trips=%d]",
					r, rep.Queries, rep.Errors, rep.Timeouts, rep.BreakerTrips)
			}
		}
	}
}

// shard is one worker's metrics slice; finalization always happens on a
// worker, so each shard is written by exactly one goroutine (its own lock
// is only contended by Stats readers).
type shard struct {
	mu        sync.Mutex
	completed uint64
	errors    uint64
	// shadowCompleted / shadowErrors / shadowLaunched tally Request.Shadow
	// instances, which bypass every other field (see Stats.ShadowCompleted).
	shadowCompleted uint64
	shadowErrors    uint64
	shadowLaunched  uint64
	work            uint64
	wasted          uint64
	launched        uint64
	synth           uint64
	failures        uint64
	memoHits        uint64
	memoMisses      uint64
	memoBytes       uint64
	lat             hist.Hist
	tenants         map[string]*tenantCell
}

// tenantCell is one tenant's per-shard slice.
type tenantCell struct {
	completed uint64
	errors    uint64
	lat       hist.Hist
}

// record folds one completed instance into the shard.
func (sh *shard) record(r *engine.Result, latency time.Duration, tenant string) {
	sh.mu.Lock()
	sh.completed++
	if r.Err != nil {
		sh.errors++
	}
	sh.work += uint64(r.Work)
	sh.wasted += uint64(r.WastedWork)
	sh.launched += uint64(r.Launched)
	sh.synth += uint64(r.SynthesisRuns)
	sh.failures += uint64(r.Failures)
	sh.memoHits += uint64(r.StepMemoHits)
	sh.memoMisses += uint64(r.StepMemoMisses)
	sh.memoBytes += uint64(r.StepMemoBytes)
	sh.lat.Observe(latency)
	if tenant != "" {
		cell := sh.tenants[tenant]
		if cell == nil {
			if sh.tenants == nil {
				sh.tenants = make(map[string]*tenantCell)
			}
			cell = &tenantCell{}
			sh.tenants[tenant] = cell
		}
		cell.completed++
		if r.Err != nil {
			cell.errors++
		}
		cell.lat.Observe(latency)
	}
	sh.mu.Unlock()
}

// recordShadow folds one completed shadow instance into the shard: a bare
// completion/error/launch tally, no latency sample, no tenant attribution —
// the whole point of the Shadow flag is that this work is invisible to the
// serving metrics. Its launches count because its queries reach the
// database like any other's.
func (sh *shard) recordShadow(r *engine.Result) {
	sh.mu.Lock()
	sh.shadowCompleted++
	if r.Err != nil {
		sh.shadowErrors++
	}
	sh.shadowLaunched += uint64(r.Launched)
	sh.mu.Unlock()
}

// Stats merges all shards into an aggregate snapshot.
func (s *Service) Stats() Stats {
	st := Stats{Submitted: s.submitted.Load(), Scheduled: s.scheduled.Load(), ShadowSubmitted: s.shadowSubmitted.Load()}
	d := s.disp
	st.BackendQueries = d.backendQueries.Load()
	st.Batches = d.batches.Load()
	st.DedupHits = d.dedupHits.Load()
	st.CacheHits = d.cacheHits.Load()
	st.CacheMisses = d.cacheMisses.Load()
	st.CacheEvictions = d.cacheEvictions.Load()
	st.CutSize, st.CutWindow, st.CutQuiescent = d.cutSize.Load(), d.cutWindow.Load(), d.cutQuiescent.Load()
	st.AdmissionParked = d.parked.Load()
	st.PeerForwards = d.peerForwards.Load()
	st.PeerFallbacks = d.peerFallbacks.Load()
	st.PeerServed = d.peerServed.Load()
	if s.cluster != nil {
		c := s.cluster.ClusterStats()
		st.Cluster = &c
		st.Hedges = c.Hedges
		st.HedgeWins = c.HedgeWins
		st.Retries = c.Retries
		st.Timeouts = c.Timeouts
		st.BreakerTrips = c.BreakerTrips
		st.FailedQueries = c.Failed
	}
	var lat hist.Snapshot
	type tenantAgg struct {
		completed, errors uint64
		lat               hist.Snapshot
	}
	var tenants map[string]*tenantAgg
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Completed += sh.completed
		st.Errors += sh.errors
		st.ShadowCompleted += sh.shadowCompleted
		st.ShadowErrors += sh.shadowErrors
		st.ShadowLaunched += sh.shadowLaunched
		st.Work += sh.work
		st.WastedWork += sh.wasted
		st.Launched += sh.launched
		st.SynthesisRuns += sh.synth
		st.Failures += sh.failures
		st.StepMemoHits += sh.memoHits
		st.StepMemoMisses += sh.memoMisses
		st.StepMemoBytes += sh.memoBytes
		sh.lat.AddTo(&lat)
		for name, cell := range sh.tenants {
			if tenants == nil {
				tenants = make(map[string]*tenantAgg)
			}
			agg := tenants[name]
			if agg == nil {
				agg = &tenantAgg{}
				tenants[name] = agg
			}
			agg.completed += cell.completed
			agg.errors += cell.errors
			cell.lat.AddTo(&agg.lat)
		}
		sh.mu.Unlock()
	}
	if tenants != nil {
		st.Tenants = make(map[string]TenantStats, len(tenants))
		for name, agg := range tenants {
			ts := TenantStats{Completed: agg.completed, Errors: agg.errors}
			ts.P50, ts.P95, ts.P99, ts.Max, ts.AvgLatency = agg.lat.Summary()
			st.Tenants[name] = ts
		}
	}
	st.P50, st.P95, st.P99, st.Max, st.AvgLatency = lat.Summary()
	// Derived where the dispatcher does not count per launch (see above).
	if !d.shares() {
		st.BackendQueries = st.Launched + st.ShadowLaunched
	}
	if d.cfg.BatchSize <= 1 {
		st.Batches, st.CutSize = st.BackendQueries, st.BackendQueries
	}
	return st
}

// ResetStats zeroes the aggregate metrics (latency histograms included);
// the load driver scopes each run this way.
func (s *Service) ResetStats() {
	s.submitted.Store(0)
	s.shadowSubmitted.Store(0)
	s.scheduled.Store(0)
	d := s.disp
	d.backendQueries.Store(0)
	d.batches.Store(0)
	d.dedupHits.Store(0)
	d.cacheHits.Store(0)
	d.cacheMisses.Store(0)
	d.cacheEvictions.Store(0)
	d.cutSize.Store(0)
	d.cutWindow.Store(0)
	d.cutQuiescent.Store(0)
	d.parked.Store(0)
	d.peerForwards.Store(0)
	d.peerFallbacks.Store(0)
	d.peerServed.Store(0)
	if s.cluster != nil {
		s.cluster.ResetStats()
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.completed, sh.errors = 0, 0
		sh.shadowCompleted, sh.shadowErrors, sh.shadowLaunched = 0, 0, 0
		sh.work, sh.wasted, sh.launched, sh.synth, sh.failures = 0, 0, 0, 0, 0
		sh.memoHits, sh.memoMisses = 0, 0
		sh.lat = hist.Hist{} // no Observe races this: records hold sh.mu
		sh.tenants = nil
		sh.mu.Unlock()
	}
}
