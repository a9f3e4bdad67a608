package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// The deterministic chaos suite: replicas of a live cluster are killed,
// stalled and degraded mid-run, and every instance must still agree with
// the declarative oracle — i.e. the results are identical to a healthy
// single backend, because the cluster's retries, deadlines, hedges and
// breakers mask the faults before the engine ever sees them. Alongside
// the oracle invariant, fleet accounting must stay exactly conserved and
// the query layer's launch-exact billing identity must hold. Faults are
// drawn from fixed seeds and injected at fixed submission counts, so runs
// reproduce; the assertions are interleaving-independent, so the suite is
// sound under -race and arbitrary scheduling. `make chaos` runs it
// standalone over the seed matrix.

// chaos replica modes.
const (
	chHealthy  int32 = iota
	chKilled         // new queries error immediately; in-flight ones error now
	chStalled        // new queries never complete
	chDegraded       // new queries take slow× the normal latency
)

// chaosReplica is a fault-injectable backend double. A round trip's
// latency is base + cost×perUnit (cost summed over its members) with
// seeded jitter, and its outcome is shared by every member; Set flips the fault mode
// mid-run, erroring everything in flight when killing — exactly what a
// crashed server does to its open connections.
type chaosReplica struct {
	base    time.Duration
	perUnit time.Duration
	slow    float64

	mu      sync.Mutex
	mode    int32
	rng     *rand.Rand
	pending map[int]func(error)
	nextID  int
}

func newChaosReplica(base, perUnit time.Duration, slow float64, seed int64) *chaosReplica {
	return &chaosReplica{
		base: base, perUnit: perUnit, slow: slow,
		rng:     rand.New(rand.NewSource(seed)),
		pending: make(map[int]func(error)),
	}
}

// Set flips the replica's fault mode. Killing errors every in-flight
// query immediately.
func (c *chaosReplica) Set(mode int32) {
	c.mu.Lock()
	c.mode = mode
	var interrupted []func(error)
	if mode == chKilled {
		for id, done := range c.pending {
			interrupted = append(interrupted, done)
			delete(c.pending, id)
		}
	}
	c.mu.Unlock()
	for _, done := range interrupted {
		done(ErrInjected)
	}
}

func (c *chaosReplica) Exec(qs []Query, each func(int, error)) {
	cost := 0
	for _, q := range qs {
		cost += q.Cost
	}
	n := len(qs)
	done := func(err error) {
		for i := range n {
			each(i, err)
		}
	}
	c.mu.Lock()
	switch c.mode {
	case chKilled:
		c.mu.Unlock()
		done(ErrInjected)
		return
	case chStalled:
		id := c.nextID
		c.nextID++
		c.pending[id] = done // held forever (or until a kill errors it)
		c.mu.Unlock()
		return
	}
	d := c.base + time.Duration(cost)*c.perUnit
	d = time.Duration(float64(d) * (0.8 + 0.4*c.rng.Float64()))
	if c.mode == chDegraded {
		d = time.Duration(float64(d) * c.slow)
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = done
	c.mu.Unlock()
	time.AfterFunc(d, func() { c.complete(id, nil) })
}

func (c *chaosReplica) complete(id int, err error) {
	c.mu.Lock()
	done := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if done != nil {
		done(err) // nil when a kill already errored this query
	}
}

// chaosScenario is one fault-injection experiment.
type chaosScenario struct {
	name     string
	shards   int
	replicas int
	cluster  ClusterConfig // resilience knobs (topology/New filled in)
	query    QueryConfig
	// inject flips fault modes on the replica grid; called once when a
	// third of the instances have been submitted.
	inject func(reps [][]*chaosReplica)
	// masked scenarios expect zero surfaced failures and full oracle
	// agreement; unmasked ones (every replica dead) expect completion
	// without hangs, with failures surfaced as ⟂ values.
	masked bool
	// check runs scenario-specific stat assertions.
	check func(t *testing.T, st Stats)
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			// BreakAfter 2: dedup+batching collapse the fleet's queries, so
			// the killed replica sees few (all-failing) attempts; the trip
			// threshold must sit below that attempt count for the breaker
			// assertion to be deterministic.
			name: "kill-replica", shards: 4, replicas: 2, masked: true,
			cluster: ClusterConfig{Retries: 3, BreakAfter: 2},
			query:   QueryConfig{BatchSize: 4, BatchWindow: 50 * time.Microsecond, Dedup: true},
			inject:  func(reps [][]*chaosReplica) { reps[0][0].Set(chKilled) },
			check: func(t *testing.T, st Stats) {
				if st.Retries == 0 {
					t.Error("kill scenario drove no retries")
				}
				if st.BreakerTrips == 0 {
					t.Error("killed replica never tripped its breaker")
				}
			},
		},
		{
			name: "stall-replica", shards: 2, replicas: 2, masked: true,
			cluster: ClusterConfig{Retries: 3, Deadline: 25 * time.Millisecond},
			query:   QueryConfig{Dedup: true},
			inject:  func(reps [][]*chaosReplica) { reps[1][1].Set(chStalled) },
			check: func(t *testing.T, st Stats) {
				if st.Timeouts == 0 {
					t.Error("stalled replica produced no deadline timeouts")
				}
			},
		},
		{
			name: "degrade-replica-hedged", shards: 4, replicas: 2, masked: true,
			cluster: ClusterConfig{Retries: 2, HedgeDelay: 3 * time.Millisecond},
			inject:  func(reps [][]*chaosReplica) { reps[2][0].Set(chDegraded) },
			check: func(t *testing.T, st Stats) {
				if st.Hedges == 0 {
					t.Error("degraded replica triggered no hedges")
				}
			},
		},
		{
			name: "kill-shard-to-last-replica", shards: 3, replicas: 3, masked: true,
			cluster: ClusterConfig{Retries: 4},
			query:   QueryConfig{BatchSize: 4, BatchWindow: 50 * time.Microsecond, Dedup: true, CacheSize: 512},
			inject: func(reps [][]*chaosReplica) {
				reps[1][0].Set(chKilled)
				reps[1][2].Set(chKilled)
			},
			check: func(t *testing.T, st Stats) {
				if st.Retries == 0 {
					t.Error("shard kill drove no retries")
				}
			},
		},
		{
			name: "kill-everything", shards: 2, replicas: 2, masked: false,
			cluster: ClusterConfig{Retries: 1, BreakCooldown: 5 * time.Millisecond},
			inject: func(reps [][]*chaosReplica) {
				for _, row := range reps {
					for _, rep := range row {
						rep.Set(chKilled)
					}
				}
			},
			check: func(t *testing.T, st Stats) {
				if st.FailedQueries == 0 {
					t.Error("total outage surfaced no failed queries")
				}
				if st.Failures == 0 {
					t.Error("total outage produced no instance-level task failures")
				}
			},
		},
	}
}

// TestChaosClusterFaultInjection runs every scenario over the seed matrix.
func TestChaosClusterFaultInjection(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range chaosScenarios() {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				runChaosScenario(t, sc, seed)
			})
		}
	}
}

// runChaosScenario drives one fleet through one fault experiment.
func runChaosScenario(t *testing.T, sc chaosScenario, seed int64) {
	const n = 400
	qs, base := quickstart(t)

	// Spread instances over distinct source vectors so dedup/cache can't
	// collapse the whole fleet into one backend query — faults must be
	// hit, not hidden; precompute each variant's oracle. Instances
	// submitted after the injection draw from a second, untouched set of
	// variants: a fast service can have answered and cached every
	// pre-injection variant by then, and a fault nothing reaches proves
	// nothing.
	const variants = 32
	rng := rand.New(rand.NewSource(seed))
	sources := make([]map[string]value.Value, 2*variants)
	oracles := make([]*snapshot.Snapshot, 2*variants)
	for v := range sources {
		m := make(map[string]value.Value, len(base))
		for name, val := range base {
			if iv, ok := val.AsInt(); ok {
				m[name] = value.Int(iv + int64(rng.Intn(10000)))
			} else {
				m[name] = val
			}
		}
		sources[v] = m
		oracles[v] = snapshot.Complete(qs, m)
	}

	reps := make([][]*chaosReplica, sc.shards)
	for s := range reps {
		reps[s] = make([]*chaosReplica, sc.replicas)
		for r := range reps[s] {
			reps[s][r] = newChaosReplica(200*time.Microsecond, 20*time.Microsecond, 40, seed+int64(s*16+r))
		}
	}
	ccfg := sc.cluster
	ccfg.Shards, ccfg.Replicas = sc.shards, sc.replicas
	ccfg.New = func(s, r int) Backend { return reps[s][r] }
	cl := NewCluster(ccfg)
	svc := New(Config{
		Backend:          cl,
		Workers:          4,
		MaxInFlightTasks: 1024,
		Query:            sc.query,
	})
	defer svc.Close()

	strategies := engine.Strategies("PSE100", "PCE0", "NCC0", "PSC40", "NSE60")
	var (
		wg         sync.WaitGroup
		completed  atomic.Int64
		instErrs   atomic.Int64
		oracleErrs atomic.Int64
		failures   atomic.Int64
		sumWork    atomic.Int64
		sumWasted  atomic.Int64
		sumLaunch  atomic.Int64
		sumSynth   atomic.Int64
		firstErr   atomic.Value
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		if i == n/3 {
			sc.inject(reps)
		}
		v := i % variants
		if i >= n/3 {
			v += variants
		}
		oracle := oracles[v]
		err := svc.Submit(Request{
			Schema:   qs,
			Sources:  sources[v],
			Strategy: strategies[i%len(strategies)],
			Done: func(r *engine.Result) {
				defer wg.Done()
				completed.Add(1)
				failures.Add(int64(r.Failures))
				if r.Err != nil {
					instErrs.Add(1)
					firstErr.CompareAndSwap(nil, r.Err.Error())
					return
				}
				if sc.masked {
					if err := snapshot.CheckAgainstOracle(r.Snapshot, oracle); err != nil {
						oracleErrs.Add(1)
						firstErr.CompareAndSwap(nil, "oracle: "+err.Error())
						return
					}
				}
				sumWork.Add(int64(r.Work))
				sumWasted.Add(int64(r.WastedWork))
				sumLaunch.Add(int64(r.Launched))
				sumSynth.Add(int64(r.SynthesisRuns))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A hung fleet is the one failure retries can't express: guard it.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatalf("fleet hung: %d/%d instances completed (queue depth %d)",
			completed.Load(), n, svc.QueueDepth())
	}

	if got := completed.Load(); got != n {
		t.Fatalf("completed %d of %d", got, n)
	}
	if e := instErrs.Load(); e != 0 {
		t.Fatalf("%d instances errored; first: %v", e, firstErr.Load())
	}
	st := svc.Stats()
	if sc.masked {
		// The oracle invariant: with a healthy replica reachable, results
		// are identical to a healthy single backend — zero divergences,
		// zero surfaced failures.
		if e := oracleErrs.Load(); e != 0 {
			t.Fatalf("%d oracle divergences under faults; first: %v", e, firstErr.Load())
		}
		if failures.Load() != 0 || st.FailedQueries != 0 {
			t.Fatalf("faults leaked through the cluster: %d task failures, %d failed queries (first: %v)",
				failures.Load(), st.FailedQueries, firstErr.Load())
		}
		// Work conservation (only meaningful when every instance summed).
		if st.Work != uint64(sumWork.Load()) {
			t.Errorf("aggregate Work %d != per-instance sum %d", st.Work, sumWork.Load())
		}
		if st.WastedWork != uint64(sumWasted.Load()) {
			t.Errorf("aggregate WastedWork %d != per-instance sum %d", st.WastedWork, sumWasted.Load())
		}
		if st.Launched != uint64(sumLaunch.Load()) {
			t.Errorf("aggregate Launched %d != per-instance sum %d", st.Launched, sumLaunch.Load())
		}
		if st.SynthesisRuns != uint64(sumSynth.Load()) {
			t.Errorf("aggregate SynthesisRuns %d != per-instance sum %d", st.SynthesisRuns, sumSynth.Load())
		}
	}
	if st.Completed != n {
		t.Fatalf("stats completed=%d, want %d", st.Completed, n)
	}
	// Launch-exact billing identity: retries, hedges and failovers all
	// happen below the query layer, so they must not disturb it.
	if sc.query.enabled() {
		if st.Launched != st.BackendQueries+st.DedupHits+st.CacheHits {
			t.Errorf("billing identity violated: launched=%d backend=%d dedup=%d cache=%d",
				st.Launched, st.BackendQueries, st.DedupHits, st.CacheHits)
		}
	}
	if sc.check != nil {
		sc.check(t, st)
	}
}

// TestChaosKilledReplicaRecovers kills a replica mid-run, heals it, and
// asserts traffic returns to it through the breaker's half-open probes —
// the full trip→cooldown→probe→close cycle under live load.
func TestChaosKilledReplicaRecovers(t *testing.T) {
	qs, sources := quickstart(t)
	oracle := snapshot.Complete(qs, sources)
	reps := [1][2]*chaosReplica{}
	for r := 0; r < 2; r++ {
		reps[0][r] = newChaosReplica(100*time.Microsecond, 10*time.Microsecond, 1, int64(r+1))
	}
	cl := NewCluster(ClusterConfig{
		Shards: 1, Replicas: 2, Retries: 2,
		BreakAfter: 3, BreakCooldown: 20 * time.Millisecond,
		New: func(s, r int) Backend { return reps[s][r] },
	})
	svc := New(Config{Backend: cl, Workers: 2, MaxInFlightTasks: 256})
	defer svc.Close()

	phase := func(count int) {
		var wg sync.WaitGroup
		var bad atomic.Int64
		wg.Add(count)
		for i := 0; i < count; i++ {
			err := svc.Submit(Request{
				Schema: qs, Sources: sources,
				Strategy: engine.MustParseStrategy("PSE100"),
				Done: func(r *engine.Result) {
					defer wg.Done()
					if r.Err != nil || snapshot.CheckAgainstOracle(r.Snapshot, oracle) != nil {
						bad.Add(1)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if bad.Load() != 0 {
			t.Fatalf("%d instances failed", bad.Load())
		}
	}

	phase(50) // warm, both replicas healthy
	reps[0][0].Set(chKilled)
	phase(100) // killed: breaker trips, replica 1 carries
	if st := cl.ClusterStats(); st.BreakerTrips == 0 {
		t.Fatal("breaker never tripped while replica was dead")
	}
	reps[0][0].Set(chHealthy)
	before := cl.ClusterStats().Replica[0][0].Queries
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(25 * time.Millisecond) // let a cooldown elapse
		phase(50)
		if cl.ClusterStats().Replica[0][0].Queries > before+5 {
			break // probes succeeded and real traffic returned
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed replica regained no traffic: %d -> %d queries",
				before, cl.ClusterStats().Replica[0][0].Queries)
		}
	}
}
