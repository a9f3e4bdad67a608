// Package engine implements the decision flow execution module of the
// paper's §3: the three-phase loop (evaluation → prequalifying →
// scheduling) over per-instance candidate pools, parameterized by the §4
// optimization strategies, with Work and response-time accounting.
//
// The engine runs in virtual time on a discrete-event simulator. Tasks are
// submitted to an abstract DB (the unbounded database for the
// units-of-processing experiments, the simulated CPU/disk server for the
// bounded-resource experiments); completions re-enter the loop as events.
// Everything is deterministic given the schema and DB seed.
package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simdb"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// DB abstracts the external database server: Submit starts a query of the
// given cost in units of processing and invokes done at its (virtual-time)
// completion. Implementations: simdb.Unbounded, simdb.Server.
type DB interface {
	Submit(cost int, done func())
}

// Result reports one completed decision flow instance.
type Result struct {
	// Snapshot is the final execution snapshot (targets stable unless Err).
	Snapshot *snapshot.Snapshot
	// Strategy that produced the run.
	Strategy Strategy
	// Elapsed is the virtual time from instance start to terminal snapshot.
	// Against the unbounded DB this is the paper's TimeInUnits; against the
	// simulated server it is TimeInSeconds (in milliseconds).
	Elapsed float64
	// Work is the total units of processing launched on behalf of the
	// instance, including speculative work later discarded — the paper's
	// Work metric.
	Work int
	// WastedWork is the subset of Work spent on tasks whose attribute was
	// DISABLED by the time they completed (discarded results) or that were
	// still in flight when the instance terminated.
	WastedWork int
	// Launched is the number of foreign tasks submitted to the DB.
	Launched int
	// SynthesisRuns is the number of synthesis tasks executed locally.
	SynthesisRuns int
	// Failures is the number of foreign tasks that completed but delivered
	// ⟂ due to injected failures (Engine.FailureProb).
	Failures int
	// StepMemoHits and StepMemoMisses count the instance's control steps
	// replayed from its step table and run on the plain path (memo.go);
	// StepMemoBytes is what its misses added to the table. They describe
	// how the engine executed, not what: every other field is the same
	// either way.
	StepMemoHits, StepMemoMisses, StepMemoBytes int
	// Err is non-nil if the instance could not reach a terminal snapshot
	// (which indicates a malformed schema or an engine bug — tests assert
	// it never happens).
	Err error
}

// Hooks are optional observation points for tracing and instrumentation.
// All fields may be nil; callbacks run synchronously inside the engine at
// the event's virtual time.
type Hooks struct {
	// OnTransition fires for every attribute state change.
	OnTransition func(t float64, id core.AttrID, from, to snapshot.State)
	// OnLaunch fires when a foreign task is submitted; speculative marks
	// launches made while the enabling condition was undetermined.
	OnLaunch func(t float64, id core.AttrID, cost int, speculative bool)
	// OnComplete fires when a foreign task's result arrives; discarded
	// marks results thrown away (attribute disabled meanwhile).
	OnComplete func(t float64, id core.AttrID, discarded bool)
	// OnSynthesis fires when a synthesis task executes locally.
	OnSynthesis func(t float64, id core.AttrID)
	// OnTerminal fires once, when the instance reaches a terminal snapshot
	// (or gets stuck).
	OnTerminal func(t float64)
}

// Engine executes decision flow instances over a shared simulator and DB.
type Engine struct {
	// Sim is the virtual clock shared with the DB.
	Sim *sim.Sim
	// DB is the default external database tasks are submitted to.
	DB DB
	// DBs optionally maps database names to additional servers; tasks
	// declared with a DB name route there (multi-database execution, the
	// paper's §6 extension). Tasks with an empty DB name use DB.
	DBs map[string]DB
	// Strategy selects the optimization options.
	Strategy Strategy
	// ClusterSameDB batches tasks launched at the same scheduling instant
	// against the same database into a single combined query (summed
	// cost), amortizing the database's per-query overhead — the query
	// clustering the paper raises as future work (§6). The combined query
	// returns all results at once, so clustering trades per-result latency
	// for overhead savings.
	ClusterSameDB bool
	// FailureProb injects foreign-task failures: with this probability a
	// completed query returns ⟂ instead of its computed value (the paper's
	// "a decision may have to be made with incomplete information, e.g.,
	// if a database is down", §2). The attribute still stabilizes — with
	// value ⟂ — and downstream tasks run on the incomplete inputs; the
	// query's cost still counts as Work. Failures are drawn from
	// FailureSeed, so runs reproduce.
	FailureProb float64
	// FailureSeed seeds the failure draws (used when FailureProb > 0).
	FailureSeed int64
	// Hooks optionally observes execution events (tracing).
	Hooks Hooks

	failRNG *rand.Rand
}

// failNext reports whether the next completing query should fail.
func (e *Engine) failNext() bool {
	if e.FailureProb <= 0 {
		return false
	}
	if e.failRNG == nil {
		e.failRNG = rand.New(rand.NewSource(e.FailureSeed))
	}
	return e.failRNG.Float64() < e.FailureProb
}

// dbFor resolves the database an attribute's task targets; ok is false for
// an unknown name.
func (e *Engine) dbFor(name string) (DB, bool) {
	if name == "" {
		return e.DB, e.DB != nil
	}
	db, ok := e.DBs[name]
	return db, ok
}

// instance is one running decision flow: the shared clock-agnostic Core
// loop driven by virtual-time task completions.
type instance struct {
	e      *Engine
	core   Core
	start  sim.Time
	done   bool
	res    *Result
	onDone func(*Result)
}

// Start begins executing an instance of the schema with the given source
// values at the current virtual time. onDone is invoked (as a simulation
// event) when the instance reaches a terminal snapshot or gets stuck.
// The returned Result pointer is the same one passed to onDone; it is fully
// populated only after onDone fires.
func (e *Engine) Start(s *core.Schema, sources map[string]value.Value, onDone func(*Result)) *Result {
	inst := &instance{
		e:      e,
		start:  e.Sim.Now(),
		onDone: onDone,
	}
	var obs snapshot.Observer
	if e.Hooks.OnTransition != nil {
		hook := e.Hooks.OnTransition
		sm := e.Sim
		obs = func(id core.AttrID, from, to snapshot.State) {
			hook(sm.Now(), id, from, to)
		}
	}
	inst.core.Reset(s, sources, e.Strategy, nil, obs)
	inst.res = inst.core.Result()
	if e.Hooks.OnSynthesis != nil {
		hook := e.Hooks.OnSynthesis
		inst.core.OnSynthesis = func(id core.AttrID) { hook(e.Sim.Now(), id) }
	}
	inst.step()
	return inst.res
}

// Run executes a single instance to completion on a private simulator with
// an unbounded DB — the convenience entry point for the infinite-resource
// experiments and for library users who just want a decision. The Elapsed
// of the result is the paper's TimeInUnits.
func Run(s *core.Schema, sources map[string]value.Value, strategy Strategy) *Result {
	sm := sim.New()
	e := &Engine{Sim: sm, DB: &simdb.Unbounded{S: sm}, Strategy: strategy}
	res := e.Start(s, sources, nil)
	sm.Run()
	return res
}

// step advances the core loop and submits the launches it selects.
func (in *instance) step() {
	if in.done {
		return
	}
	launches, status := in.core.Advance()
	switch status {
	case StatusDone:
		in.finish(nil)
		return
	case StatusStuck:
		in.finish(fmt.Errorf("engine: instance stuck; no candidates, nothing in flight:\n%s", in.core.Snapshot()))
		return
	}
	if len(launches) == 0 {
		return // waiting on in-flight completions
	}
	if in.e.ClusterSameDB {
		in.launchClustered(launches)
	} else {
		for _, id := range launches {
			if !in.launch(id) {
				return
			}
		}
	}
	// Launching never stabilizes anything by itself; wait for events.
}

// bookLaunch resolves the task's database and records launch accounting;
// it reports false when the database is unknown (the instance fails).
func (in *instance) bookLaunch(id core.AttrID) (DB, bool) {
	a := in.core.schema.Attr(id)
	db, ok := in.e.dbFor(a.Task.DB)
	if !ok {
		in.finish(fmt.Errorf("engine: attribute %q targets unknown database %q", a.Name, a.Task.DB))
		return nil, false
	}
	cost, speculative := in.core.Book(id)
	if in.e.Hooks.OnLaunch != nil {
		in.e.Hooks.OnLaunch(in.e.Sim.Now(), id, cost, speculative)
	}
	return db, true
}

// launch submits one foreign task to its database.
func (in *instance) launch(id core.AttrID) bool {
	db, ok := in.bookLaunch(id)
	if !ok {
		return false
	}
	db.Submit(in.core.schema.Cost(id), func() { in.complete(id) })
	return true
}

// launchClustered groups the selected tasks by target database and submits
// one combined query per group; every member's result arrives when the
// batch completes.
func (in *instance) launchClustered(selected []core.AttrID) {
	type group struct {
		db    DB
		ids   []core.AttrID
		total int
	}
	var groups []*group
	byName := map[string]*group{}
	for _, id := range selected {
		db, ok := in.bookLaunch(id)
		if !ok {
			return
		}
		name := in.core.schema.Attr(id).Task.DB
		g := byName[name]
		if g == nil {
			g = &group{db: db}
			byName[name] = g
			groups = append(groups, g)
		}
		g.ids = append(g.ids, id)
		g.total += in.core.schema.Cost(id)
	}
	for _, g := range groups {
		ids := g.ids
		g.db.Submit(g.total, func() {
			for _, id := range ids {
				in.complete(id)
			}
		})
	}
}

// complete is the evaluation phase for one finished task.
func (in *instance) complete(id core.AttrID) {
	if in.done {
		return // instance already terminated; work was counted at launch
	}
	discarded := in.core.Discarded(id)
	if in.e.Hooks.OnComplete != nil {
		in.e.Hooks.OnComplete(in.e.Sim.Now(), id, discarded)
	}
	// The failure draw is only consumed for results that actually arrive
	// (not discarded ones), preserving the seeded draw order.
	in.core.Complete(id, !discarded && in.e.failNext())
	in.step()
}

// finish seals the result and notifies the caller.
func (in *instance) finish(err error) {
	if in.done {
		return
	}
	in.done = true
	in.core.Abort() // seals in-flight waste; no-op if the core already sealed
	in.res.Elapsed = in.e.Sim.Now() - in.start
	in.res.Err = err
	if in.e.Hooks.OnTerminal != nil {
		in.e.Hooks.OnTerminal(in.e.Sim.Now())
	}
	if in.onDone != nil {
		in.onDone(in.res)
	}
}
