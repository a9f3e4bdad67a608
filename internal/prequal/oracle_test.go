package prequal_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/flows"
	"repro/internal/gen"
	"repro/internal/guideline"
	"repro/internal/prequal"
	"repro/internal/randschema"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// This file is the differential oracle for the incremental needed set and
// candidate pool: the full reverse-topological backward sweep and the linear
// eligibility scan the prequalifier used to run per pool read, kept here as
// the reference, recomputed from scratch over public state after every
// mutation and required to equal what the prequalifier maintained.

// sweepNeeded is backward propagation from scratch: in reverse topological
// order, an unstable attribute is needed iff it is a target, or it feeds (as
// data input) a needed attribute that may still execute its task, or it
// occurs in the undecided condition of a needed attribute. Without the 'P'
// option everything is needed.
func sweepNeeded(p *prequal.Prequalifier) []bool {
	sn := p.Snapshot()
	s := sn.Schema()
	needed := make([]bool, s.NumAttrs())
	if !p.Options().Propagate {
		for i := range needed {
			needed[i] = true
		}
		return needed
	}
	topo := s.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		b := topo[i]
		if sn.Stable(b) {
			continue // stable attributes require no further work
		}
		need := s.Attr(b).IsTarget
		for _, c := range s.DataDependents(b) {
			if needed[c] && mayExecute(sn, c) {
				need = true
			}
		}
		for _, c := range s.EnablingDependents(b) {
			if needed[c] && p.CondTruth(c) == expr.Unknown && !sn.Stable(c) {
				need = true
			}
		}
		needed[b] = need
	}
	return needed
}

// mayExecute reports whether c's task may still run (so its data inputs
// must stabilize): true unless c already has a value or is disabled.
func mayExecute(sn *snapshot.Snapshot, c core.AttrID) bool {
	switch sn.State(c) {
	case snapshot.Computed, snapshot.Value, snapshot.Disabled:
		return false
	default:
		return true
	}
}

// scanPool is the linear eligibility scan over every attribute.
func scanPool(p *prequal.Prequalifier, needed []bool) []core.AttrID {
	sn := p.Snapshot()
	s := sn.Schema()
	var pool []core.AttrID
	for i := 0; i < s.NumAttrs(); i++ {
		id := core.AttrID(i)
		if p.Launched(id) || s.Attr(id).IsSource() || !needed[id] {
			continue
		}
		switch sn.State(id) {
		case snapshot.ReadyEnabled:
			pool = append(pool, id)
		case snapshot.Ready:
			if p.Options().Speculative {
				pool = append(pool, id)
			}
		}
	}
	return pool
}

// checkOracle asserts the incremental needed set and pool equal the sweep.
func checkOracle(t *testing.T, p *prequal.Prequalifier, when string) {
	t.Helper()
	s := p.Snapshot().Schema()
	needed := sweepNeeded(p)
	for i, want := range needed {
		if got := p.Needed(core.AttrID(i)); got != want {
			t.Fatalf("%s: needed[%s] = %v, full sweep says %v\n%s",
				when, s.Attr(core.AttrID(i)).Name, got, want, p.Snapshot())
		}
	}
	if got, want := p.Candidates(), scanPool(p, needed); !slices.Equal(got, want) {
		t.Fatalf("%s: pool = %v, full scan says %v\n%s", when, got, want, p.Snapshot())
	}
}

// drive runs one instance through the prequalifier the way engine.Core
// does — the strategy's scheduler picks launches from the pool, completions
// arrive later in random order, some of them failed (⟂) — checking the
// oracle after the initial pass and after every MarkLaunched and NoteResult,
// past termination until the last straggler has landed.
func drive(t *testing.T, s *core.Schema, sources map[string]value.Value, st engine.Strategy, rng *rand.Rand) {
	t.Helper()
	sn := snapshot.New(s, sources)
	p := prequal.New(sn, prequal.Options{Propagate: st.Propagate, Speculative: st.Speculative})
	checkOracle(t, p, "after New")
	sch := sched.Scheduler{Heuristic: st.Heuristic, Permitted: st.Permitted}
	var inFlight []core.AttrID
	for {
		if !sn.Terminal() {
			for _, id := range sch.Select(s, p.Candidates(), len(inFlight)) {
				p.MarkLaunched(id)
				checkOracle(t, p, "after MarkLaunched "+s.Attr(id).Name)
				inFlight = append(inFlight, id)
			}
		}
		if len(inFlight) == 0 {
			if !sn.Terminal() {
				t.Fatalf("stuck: no candidates, nothing in flight:\n%s", sn)
			}
			return
		}
		i := rng.Intn(len(inFlight))
		id := inFlight[i]
		inFlight = slices.Delete(inFlight, i, i+1)
		v := value.Null
		if rng.Intn(8) != 0 && sn.State(id) != snapshot.Disabled {
			v = s.Attr(id).Task.Compute(sn.Inputs(id))
		}
		p.NoteResult(id, v)
		checkOracle(t, p, "after NoteResult "+s.Attr(id).Name)
	}
}

// strategies is guideline.DefaultStrategySet (all 'P') plus the naive
// prequalifier under both admission rules.
func strategies() []string {
	return append(slices.Clone(guideline.DefaultStrategySet), "NCE100", "NSE100")
}

func TestIncrementalMatchesFullSweep(t *testing.T) {
	type flow struct {
		name    string
		schema  *core.Schema
		sources map[string]value.Value
	}
	var fl []flow
	g := gen.Generate(gen.Default())
	fl = append(fl, flow{"pattern", g.Schema, g.SourceValues()})
	qs, qsrc := flows.Quickstart()
	fl = append(fl, flow{"quickstart", qs, qsrc})
	spread, err := flows.Spread(qsrc, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		fl = append(fl, flow{fmt.Sprintf("quickstart+%d", i), qs, spread(i)})
	}
	rng := rand.New(rand.NewSource(20001))
	for i := 0; i < 250; i++ {
		s := randschema.Generate(rng, randschema.Defaults())
		fl = append(fl, flow{fmt.Sprintf("rand%d", i), s, randschema.RandomSources(rng, s)})
	}
	for _, f := range fl {
		for _, code := range strategies() {
			st := engine.MustParseStrategy(code)
			t.Run(f.name+"/"+code, func(t *testing.T) {
				for order := int64(0); order < 3; order++ {
					drive(t, f.schema, f.sources, st, rand.New(rand.NewSource(order)))
				}
			})
		}
	}
}

// TestIncrementalHooks pins each place the prequalifier must touch the
// needed set or the pool with the smallest flow that exercises it, checked
// by the same oracle: remove the hook and the named case fails.
func TestIncrementalHooks(t *testing.T) {
	one := func(v int64) core.ComputeFunc { return core.ConstCompute(value.Int(v)) }
	// a is free; b reads src and waits on "a > 0"; tgt reads b.
	gated := func(av int64) *core.Schema {
		return core.NewBuilder("gated").
			Source("src").
			Foreign("a", expr.TrueExpr, nil, 2, one(av)).
			Foreign("b", expr.MustParse("a > 0"), []string{"src"}, 1, one(5)).
			Foreign("tgt", expr.TrueExpr, []string{"b"}, 1, one(3)).
			Target("tgt").
			MustBuild()
	}
	// e is read only by tgt's condition, x only by e's task: deciding the
	// condition must cascade two levels up.
	condChain := core.NewBuilder("condchain").
		Source("src").
		Foreign("x", expr.TrueExpr, nil, 1, one(1)).
		Foreign("e", expr.TrueExpr, []string{"x"}, 4, one(1)).
		Foreign("gate", expr.TrueExpr, nil, 1, one(1)).
		Foreign("tgt", expr.MustParse("gate > 0 or e > 0"), []string{"src"}, 1, one(9)).
		Target("tgt").
		MustBuild()

	cases := []struct {
		name   string
		schema *core.Schema
		opts   prequal.Options
		steps  func(p *prequal.Prequalifier, id func(string) core.AttrID)
	}{
		{"MarkLaunched leaves the pool", gated(1), prequal.Options{Propagate: true, Speculative: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.MarkLaunched(id("b"))
			}},
		{"decision admits a READY attribute under C", gated(1), prequal.Options{Propagate: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.MarkLaunched(id("a"))
				p.NoteResult(id("a"), value.Int(1)) // b: READY -> READY+ENABLED
			}},
		{"readiness admits under C and S", gated(1), prequal.Options{Propagate: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.MarkLaunched(id("a"))
				p.NoteResult(id("a"), value.Int(1))
				p.MarkLaunched(id("b"))
				p.NoteResult(id("b"), value.Int(5)) // tgt: -> READY+ENABLED
			}},
		{"COMPUTED without MarkLaunched leaves the pool", gated(1), prequal.Options{Propagate: true, Speculative: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.NoteResult(id("b"), value.Int(5))
			}},
		{"VALUE without MarkLaunched leaves the pool", gated(1), prequal.Options{Propagate: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.NoteResult(id("a"), value.Int(1))
			}},
		{"DISABLED leaves the pool", gated(-1), prequal.Options{Propagate: true, Speculative: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.MarkLaunched(id("a"))
				p.NoteResult(id("a"), value.Int(-1)) // b: READY -> DISABLED
			}},
		{"decided condition releases its inputs, cascading", condChain, prequal.Options{Propagate: true},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				if !p.Needed(id("x")) || !p.Needed(id("e")) {
					t.Fatal("x and e must start needed")
				}
				p.MarkLaunched(id("gate"))
				p.NoteResult(id("gate"), value.Int(1)) // condition true without e
				if p.Needed(id("e")) || p.Needed(id("x")) {
					t.Error("e and x must be unneeded once tgt's condition is decided")
				}
			}},
		{"naive prequalifier keeps everything needed", condChain, prequal.Options{},
			func(p *prequal.Prequalifier, id func(string) core.AttrID) {
				p.MarkLaunched(id("gate"))
				p.NoteResult(id("gate"), value.Int(1))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prequal.New(snapshot.New(tc.schema, map[string]value.Value{"src": value.Int(1)}), tc.opts)
			checkOracle(t, p, "after New")
			tc.steps(p, func(name string) core.AttrID { return tc.schema.MustLookup(name).ID() })
			checkOracle(t, p, "after steps")
		})
	}
}

// TestResetReusesStorageAcrossSchemas pools one prequalifier over flows of
// different sizes and options, as runtime.Service does.
func TestResetReusesStorageAcrossSchemas(t *testing.T) {
	g := gen.Generate(gen.Default())
	qs, qsrc := flows.Quickstart()
	p := prequal.New(snapshot.New(g.Schema, g.SourceValues()), prequal.Options{Propagate: true, Speculative: true})
	for i, f := range []struct {
		s    *core.Schema
		src  map[string]value.Value
		opts prequal.Options
	}{
		{qs, qsrc, prequal.Options{Propagate: true}},
		{g.Schema, g.SourceValues(), prequal.Options{}},
		{g.Schema, g.SourceValues(), prequal.Options{Propagate: true, Speculative: true}},
		{qs, qsrc, prequal.Options{Speculative: true}},
	} {
		p.Reset(snapshot.New(f.s, f.src), f.opts)
		checkOracle(t, p, fmt.Sprintf("after Reset %d", i))
		for _, id := range p.Candidates() {
			p.MarkLaunched(id)
			p.NoteResult(id, value.Int(1))
			checkOracle(t, p, fmt.Sprintf("reset %d after %s", i, f.s.Attr(id).Name))
		}
	}
}

// TestPreStabilizedSnapshot hands New a snapshot in which a non-source
// attribute is already stable: it must start out unneeded, and what only it
// needed with it.
func TestPreStabilizedSnapshot(t *testing.T) {
	one := core.ConstCompute(value.Int(1))
	s := core.NewBuilder("prestable").
		Source("src").
		Foreign("x", expr.TrueExpr, nil, 1, one).
		Foreign("e", expr.TrueExpr, []string{"x"}, 1, one).
		Foreign("tgt", expr.TrueExpr, []string{"src"}, 1, one).
		Target("tgt").
		Target("e").
		MustBuild()
	sn := snapshot.New(s, nil)
	sn.MustTransition(s.MustLookup("e").ID(), snapshot.Disabled)
	p := prequal.New(sn, prequal.Options{Propagate: true})
	checkOracle(t, p, "after New")
	if p.Needed(s.MustLookup("x").ID()) {
		t.Error("x feeds only the already-disabled e: unneeded")
	}
}

// referenceReset is the initial pass as the prequalifier first ran it, kept
// as the reference for the compiled prologue: every attribute counts its
// unstable data inputs, then every non-source condition executes once in ID
// order, with readiness checked after each.
func referenceReset(sn *snapshot.Snapshot, opts prequal.Options) *prequal.Prequalifier {
	s := sn.Schema()
	n := s.NumAttrs()
	p := &prequal.Prequalifier{}
	p.Bind(sn, opts)
	for i := 0; i < n; i++ {
		id := core.AttrID(i)
		p.SetCond(id, expr.Unknown)
		p.SetUnstableIn(id, 0)
		if sn.Stable(id) {
			p.MarkStable(id) // sources, plus any pre-stabilized attribute
			p.Unneed(id)
		}
		if s.Attr(id).IsSource() {
			p.SetCond(id, expr.True)
			continue
		}
		u := 0
		for _, in := range s.DataInputs(id) {
			if !sn.Stable(in) {
				u++
			}
		}
		p.SetUnstableIn(id, u)
	}
	for i := 0; i < n; i++ {
		id := core.AttrID(i)
		if s.Attr(id).IsSource() {
			continue
		}
		p.TryDecide(id)
		p.TryReady(id)
	}
	p.Drain()
	return p
}

type move struct {
	id       core.AttrID
	from, to snapshot.State
}

// prestabilize moves up to two random non-source attributes of sn to a
// stable state, the same way for the same rng state.
func prestabilize(sn *snapshot.Snapshot, rng *rand.Rand) {
	s := sn.Schema()
	var free []core.AttrID
	for i := 0; i < s.NumAttrs(); i++ {
		if !s.Attr(core.AttrID(i)).IsSource() {
			free = append(free, core.AttrID(i))
		}
	}
	for k := rng.Intn(3); k > 0 && len(free) > 0; k-- {
		j := rng.Intn(len(free))
		id := free[j]
		free = slices.Delete(free, j, j+1)
		if rng.Intn(2) == 0 {
			sn.MustTransition(id, snapshot.Disabled)
		} else if err := sn.SetValue(id, value.Int(int64(rng.Intn(5)-2))); err != nil {
			panic(err)
		}
	}
}

// observe installs an observer on sn that records every transition.
func observe(sn *snapshot.Snapshot) *[]move {
	var log []move
	sn.SetObserver(func(id core.AttrID, from, to snapshot.State) {
		log = append(log, move{id, from, to})
	})
	return &log
}

// TestResetMatchesReference runs the compiled prologue and the reference
// pass over identical snapshots — random source vectors, some ⟂, with zero
// to two attributes stable before the instance starts — and requires the
// same internal state, the same snapshot states and the same transition
// sequence; then the full sweep must agree with the result. One pooled
// prequalifier serves every case, as in the runtime.
func TestResetMatchesReference(t *testing.T) {
	type flow struct {
		name    string
		schema  *core.Schema
		sources func(*rand.Rand) map[string]value.Value
	}
	nullSome := func(base map[string]value.Value) func(*rand.Rand) map[string]value.Value {
		return func(rng *rand.Rand) map[string]value.Value {
			m := maps.Clone(base)
			for name := range m {
				if rng.Intn(4) == 0 {
					m[name] = value.Null
				}
			}
			return m
		}
	}
	g := gen.Generate(gen.Default())
	qs, qsrc := flows.Quickstart()
	spread, err := flows.Spread(qsrc, 8)
	if err != nil {
		t.Fatal(err)
	}
	fl := []flow{
		{"pattern", g.Schema, nullSome(g.SourceValues())},
		{"quickstart", qs, func(rng *rand.Rand) map[string]value.Value {
			return nullSome(spread(rng.Intn(8)))(rng)
		}},
	}
	rng := rand.New(rand.NewSource(20027))
	for i := 0; i < 250; i++ {
		s := randschema.Generate(rng, randschema.Defaults())
		fl = append(fl, flow{fmt.Sprintf("rand%d", i), s, func(rng *rand.Rand) map[string]value.Value {
			return randschema.RandomSources(rng, s)
		}})
	}
	pooled := &prequal.Prequalifier{}
	for _, f := range fl {
		for _, code := range strategies() {
			st := engine.MustParseStrategy(code)
			opts := prequal.Options{Propagate: st.Propagate, Speculative: st.Speculative}
			for trial := 0; trial < 4; trial++ {
				src := f.sources(rng)
				seed := rng.Int63()
				fresh := func() (*snapshot.Snapshot, *[]move) {
					sn := snapshot.New(f.schema, src)
					prestabilize(sn, rand.New(rand.NewSource(seed)))
					return sn, observe(sn)
				}
				wantSn, wantLog := fresh()
				ref := referenceReset(wantSn, opts)
				gotSn, gotLog := fresh()
				pooled.Reset(gotSn, opts)
				where := fmt.Sprintf("%s/%s/trial %d", f.name, code, trial)
				if !slices.Equal(*gotLog, *wantLog) {
					t.Fatalf("%s: transitions %v, reference %v", where, *gotLog, *wantLog)
				}
				if gotSn.String() != wantSn.String() {
					t.Fatalf("%s: snapshot\n%s\nreference\n%s", where, gotSn, wantSn)
				}
				got, want := pooled.Internals(), ref.Internals()
				if !opts.Propagate {
					got.Support, want.Support = nil, nil // unused, left stale
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: internals\n%+v\nreference\n%+v", where, got, want)
				}
				checkOracle(t, pooled, where+": after Reset")
			}
		}
	}
}
