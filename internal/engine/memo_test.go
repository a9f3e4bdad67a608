package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/prequal"
	"repro/internal/randschema"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// The step memo's differential oracle: a Core replaying its step table and
// a Core on the plain path (Core.plain) are driven through the same
// instance, call by call, and must agree after every call — snapshot
// states and values, every return value and the Result, and on observed
// instances the observer and OnSynthesis event sequence. The tabled
// Core's current state must be the plain Core's, and the prequalifier a
// miss would rebuild there must be the plain Core's live one.

// memoEvent is one observer or OnSynthesis event.
type memoEvent struct {
	id       core.AttrID
	from, to snapshot.State
	synth    bool
}

// twin is one Core with its event log and the step counts of its earlier
// instances.
type twin struct {
	c            Core
	events       []memoEvent
	hits, misses int
}

// reset starts an instance, observed when observe is set (an observed
// instance runs the plain path, so its events must be the plain core's).
func (w *twin) reset(s *core.Schema, sources map[string]value.Value, st Strategy, observe bool) {
	if r := w.c.Result(); r != nil {
		w.hits += r.StepMemoHits
		w.misses += r.StepMemoMisses
	}
	w.events = w.events[:0]
	if !observe {
		w.c.Reset(s, sources, st, nil, nil)
		return
	}
	w.c.Reset(s, sources, st, nil, func(id core.AttrID, from, to snapshot.State) {
		w.events = append(w.events, memoEvent{id: id, from: from, to: to})
	})
	w.c.OnSynthesis = func(id core.AttrID) { w.events = append(w.events, memoEvent{id: id, synth: true}) }
}

// lockstep drives one instance through tab and plain, completing launches
// in a random order, failing each with probability failP and aborting
// before each completion with probability abortP.
func lockstep(t testing.TB, tab, plain *twin, s *core.Schema, sources map[string]value.Value, st Strategy, rng *rand.Rand, failP, abortP float64) {
	t.Helper()
	where := func(call string) string { return fmt.Sprintf("%s %s after %s", s.Name(), st, call) }
	observe := rng.Intn(8) == 0
	tab.reset(s, sources, st, observe)
	plain.reset(s, sources, st, observe)
	memoAgree(t, tab, plain, st, where("Reset"))
	var out []core.AttrID
	for {
		l1, st1 := tab.c.Advance()
		l2, st2 := plain.c.Advance()
		if st1 != st2 || !slices.Equal(l1, l2) {
			t.Fatalf("%s: tabled %v %v, plain %v %v", where("Advance"), l1, st1, l2, st2)
		}
		memoAgree(t, tab, plain, st, where("Advance"))
		if st1 != StatusRunning {
			return
		}
		for _, id := range l1 {
			c1, s1 := tab.c.Book(id)
			c2, s2 := plain.c.Book(id)
			if c1 != c2 || s1 != s2 {
				t.Fatalf("%s: tabled %d %v, plain %d %v", where("Book"), c1, s1, c2, s2)
			}
			memoAgree(t, tab, plain, st, where(fmt.Sprintf("Book(%d)", id)))
			out = append(out, id)
		}
		if rng.Float64() < abortP {
			tab.c.Abort()
			plain.c.Abort()
			memoAgree(t, tab, plain, st, where("Abort"))
			return
		}
		i := rng.Intn(len(out))
		id := out[i]
		out = slices.Delete(out, i, i+1)
		failed := rng.Float64() < failP
		if d1, d2 := tab.c.Complete(id, failed), plain.c.Complete(id, failed); d1 != d2 {
			t.Fatalf("%s: discarded %v vs %v", where("Complete"), d1, d2)
		}
		memoAgree(t, tab, plain, st, where(fmt.Sprintf("Complete(%d, %v)", id, failed)))
	}
}

// memoAgree fails unless the two cores are indistinguishable.
func memoAgree(t testing.TB, tab, plain *twin, st Strategy, where string) {
	t.Helper()
	a, b := tab.c.Snapshot(), plain.c.Snapshot()
	for i := 0; i < a.Schema().NumAttrs(); i++ {
		id := core.AttrID(i)
		if a.State(id) != b.State(id) || !value.Identical(a.Val(id), b.Val(id)) {
			t.Fatalf("%s: attribute %s is %v %v tabled, %v %v plain", where,
				a.Schema().Attr(id).Name, a.State(id), a.Val(id), b.State(id), b.Val(id))
		}
	}
	if a.Terminal() != b.Terminal() {
		t.Fatalf("%s: terminal %v tabled, %v plain", where, a.Terminal(), b.Terminal())
	}
	if !slices.Equal(tab.events, plain.events) {
		t.Fatalf("%s: events differ\ntabled %v\nplain  %v", where, tab.events, plain.events)
	}
	r1, r2 := *tab.c.Result(), *plain.c.Result()
	r1.Snapshot, r2.Snapshot = nil, nil
	r1.StepMemoHits, r1.StepMemoMisses, r1.StepMemoBytes = 0, 0, 0
	r2.StepMemoHits, r2.StepMemoMisses, r2.StepMemoBytes = 0, 0, 0
	if r1 != r2 || tab.c.Done() != plain.c.Done() || len(tab.c.inFlight) != len(plain.c.inFlight) {
		t.Fatalf("%s: result %+v done=%v tabled, %+v done=%v plain", where, r1, tab.c.Done(), r2, plain.c.Done())
	}
	if tab.c.Done() {
		return
	}
	if cur := tab.c.cur; cur != nil && tab.c.unbooked == 0 {
		tab.c.tab.mu.Lock()
		want := tab.c.tab.byKey[stateKey(&plain.c)]
		tab.c.tab.mu.Unlock()
		if cur != want && cur != &tab.c.tab.root {
			t.Fatalf("%s: the current state is not the plain core's", where)
		}
	}
	// What a miss here would rebuild must be the plain path's live
	// prequalifier: same pool, needed set and decided conditions.
	var q prequal.Prequalifier
	q.Reset(a.Clone(), st.prequalOptions())
	for _, id := range tab.c.inFlight {
		q.MarkLaunched(id)
	}
	p := plain.c.pq
	if !slices.Equal(q.Candidates(), p.Candidates()) {
		t.Fatalf("%s: rebuilt pool %v, plain %v", where, q.Candidates(), p.Candidates())
	}
	for i := 0; i < a.Schema().NumAttrs(); i++ {
		id := core.AttrID(i)
		if q.Needed(id) != p.Needed(id) || !a.Stable(id) && q.CondTruth(id) != p.CondTruth(id) {
			t.Fatalf("%s: %s rebuilt needed=%v cond=%v, plain needed=%v cond=%v", where, a.Schema().Attr(id).Name,
				q.Needed(id), q.CondTruth(id), p.Needed(id), p.CondTruth(id))
		}
	}
}

// stateKey is the interning key of c's control state (Core.learn).
func stateKey(c *Core) string {
	n := c.schema.NumAttrs()
	key := make([]byte, n+(n+7)/8)
	for i := range n {
		key[i] = byte(c.sn.State(core.AttrID(i)))
	}
	for _, id := range c.inFlight {
		key[n+int(id)/8] |= 1 << (id % 8)
	}
	return string(key)
}

func newTwins() (*twin, *twin) {
	plain := &twin{}
	plain.c.plain = true
	return &twin{}, plain
}

var memoStrategies = Strategies("PSE100", "PCE0", "PCE40", "PCE80", "PCE100", "PSE40", "PSE80", "PSC50", "NSE100", "NCE0", "NCC100", "PCC70")

// TestStepMemoMatchesPlainPath runs the oracle over the Table 1 pattern, a
// quickstart-shaped flow and 250 random flows, each under random
// strategies, completion orders, failures and aborts.
func TestStepMemoMatchesPlainPath(t *testing.T) {
	tab, plain := newTwins()
	rng := rand.New(rand.NewSource(1))
	g := gen.Generate(gen.Default())
	for i := 0; i < 64; i++ {
		st := memoStrategies[i%len(memoStrategies)]
		lockstep(t, tab, plain, g.Schema, g.SourceValues(), st, rng, 0.05, 0.02)
	}
	t.Logf("pattern: %d steps replayed, %d plain", tab.hits, tab.misses)
	if tab.hits == 0 {
		t.Fatal("the pattern never replayed a step")
	}
	for seed := int64(0); seed < 250; seed++ {
		srng := rand.New(rand.NewSource(seed))
		s := randschema.Generate(srng, randschema.Defaults())
		st := memoStrategies[srng.Intn(len(memoStrategies))]
		for i := 0; i < 6; i++ {
			lockstep(t, tab, plain, s, randschema.RandomSources(srng, s), st, srng, 0.1, 0.05)
		}
	}
	t.Logf("all: %d steps replayed, %d plain", tab.hits, tab.misses)
}

// TestStepMemoUndo makes a replay leave its recorded path after a
// speculative value was finalized: spec completes speculatively, then f's
// completion decides spec's condition (COMPUTED → VALUE) and, in the same
// step, g's condition, whose outcome depends on the source x. The second
// instance diverges there, so the step is undone and rerun on the plain
// path, which must finalize spec with its speculative value intact.
func TestStepMemoUndo(t *testing.T) {
	s := core.NewBuilder("undo").
		Source("x").
		Foreign("f", expr.TrueExpr, nil, 2, core.ConstCompute(value.Int(1))).
		Foreign("spec", expr.MustParse("f > 0"), nil, 1, core.ConstCompute(value.Int(5))).
		Foreign("g", expr.MustParse("spec > x"), []string{"spec"}, 1, core.ConstCompute(value.Int(9))).
		Target("g").
		MustBuild()
	st := MustParseStrategy("PSE100")
	tab, plain := newTwins()
	for _, x := range []int64{0, 0, 0, 100, 100} {
		tab.reset(s, map[string]value.Value{"x": value.Int(x)}, st, false)
		plain.reset(s, map[string]value.Value{"x": value.Int(x)}, st, false)
		var queue []core.AttrID
		for {
			l1, st1 := tab.c.Advance()
			l2, st2 := plain.c.Advance()
			if st1 != st2 || !slices.Equal(l1, l2) {
				t.Fatalf("x=%d: Advance %v %v tabled, %v %v plain", x, l1, st1, l2, st2)
			}
			memoAgree(t, tab, plain, st, "Advance")
			if st1 != StatusRunning {
				break
			}
			for _, id := range l1 {
				tab.c.Book(id)
				plain.c.Book(id)
				queue = append(queue, id)
			}
			tab.c.Complete(queue[0], false)
			plain.c.Complete(queue[0], false)
			memoAgree(t, tab, plain, st, "Complete")
			queue = queue[1:]
		}
		if got := tab.c.Snapshot().Val(s.MustLookup("spec").ID()); !value.Identical(got, value.Int(5)) {
			t.Fatalf("x=%d: spec = %v, want 5", x, got)
		}
	}
	if tab.misses == 0 || tab.hits == 0 {
		t.Fatalf("hits/misses = %d/%d: the table was not exercised", tab.hits, tab.misses)
	}
}

// TestStepMemoConcurrent shares one table between instances on several
// goroutines (run it under -race -cpu 1,2,4).
func TestStepMemoConcurrent(t *testing.T) {
	g := gen.Generate(gen.Default())
	s := randschema.Generate(rand.New(rand.NewSource(7)), randschema.Defaults())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, plain := newTwins()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				st := memoStrategies[i%3]
				lockstep(t, tab, plain, g.Schema, g.SourceValues(), st, rng, 0.02, 0.01)
				lockstep(t, tab, plain, s, randschema.RandomSources(rng, s), st, rng, 0.1, 0.05)
			}
		}()
	}
	wg.Wait()
}

// FuzzStepMemo draws a random flow, strategy, completion order and failure
// and abort rates, and runs a dozen instances of it through the oracle.
func FuzzStepMemo(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(10), uint8(5))
	}
	f.Fuzz(func(t *testing.T, seed int64, strategy, failPct, abortPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := randschema.Generate(rng, randschema.Defaults())
		st := memoStrategies[int(strategy)%len(memoStrategies)]
		tab, plain := newTwins()
		for i := 0; i < 12; i++ {
			lockstep(t, tab, plain, s, randschema.RandomSources(rng, s), st, rng, float64(failPct%101)/100, float64(abortPct%101)/100)
		}
	})
}
