package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/prequal"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// This file memoizes the control step. The §3 execution module and the §4
// Propagation Algorithm are a pure function of an instance's control state
// and of the outcomes of the conditions it executes, and the instances of
// one flow walk few control states. A stepTable, one per (schema,
// strategy), is that function built lazily, as RE2 builds its DFA: a state
// is an interned control state at a step boundary, and a transition, keyed
// by (state, input), holds the effects the plain path had, one variant per
// sequence of condition outcomes seen, each ending in the next state and
// the step's results. A replay still runs every condition program, value
// program and ComputeFunc, so values stay per instance and Work cannot
// change. An instance with an observer or OnSynthesis hook runs the plain
// path, so they see exactly its events.

// A table records from its second instance, so a schema run once pays one
// lookup. It stops recording for good at memoMaxBytes, or when after
// memoFloorMisses recorded steps it has replayed fewer; what it holds keeps
// replaying.
const (
	memoMaxBytes    = 4 << 20
	memoFloorMisses = 1 << 12
)

// Step inputs: the prologue, Complete(id, _), and Advance() with the Book
// of each launch it returns.
const (
	inPrologue uint64 = iota << 40
	inComplete
	inAdvance
)

// stepTable is the automaton of one (schema, strategy). Replays read it
// without locks; inserts hold mu and publish copies with atomic stores.
type stepTable struct {
	st           Strategy
	root         mstate // a fresh instance, before the prologue
	started, off atomic.Bool
	bytes        atomic.Int64

	mu           sync.Mutex
	byKey        map[string]*mstate
	misses, hits int64 // recorded steps; replayed ones, as recording cores report them
}

// mstate is a control state, interned by the snapshot's states and the
// in-flight set. The prequalifier's state is a function of these (the
// pool, needed set and support counts follow from the states; launched
// matters only in flight), so a miss rebuilds it from the snapshot.
type mstate struct{ edges atomic.Pointer[[]edge] }

type edge struct {
	in   uint64
	vars []*variant
}

// variant is one recorded run of a transition: its effects in order, the
// state reached (nil once terminal), and Advance's status and launches.
type variant struct {
	ops      []op
	next     *mstate
	status   Status
	launches []core.AttrID
}

// op is one effect: a condition's outcome t, a synthesis run, or a
// transition of id, which carries a task value when it ends in COMPUTED
// or, from anything but COMPUTED, in VALUE.
type op struct {
	id          core.AttrID
	cond, synth bool
	from, to    snapshot.State
	t           expr.Truth
}

type tableKey struct{ st Strategy }

// enter points the core at the table of (s, st) for a new instance. A
// table's first instance runs plain; the rest start at its root.
func (c *Core) enter(s *core.Schema, st Strategy) {
	if c.pq == nil {
		c.pq = new(prequal.Prequalifier)
	}
	if c.tab == nil || c.tab.st != st || c.schema != s {
		c.tab = s.Memo(tableKey{st}, func() any { return &stepTable{st: st} }).(*stepTable)
		c.hits = 0
	}
	c.cur, c.unbooked = nil, 0
	if !c.tab.started.Load() {
		c.tab.started.Store(true)
	} else if !c.plain {
		c.cur = &c.tab.root
	}
}

// replay runs input in from the current state when the table has it and
// returns the variant it followed. nullID is the attribute whose value
// update delivers ⟂ (a failed completion). On a miss it returns nil with
// the snapshot as the step found it and the prequalifier rebuilt for the
// plain path, which records the step when the table does.
func (c *Core) replay(in uint64, nullID core.AttrID) *variant {
	c.from, c.rec = c.cur, false
	if c.cur == nil {
		c.res.StepMemoMisses++
		return nil
	}
	var vars []*variant
	if es := c.cur.edges.Load(); es != nil && c.unbooked == 0 && c.obs == nil && c.OnSynthesis == nil {
		for _, e := range *es {
			if e.in == in {
				vars = e.vars
				break
			}
		}
	}
	if len(vars) == 0 {
		return c.miss(nil, 0)
	}
	v := vars[0]
	for i := 0; i < len(v.ops); i++ {
		if o := &v.ops[i]; !o.cond {
			c.apply(o, nullID)
		} else if t := prequal.EvalCond(&c.mach, c.sn, o.id); t != o.t {
			// A variant that took the same outcomes so far made the same
			// effects: follow one that continues with t.
			w := fork(vars, v, i, t)
			if w == nil {
				return c.miss(v.ops, i)
			}
			v = w
		}
	}
	c.res.StepMemoHits++
	c.hits++
	c.cur = v.next
	return v
}

// fork returns a variant that agrees with v on every condition outcome
// before position i and has outcome t there, or nil.
func fork(vars []*variant, v *variant, i int, t expr.Truth) *variant {
next:
	for _, w := range vars {
		if len(w.ops) <= i || !w.ops[i].cond || w.ops[i].t != t {
			continue
		}
		for j := range i {
			if w.ops[j].cond && w.ops[j].t != v.ops[j].t {
				continue next
			}
		}
		return w
	}
	return nil
}

// apply performs one recorded effect.
func (c *Core) apply(o *op, nullID core.AttrID) {
	if o.synth {
		c.res.SynthesisRuns++
		return
	}
	if o.to != snapshot.Computed && (o.to != snapshot.Value || o.from == snapshot.Computed) {
		c.sn.MustTransition(o.id, o.to)
		return
	}
	v := value.Null
	if o.id != nullID {
		v = c.compute(o.id)
	}
	var err error
	if o.to == snapshot.Value {
		err = c.sn.SetValue(o.id, v)
	} else {
		err = c.sn.SetComputed(o.id, v)
	}
	if err != nil {
		panic(err)
	}
}

// miss reverts the first n effects of a replay that found no variant,
// rebuilds the prequalifier and sets up the plain path.
func (c *Core) miss(ops []op, n int) *variant {
	for j := n - 1; j >= 0; j-- {
		// A COMPUTED value survives its move to VALUE. One disabled is
		// lost, but nothing reads a speculative value before the plain
		// path makes the same move again.
		switch o := &ops[j]; {
		case o.synth:
			c.res.SynthesisRuns--
		case !o.cond:
			v := value.Null
			if o.from == snapshot.Computed {
				v = c.sn.Val(o.id)
			}
			c.sn.Revert(o.id, o.from, v)
		}
	}
	c.res.StepMemoMisses++
	if c.cur != &c.tab.root { // the prologue's plain path resets it
		c.pq.Reset(c.sn, c.res.Strategy.prequalOptions())
		for _, id := range c.inFlight {
			c.pq.MarkLaunched(id)
		}
	}
	c.cur = nil
	if c.rec = c.obs == nil && c.OnSynthesis == nil && c.unbooked == 0 && !c.tab.off.Load(); c.rec {
		// Log the plain path's effects: the snapshot's transitions,
		// through its observer, and the prequalifier's conditions.
		if c.onMove == nil {
			c.onMove = func(id core.AttrID, from, to snapshot.State) { c.log = append(c.log, op{id: id, from: from, to: to}) }
			c.onCond = func(id core.AttrID, t expr.Truth) { c.log = append(c.log, op{id: id, cond: true, t: t}) }
		}
		c.log = c.log[:0]
		c.sn.SetObserver(c.onMove)
		c.pq.OnCond = c.onCond
	}
	return nil
}

// learn records the plain step of input in just taken, when it was
// recording, and moves to the state it reached: after Advance, the state
// once its launches are booked.
func (c *Core) learn(in uint64, status Status, launches []core.AttrID) {
	if !c.rec {
		return
	}
	c.rec = false
	c.sn.SetObserver(nil)
	c.pq.OnCond = nil
	v := &variant{ops: append([]op(nil), c.log...), status: status, launches: append([]core.AttrID(nil), launches...)}
	var key []byte
	if status == StatusRunning {
		// The snapshot's states, then the in-flight set as a bitset.
		n := c.schema.NumAttrs()
		key = make([]byte, n+(n+7)/8)
		for i := range n {
			key[i] = byte(c.sn.State(core.AttrID(i)))
		}
		for _, id := range append(c.inFlight[:len(c.inFlight):len(c.inFlight)], launches...) {
			key[n+int(id)/8] |= 1 << (id % 8)
		}
	}
	c.res.StepMemoBytes += c.tab.insert(c.from, in, v, key, c.hits)
	c.cur, c.hits = v.next, 0
}

// insert records v, a plain step from state from on input in that reached
// key (nil once terminal), with hits replayed steps since the core's last
// insert, and returns the bytes it added.
func (t *stepTable) insert(from *mstate, in uint64, v *variant, key []byte, hits int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.misses++
	t.hits += int64(hits)
	added := 64 + 16*len(v.ops) + 8*len(v.launches)
	if v.next = t.byKey[string(key)]; v.next == nil && key != nil {
		v.next = new(mstate)
		if t.byKey == nil {
			t.byKey = make(map[string]*mstate)
		}
		t.byKey[string(key)] = v.next
		added += 64 + len(key)
	}
	var es []edge
	if old := from.edges.Load(); old != nil {
		es = append(es, *old...)
	}
	i := 0
	for i < len(es) && es[i].in != in {
		i++
	}
	if i == len(es) {
		es = append(es, edge{in: in})
	}
	es[i].vars = append(es[i].vars[:len(es[i].vars):len(es[i].vars)], v)
	from.edges.Store(&es)
	added += 32 * len(es)
	if t.bytes.Add(int64(added)) > memoMaxBytes || t.misses >= memoFloorMisses && t.hits < t.misses {
		t.off.Store(true)
	}
	return added
}
