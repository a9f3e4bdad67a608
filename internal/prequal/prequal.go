// Package prequal implements the prequalifier of the decision flow
// execution architecture (paper §3–§4): the component that maintains, for a
// running flow instance, the set of candidate attributes that are ready to
// be evaluated.
//
// Its centerpiece is the paper's Propagation Algorithm, which performs
//
//   - eager evaluation of enabling conditions: conditions are re-evaluated
//     under three-valued logic each time an input stabilizes, so an
//     attribute can become ENABLED or DISABLED before all attributes in its
//     condition are stable (one false conjunct suffices);
//
//   - forward propagation: a newly DISABLED attribute is stable with value
//     ⟂, which can decide downstream conditions and readiness in turn,
//     cascading through the schema; and
//
//   - backward propagation: starting from the targets, the algorithm
//     derives which attributes are still *needed* for successful
//     completion; attributes needed by no target path are removed from the
//     candidate pool so no work is wasted on them.
//
// The algorithm is incremental — each call processes newly stabilized
// attributes via a worklist — and its cost per invocation is linear in the
// size of the decision flow (attributes + edges), regardless of execution
// order, matching the paper's complexity claim.
//
// Execution is compiled: conditions run as the schema's flat programs
// (core.CondProgram) over the snapshot's dense value/known slots instead of
// tree-walking expr.Eval3 over a string-keyed environment. A completion
// dirties exactly the attributes whose dependency bitsets contain it
// (core.EnablingDependentsSet); each dirtied condition re-executes once per
// propagation round however many of its inputs stabilized. Backward
// propagation is incremental too: within one instance the needed set only
// ever shrinks (stability and decided conditions are monotone), so each
// attribute carries a count of what still supports it,
// the events that withdraw support decrement it, and a count reaching zero
// cascades upstream — O(edges) per instance in total. The candidate pool is
// a bitset updated at the same events, so reading it costs its size. The
// tree-walking evaluator remains the reference semantics and the fallback
// for conditions the compiler cannot handle.
package prequal

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// Options selects the prequalifier variants compared in the paper's
// experiments.
type Options struct {
	// Propagate enables the Propagation Algorithm (option 'P'): eager
	// condition evaluation plus forward/backward propagation of unneeded
	// attributes. When false (option 'N', "Naive"), conditions are evaluated
	// only when all their inputs are stable and no unneeded-detection is
	// performed.
	Propagate bool
	// Speculative admits READY attributes (condition still undetermined)
	// into the candidate pool (option 'S'); when false (option 'C',
	// "Conservative") only READY+ENABLED attributes are admitted.
	Speculative bool
}

// Prequalifier tracks candidate eligibility for one flow instance.
// It owns all snapshot state transitions except the recording of computed
// task values (the engine's job via NoteResult).
type Prequalifier struct {
	s    *core.Schema
	sn   *snapshot.Snapshot
	opts Options

	// known is the snapshot's dense stability mask (snapshot.Slots).
	known []bool
	// mach is the reusable evaluation stack for compiled programs.
	mach expr.Machine

	// cond[a] caches the decided truth of a's enabling condition; Unknown
	// until decided. Once True/False it never changes (stability of Eval3).
	cond []expr.Truth
	// unstableIn[a] counts a's data inputs that are not yet stable.
	unstableIn []int
	// stable mirrors the snapshot's stable set as a bitset, letting the
	// naive ('N') readiness rule check a condition's full dependency bitset
	// with a few word operations.
	stable core.AttrSet
	// dirty collects the attributes whose enabling condition must be
	// re-evaluated this propagation round: the union of the
	// EnablingDependentsSet bitsets of everything that stabilized. An
	// attribute dirtied by several completions re-executes its program once.
	dirty core.AttrSet
	// needed holds the attributes whose value may still be required to
	// complete the instance (backward propagation). It starts as the
	// schema's InitialNeeded and only shrinks. Unused without the 'P' option,
	// where every attribute counts as needed.
	//
	// Invariant, restored before every return to the caller: b is needed iff
	// it is unstable and support[b] > 0, where support[b] is 1 if b is a
	// target, plus the needed data dependents of b, plus the enabling
	// dependents c of b with holdsCond[c] — c needed and its condition
	// undecided. (A data dependent that went COMPUTED will not execute
	// again, but it was READY first, so its data inputs are all stable and
	// past needing.)
	needed    core.AttrSet
	holdsCond core.AttrSet
	support   []int32
	// pool is the candidate pool: unlaunched, needed, non-source attributes
	// that are READY+ENABLED (or READY, under 'S').
	pool core.AttrSet
	// launched[a] marks attributes whose task the engine has started (or
	// executed); they are no longer candidates.
	launched []bool
	// queue is the forward worklist of newly stabilized attributes.
	queue []core.AttrID

	// OnCond, if non-nil, observes every condition execution and its
	// outcome, in order with the snapshot's transitions.
	OnCond func(b core.AttrID, t expr.Truth)
}

// New creates a prequalifier over the given snapshot and runs the initial
// propagation pass (sources are stable from the start; constant conditions
// decide immediately).
func New(sn *snapshot.Snapshot, opts Options) *Prequalifier {
	p := &Prequalifier{}
	p.Reset(sn, opts)
	return p
}

// Reset reinitializes the prequalifier over a (possibly different) snapshot
// and option set, reusing its internal storage when large enough, and runs
// the initial propagation pass. The wall-clock runtime pools prequalifiers
// through Reset to keep its hot path allocation-free. sn may be part way
// through an instance: the pass derives the propagation state from its
// states alone, and the caller then marks what is in flight launched. The
// engine's step memo rebuilds a prequalifier that way after a miss.
//
// The pass starts from the schema's compiled prologue (core.Build): the
// unstable-input counts and needed/support tables of a fresh instance are
// copied, and only the ResetDecidable conditions are executed — plus those
// reading an attribute that is already stable without being a source, or
// that an earlier condition of this same pass disabled. Every skipped
// condition would evaluate Unknown without side effects, so the resulting
// state and the sequence of snapshot transitions are those of executing
// every condition in ID order.
func (p *Prequalifier) Reset(sn *snapshot.Snapshot, opts Options) {
	p.bind(sn, opts)
	p.prologue()
}

// bind points the prequalifier at sn and sizes its storage, starting the
// needed set, condition holds and support counts from the schema's tables.
func (p *Prequalifier) bind(sn *snapshot.Snapshot, opts Options) {
	s := sn.Schema()
	n := s.NumAttrs()
	p.s, p.sn, p.opts = s, sn, opts
	_, p.known = sn.Slots()
	if cap(p.cond) < n {
		p.cond = make([]expr.Truth, n)
		p.unstableIn = make([]int, n)
		p.support = make([]int32, n)
		p.launched = make([]bool, n)
	} else {
		p.cond = p.cond[:n]
		p.unstableIn = p.unstableIn[:n]
		p.support = p.support[:n]
		p.launched = p.launched[:n]
		clear(p.launched)
	}
	words := (n + 63) / 64
	if cap(p.stable) < words {
		p.stable = core.NewAttrSet(n)
		p.dirty = core.NewAttrSet(n)
		p.pool = core.NewAttrSet(n)
		p.needed = core.NewAttrSet(n)
		p.holdsCond = core.NewAttrSet(n)
	} else {
		p.stable = p.stable[:words]
		p.dirty = p.dirty[:words]
		p.pool = p.pool[:words]
		p.needed = p.needed[:words]
		p.holdsCond = p.holdsCond[:words]
		p.stable.Clear()
		p.pool.Clear()
	}
	if opts.Propagate {
		// No non-source condition is decided yet, so every initially needed
		// attribute holds its enabling inputs.
		copy(p.needed, s.InitialNeeded())
		copy(p.holdsCond, s.InitialNeeded())
		copy(p.support, s.InitialSupport())
	} else {
		p.needed.Clear()
		p.holdsCond.Clear()
	}
	p.queue = p.queue[:0]
}

// prologue is Reset's initial propagation pass over the bound snapshot.
func (p *Prequalifier) prologue() {
	s := p.s
	copy(p.unstableIn, s.InitialUnstable())
	for _, id := range s.Sources() {
		p.stable.Add(id)
	}
	// dirty serves the pass as the set of conditions to execute; drain
	// leaves it empty again for the rounds after. Sources are reflected in unstableIn and in the snapshot
	// slots, so they need no worklist entries of their own.
	copy(p.dirty, s.ResetDecidable())
	for i, k := range p.known {
		id := core.AttrID(i)
		p.cond[i] = expr.Unknown
		if !k {
			continue
		}
		if p.stable.Has(id) {
			p.cond[i] = expr.True // a source
			continue
		}
		// Stable before the instance started: stabilize it now, before the
		// pass, so the pass sees it like a source.
		p.stable.Add(id)
		p.unneed(id)
		for _, b := range s.DataDependents(id) {
			p.unstableIn[b]--
		}
		p.dirty.Or(s.EnablingDependentsSet(id))
	}
	// Initial pass: decide what a fresh instance can decide and establish
	// readiness, in ID order. A condition disabled here is stable with ⟂ for
	// the conditions after it, so their execution is no longer a foregone
	// Unknown; the ones before it see it in drain, as they always did.
	for i := range p.cond {
		id := core.AttrID(i)
		if p.dirty.Has(id) {
			p.tryDecide(id)
			if p.cond[i] == expr.False {
				p.dirty.Or(s.EnablingDependentsSet(id))
			}
		}
		p.tryReady(id)
	}
	p.dirty.Clear()
	p.drain()
}

// Snapshot returns the snapshot the prequalifier operates on.
func (p *Prequalifier) Snapshot() *snapshot.Snapshot { return p.sn }

// Options returns the configured variant flags.
func (p *Prequalifier) Options() Options { return p.opts }

// CondTruth returns the decided truth of the attribute's enabling
// condition, or Unknown.
func (p *Prequalifier) CondTruth(id core.AttrID) expr.Truth { return p.cond[id] }

// Needed reports whether the attribute is currently considered needed for
// successful completion. With the 'N' option this is always true.
func (p *Prequalifier) Needed(id core.AttrID) bool {
	return !p.opts.Propagate || p.needed.Has(id)
}

// MarkLaunched records that the engine has started (or completed) the
// attribute's task, removing it from the candidate pool.
func (p *Prequalifier) MarkLaunched(id core.AttrID) {
	p.launched[id] = true
	p.pool.Remove(id)
}

// Launched reports whether MarkLaunched was called for the attribute.
func (p *Prequalifier) Launched(id core.AttrID) bool { return p.launched[id] }

// NoteResult records the completion of the attribute's task with value v
// and propagates the consequences. The outcome depends on the attribute's
// current state:
//
//   - READY+ENABLED: the value is final (→ VALUE, stable);
//   - READY: the value is speculative (→ COMPUTED); the attribute
//     stabilizes later when its condition decides;
//   - DISABLED (condition resolved false while the task was in flight):
//     the result is discarded — the work was wasted, which is exactly the
//     speculation cost the experiments measure.
func (p *Prequalifier) NoteResult(id core.AttrID, v value.Value) {
	switch p.sn.State(id) {
	case snapshot.ReadyEnabled:
		if err := p.sn.SetValue(id, v); err != nil {
			panic(err)
		}
		p.enqueue(id)
	case snapshot.Ready:
		if err := p.sn.SetComputed(id, v); err != nil {
			panic(err)
		}
		// Not stable yet; nothing to propagate. If the condition later
		// resolves true the cached value stabilizes via tryDecide.
		p.pool.Remove(id)
	case snapshot.Disabled:
		// Discard. Already propagated when it was disabled.
	default:
		panic("prequal: NoteResult in unexpected state " + p.sn.State(id).String())
	}
	p.drain()
}

// Candidates returns the current candidate pool in ascending ID order:
// attributes whose task could be started now under the configured options,
// excluding launched ones. With 'P', unneeded attributes are excluded.
func (p *Prequalifier) Candidates() []core.AttrID {
	return p.AppendCandidates(nil)
}

// AppendCandidates appends the current candidate pool to dst (in ascending
// ID order) and returns the extended slice — the allocation-free variant
// of Candidates for callers that reuse a scratch buffer.
func (p *Prequalifier) AppendCandidates(dst []core.AttrID) []core.AttrID {
	for wi, w := range p.pool {
		for w != 0 {
			dst = append(dst, core.AttrID(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// FirstCandidateIn returns the lowest-ID member of the candidate pool that
// is also in set — how the engine takes its next inline synthesis task
// without materializing the pool.
func (p *Prequalifier) FirstCandidateIn(set core.AttrSet) (core.AttrID, bool) {
	for wi, w := range p.pool {
		if w &= set[wi]; w != 0 {
			return core.AttrID(wi<<6 + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// --- propagation internals ---

// enqueue records that id just stabilized: it joins the forward worklist
// and the stable bitset, and leaves the pool and the needed set.
func (p *Prequalifier) enqueue(id core.AttrID) {
	p.stable.Add(id)
	p.queue = append(p.queue, id)
	p.pool.Remove(id)
	p.unneed(id)
}

// drain runs the forward propagation to a fixpoint. Each round first
// processes the worklist of newly stabilized attributes — decrementing
// data-dependent readiness counts and OR-ing enabling-dependent bitsets
// into the dirty set — then re-executes each dirty condition program
// exactly once. Conditions deciding False stabilize attributes in turn,
// refilling the worklist for the next round. Total cost is linear in
// attributes + edges touched; conditions re-execute once per round however
// many of their inputs stabilized in it. The queue is indexed rather than
// re-sliced so its storage is reused across calls.
func (p *Prequalifier) drain() {
	for len(p.queue) > 0 {
		for i := 0; i < len(p.queue); i++ {
			id := p.queue[i]
			for _, b := range p.s.DataDependents(id) {
				p.unstableIn[b]--
				p.tryReady(b)
			}
			p.dirty.Or(p.s.EnablingDependentsSet(id))
		}
		p.queue = p.queue[:0]
		// Decide the dirtied conditions. tryDecide may enqueue (newly
		// DISABLED or finalized attributes), starting another round; bits
		// set while scanning word wi land in later words or the next round.
		for wi := range p.dirty {
			w := p.dirty[wi]
			if w == 0 {
				continue
			}
			p.dirty[wi] = 0
			for w != 0 {
				b := core.AttrID(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
				p.tryDecide(b)
			}
		}
	}
}

// tryReady promotes b to READY/READY+ENABLED when all data inputs are
// stable, admitting it to the pool when the options allow.
func (p *Prequalifier) tryReady(b core.AttrID) {
	if p.unstableIn[b] > 0 || p.known[b] {
		return
	}
	st := p.sn.State(b)
	if st == snapshot.Computed { // already has a value; readiness moot
		return
	}
	switch p.cond[b] {
	case expr.True:
		if st != snapshot.ReadyEnabled {
			p.sn.MustTransition(b, snapshot.ReadyEnabled)
		}
		p.admit(b)
	default:
		if st != snapshot.Ready {
			p.sn.MustTransition(b, snapshot.Ready)
		}
		if p.opts.Speculative {
			p.admit(b)
		}
	}
}

// admit adds b, which the caller has found in an eligible state, to the
// pool unless it is launched or unneeded. Needed only shrinks, so a later
// withdrawal removes it again and a refusal here is final.
func (p *Prequalifier) admit(b core.AttrID) {
	if !p.launched[b] && p.Needed(b) {
		p.pool.Add(b)
	}
}

// tryDecide attempts eager evaluation of b's enabling condition, executing
// the schema's compiled program over the snapshot's dense slots (the
// tree-walker is the fallback for uncompilable conditions). Without the
// 'P' option, the naive rule applies instead: the condition is only
// evaluated once every attribute it references is stable — a bitset
// containment test against b's dependency set.
func (p *Prequalifier) tryDecide(b core.AttrID) {
	if p.cond[b] != expr.Unknown || p.known[b] {
		return
	}
	if !p.opts.Propagate && !p.stable.ContainsAll(p.s.EnablingDeps(b)) {
		return
	}
	t := EvalCond(&p.mach, p.sn, b)
	if p.OnCond != nil {
		p.OnCond(b, t)
	}
	if t == expr.Unknown {
		return
	}
	p.cond[b] = t
	if t == expr.False {
		// Forward propagation: the attribute is DISABLED and thereby
		// *stable* with ⟂ — enqueue so dependents learn immediately.
		p.sn.MustTransition(b, snapshot.Disabled)
		p.enqueue(b)
		return
	}
	// Condition true: its inputs have served their purpose for b.
	p.dropCond(b)
	switch p.sn.State(b) {
	case snapshot.Computed:
		// A speculative value was waiting on this decision: it is final.
		p.sn.MustTransition(b, snapshot.Value)
		p.enqueue(b)
	case snapshot.Ready:
		p.sn.MustTransition(b, snapshot.ReadyEnabled)
		p.admit(b)
	case snapshot.Uninitialized:
		p.sn.MustTransition(b, snapshot.Enabled)
	}
}

// EvalCond executes b's enabling condition over sn: its compiled program
// over the dense slots, or the tree-walker when it has none.
func EvalCond(m *expr.Machine, sn *snapshot.Snapshot, b core.AttrID) expr.Truth {
	if prog := sn.Schema().CondProgram(b); prog != nil {
		vals, known := sn.Slots()
		return prog.Eval3(m, vals, known)
	}
	return expr.Eval3(sn.Schema().Attr(b).Enabling, sn.Env())
}

// unneed removes b from the needed set — it stabilized, or the last thing
// supporting it went away — and withdraws the support b itself gave.
func (p *Prequalifier) unneed(b core.AttrID) {
	if !p.needed.Has(b) {
		return
	}
	p.needed.Remove(b)
	p.pool.Remove(b)
	for _, in := range p.s.DataInputs(b) {
		p.release(in)
	}
	p.dropCond(b)
}

// dropCond ends b's hold on the attributes its condition reads: b is no
// longer needed, or the condition is decided.
func (p *Prequalifier) dropCond(b core.AttrID) {
	if !p.holdsCond.Has(b) {
		return
	}
	p.holdsCond.Remove(b)
	for _, in := range p.s.EnablingInputs(b) {
		p.release(in)
	}
}

// release takes one unit of support from in, cascading upstream when it was
// the last. Every edge is released at most once per instance.
func (p *Prequalifier) release(in core.AttrID) {
	p.support[in]--
	if p.support[in] == 0 {
		p.unneed(in)
	}
}
