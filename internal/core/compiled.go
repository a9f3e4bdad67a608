package core

import (
	"math/bits"

	"repro/internal/expr"
	"repro/internal/value"
)

// This file implements schema compilation: at Build time every enabling
// condition (and every ExprCompute value expression) is compiled into a
// flat expr.Program over the schema's dense AttrID slots, and every
// attribute gets precomputed dependency bitsets over the enabling-flow
// graph. The prequalifier executes the programs against the snapshot's
// dense slot arrays and uses the bitsets to dirty exactly the conditions a
// completion can decide — no interface dispatch, no string lookups, no
// allocation on the serving hot path. The tree-walking evaluator remains
// the reference semantics; any condition the compiler cannot handle (e.g.
// a test-only Cmp3Adapter predicate) simply keeps a nil program and falls
// back to the walker.

// AttrSet is a bitset over a schema's AttrIDs. The underlying words are
// exported by the slice type so hot paths can iterate set bits without a
// callback; use Words (len(s)) and bit tricks, or ForEach for clarity.
type AttrSet []uint64

// NewAttrSet returns an empty set sized for n attributes.
func NewAttrSet(n int) AttrSet { return make(AttrSet, (n+63)/64) }

// Add inserts id into the set.
func (s AttrSet) Add(id AttrID) { s[id>>6] |= 1 << (uint(id) & 63) }

// Remove deletes id from the set.
func (s AttrSet) Remove(id AttrID) { s[id>>6] &^= 1 << (uint(id) & 63) }

// Has reports membership of id.
func (s AttrSet) Has(id AttrID) bool { return s[id>>6]&(1<<(uint(id)&63)) != 0 }

// Or unions o into s. Both sets must be sized for the same schema.
func (s AttrSet) Or(o AttrSet) {
	for i, w := range o {
		s[i] |= w
	}
}

// ContainsAll reports whether every member of o is in s.
func (s AttrSet) ContainsAll(o AttrSet) bool {
	for i, w := range o {
		if w&^s[i] != 0 {
			return false
		}
	}
	return true
}

// Clear empties the set in place.
func (s AttrSet) Clear() { clear(s) }

// Empty reports whether no bit is set.
func (s AttrSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (s AttrSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every member in ascending ID order.
func (s AttrSet) ForEach(f func(AttrID)) {
	for wi, w := range s {
		for w != 0 {
			f(AttrID(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// CondProgram returns the compiled program of a's enabling condition, or
// nil when the condition is absent (sources) or not compilable — callers
// then fall back to tree-walking expr.Eval3. Program slots are AttrIDs of
// this schema, matching snapshot.Slots.
func (s *Schema) CondProgram(a AttrID) *expr.Program { return s.condProgs[a] }

// ValueProgram returns the compiled program of a's synthesis value
// expression (Task.Expr), or nil when the task's value is computed by an
// opaque ComputeFunc. The program is evaluated over a total environment
// (nil known mask): every slot reads its current value, ⟂ when never set,
// exactly as core.Inputs exposes them to ComputeFuncs.
func (s *Schema) ValueProgram(a AttrID) *expr.Program { return s.valProgs[a] }

// EnablingDeps returns the set of attributes a's enabling condition reads —
// the attribute's dependency bitset. The set must not be modified.
func (s *Schema) EnablingDeps(a AttrID) AttrSet { return s.enabDepsOf[a] }

// EnablingDependentsSet returns the set of attributes whose enabling
// condition reads a — the transpose of EnablingDeps, which is what a
// completion of a dirties. The set must not be modified.
func (s *Schema) EnablingDependentsSet(a AttrID) AttrSet { return s.enabDepOn[a] }

// SynthesisSet returns the set of attributes computed by a synthesis task —
// the ones the engine executes inline rather than launching. The set must
// not be modified.
func (s *Schema) SynthesisSet() AttrSet { return s.synth }

// InitialNeeded returns the backward-propagation result for a fresh
// instance, before anything but the sources is stable: the non-source
// attributes reachable backwards from a target over data and enabling
// edges. Within one instance the needed set only ever shrinks from here, so
// the prequalifier starts from a copy instead of sweeping the schema per
// instance. The set must not be modified.
func (s *Schema) InitialNeeded() AttrSet { return s.needed0 }

// InitialSupport returns, per attribute, what keeps it in InitialNeeded: 1
// if it is a target, plus one per data edge and one per enabling edge into
// an InitialNeeded dependent. The slice must not be modified.
func (s *Schema) InitialSupport() []int32 { return s.support0 }

// InitialUnstable returns, per attribute, how many of its data inputs are
// unstable in a fresh instance: its non-source data inputs. The slice must
// not be modified.
func (s *Schema) InitialUnstable() []int { return s.unstable0 }

// ResetDecidable returns the enabling conditions a fresh instance may decide
// before anything but the sources is stable: those that read a source, have
// no compiled program, or fold to True or False over the sources alone.
// Every other condition evaluates Unknown until one of its inputs
// stabilizes, so the prequalifier's initial pass skips it. The set must not
// be modified.
func (s *Schema) ResetDecidable() AttrSet { return s.decide0 }

// Cost returns Attr(a).Cost() from a dense column.
func (s *Schema) Cost(a AttrID) int { return s.cost[a] }

// IsTarget reports Attr(a).IsTarget from a dense column.
func (s *Schema) IsTarget(a AttrID) bool { return s.target.Has(a) }

// compileBackward fills synth, needed0, support0, unstable0 and the dense
// cost and target columns. Dependents come later in topological order, so
// one reverse pass sees every dependent's verdict before it is counted.
func (s *Schema) compileBackward() {
	n := len(s.attrs)
	s.synth = NewAttrSet(n)
	s.needed0 = NewAttrSet(n)
	s.support0 = make([]int32, n)
	s.unstable0 = make([]int, n)
	s.cost = make([]int, n)
	s.target = NewAttrSet(n)
	for i := len(s.topo) - 1; i >= 0; i-- {
		b := s.topo[i]
		a := s.attrs[b]
		if a.Task != nil && a.Task.Kind == SynthesisTask {
			s.synth.Add(b)
		}
		s.cost[b] = a.Cost()
		if a.IsTarget {
			s.target.Add(b)
		}
		for _, in := range s.dataIn[b] {
			if !s.attrs[in].isSource {
				s.unstable0[b]++
			}
		}
		var sup int32
		if a.IsTarget {
			sup = 1
		}
		for _, c := range s.dataOut[b] {
			if s.needed0.Has(c) {
				sup++
			}
		}
		for _, c := range s.enabOut[b] {
			if s.needed0.Has(c) {
				sup++
			}
		}
		s.support0[b] = sup
		if sup > 0 && !a.isSource {
			s.needed0.Add(b)
		}
	}
}

// compilePrograms builds the compiled execution artifacts and decide0.
// Called once by finalize after validation succeeds, so name resolution
// cannot fail for enabling conditions (validation already resolved every
// reference).
func (s *Schema) compilePrograms() {
	n := len(s.attrs)
	s.condProgs = make([]*expr.Program, n)
	s.valProgs = make([]*expr.Program, n)
	s.enabDepsOf = make([]AttrSet, n)
	s.enabDepOn = make([]AttrSet, n)
	s.decide0 = NewAttrSet(n)
	resolve := func(name string) (int, bool) {
		id, ok := s.byName[name]
		return int(id), ok
	}
	// The slots of a fresh instance as far as the schema knows them: the
	// sources are known (their values vary per instance), nothing else is.
	vals := make([]value.Value, n)
	known := make([]bool, n)
	for _, id := range s.sources {
		known[id] = true
	}
	var m expr.Machine
	for i, a := range s.attrs {
		deps := NewAttrSet(n)
		readsSource := false
		for _, in := range s.enabIn[i] {
			deps.Add(in)
			readsSource = readsSource || known[in]
		}
		s.enabDepsOf[i] = deps
		outs := NewAttrSet(n)
		for _, b := range s.enabOut[i] {
			outs.Add(b)
		}
		s.enabDepOn[i] = outs
		if a.Enabling != nil {
			prog, err := expr.Compile(a.Enabling, resolve)
			if err == nil {
				s.condProgs[i] = prog
			}
			if err != nil || readsSource || prog.Eval3(&m, vals, known) != expr.Unknown {
				s.decide0.Add(AttrID(i))
			}
		}
		if a.Task != nil && a.Task.Expr != nil && a.Task.Compute != nil {
			if prog, err := expr.Compile(a.Task.Expr, resolve); err == nil {
				s.valProgs[i] = prog
			}
		}
	}
}
