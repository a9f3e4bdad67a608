// Package snapshot implements the execution-state model of decision flows:
// the seven-state attribute automaton of the paper's Figure 3, snapshots
// (state + value functions over attributes), the declarative
// complete-snapshot semantics of §2, and a checker that an execution is
// correct (compatible with the unique complete snapshot).
package snapshot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/value"
)

// State is the execution state of one attribute (Figure 3 of the paper).
type State uint8

const (
	// Uninitialized: nothing is known yet.
	Uninitialized State = iota
	// Enabled: the enabling condition is known true, but some data inputs
	// are still unstable.
	Enabled
	// Ready: all data inputs are stable, but the enabling condition is still
	// undetermined. A Ready attribute may be evaluated *speculatively*.
	Ready
	// ReadyEnabled (READY+ENABLED): inputs stable and condition true —
	// the attribute is eligible for (non-speculative) evaluation.
	ReadyEnabled
	// Computed: the value was produced speculatively while the enabling
	// condition is still undetermined.
	Computed
	// Value: terminal — the condition is true and the value is assigned.
	Value
	// Disabled: terminal — the condition is false; the value is ⟂.
	Disabled
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Uninitialized:
		return "UNINITIALIZED"
	case Enabled:
		return "ENABLED"
	case Ready:
		return "READY"
	case ReadyEnabled:
		return "READY+ENABLED"
	case Computed:
		return "COMPUTED"
	case Value:
		return "VALUE"
	case Disabled:
		return "DISABLED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Stable reports whether the state is terminal (VALUE or DISABLED).
// When an attribute is stable its value never changes again — the
// monotonicity property that underpins speculative execution.
func (s State) Stable() bool { return s == Value || s == Disabled }

// facts decomposes a state into its information content. A transition is
// legal iff it only adds information and stays consistent, which encodes
// the Figure 3 automaton plus its "combined event" shortcuts (e.g.
// UNINITIALIZED directly to READY+ENABLED when both facts arrive in one
// propagation pass).
type facts struct {
	ready    bool // all data inputs stable
	enabled  bool // condition determined true
	disabled bool // condition determined false
	computed bool // a value has been produced
}

func factsOf(s State) facts {
	switch s {
	case Uninitialized:
		return facts{}
	case Enabled:
		return facts{enabled: true}
	case Ready:
		return facts{ready: true}
	case ReadyEnabled:
		return facts{ready: true, enabled: true}
	case Computed:
		return facts{ready: true, computed: true}
	case Value:
		return facts{ready: true, enabled: true, computed: true}
	case Disabled:
		return facts{disabled: true}
	default:
		panic(fmt.Sprintf("snapshot: invalid state %d", s))
	}
}

// Allowed reports whether the automaton permits moving from state a to
// state b. Self-transitions are allowed (idempotent updates).
func Allowed(a, b State) bool {
	if a == b {
		return true
	}
	fa, fb := factsOf(a), factsOf(b)
	if fa.disabled {
		return false // DISABLED is terminal
	}
	if fa.enabled && fa.computed {
		return false // VALUE is terminal
	}
	if fb.disabled {
		// Disabling forgets readiness/computedness (the value is discarded)
		// but can never revoke an established true condition.
		return !fa.enabled
	}
	// Information can only grow.
	if fa.ready && !fb.ready || fa.enabled && !fb.enabled || fa.computed && !fb.computed {
		return false
	}
	return true
}

// allowed is Allowed as a table over the seven states, built once at init,
// so Transition checks the automaton with one load.
var allowed [Disabled + 1][Disabled + 1]bool

func init() {
	for a := range allowed {
		for b := range allowed[a] {
			allowed[a][b] = Allowed(State(a), State(b))
		}
	}
}

// legal is Allowed by table lookup. A state outside the automaton takes
// the Allowed path, so it fails (or self-moves) exactly as there.
func legal(from, to State) bool {
	if from > Disabled || to > Disabled {
		return Allowed(from, to)
	}
	return allowed[from][to]
}

// Snapshot is a mutable execution snapshot of one decision flow instance:
// the pair (state function, value function) of the paper, over a fixed
// schema. It enforces the automaton on every update.
//
// Snapshot is not safe for concurrent mutation; the engine serializes
// updates per instance.
type Snapshot struct {
	schema *core.Schema
	states []State
	vals   []value.Value
	known  []bool // known[a] = states[a].Stable(), the dense slot mask
	// unstableTargets counts the targets not yet stable; Terminal is its
	// zero test. Sources cannot be targets, so a fresh instance starts with
	// every target counted.
	unstableTargets int
	observer        Observer

	// env and inputs cache the interface boxes handed out by Env and
	// Inputs; both views are stateless beyond the snapshot pointer, so
	// one box each serves the snapshot's whole life (across Resets too).
	env    expr.Env
	inputs core.Inputs
}

// Observer is notified of every state transition an attribute makes —
// the hook behind execution tracing. from != to for every call.
type Observer func(id core.AttrID, from, to State)

// SetObserver installs (or clears, with nil) the transition observer.
func (sn *Snapshot) SetObserver(o Observer) { sn.observer = o }

// New creates the initial snapshot for an instance: sources carry the given
// values (missing sources default to ⟂, matching "a decision may have to be
// made with incomplete information"), all other attributes are
// UNINITIALIZED.
func New(s *core.Schema, sources map[string]value.Value) *Snapshot {
	sn := &Snapshot{}
	sn.Reset(s, sources)
	return sn
}

// Reset reinitializes the snapshot for a fresh instance of the schema,
// reusing the state and value storage when it is large enough. It clears
// any installed observer. The wall-clock runtime pools snapshots through
// Reset to keep its hot path allocation-free.
func (sn *Snapshot) Reset(s *core.Schema, sources map[string]value.Value) {
	sn.reset(s)
	for _, id := range s.Sources() {
		sn.states[id] = Value
		sn.vals[id] = sources[s.Attr(id).Name]
		sn.known[id] = true
	}
}

// ResetSlots is Reset with the source values supplied as a dense
// per-AttrID slice instead of a name-keyed map: slots[id] is the value of
// source attribute id, entries at non-source IDs are ignored, and a short
// slice leaves the remaining sources ⟂. The binary wire front end decodes
// (attrID, value) pairs straight into such a buffer, so instance setup
// skips the map entirely; the slice is copied out of during this call and
// may be reused by the caller afterwards.
func (sn *Snapshot) ResetSlots(s *core.Schema, slots []value.Value) {
	sn.reset(s)
	for _, id := range s.Sources() {
		sn.states[id] = Value
		if int(id) < len(slots) {
			sn.vals[id] = slots[id]
		}
		sn.known[id] = true
	}
}

// reset clears the snapshot storage for a fresh instance of s, leaving all
// attributes UNINITIALIZED; Reset/ResetSlots then promote the sources.
func (sn *Snapshot) reset(s *core.Schema) {
	n := s.NumAttrs()
	sn.schema = s
	sn.observer = nil
	sn.unstableTargets = len(s.Targets())
	if cap(sn.states) < n {
		sn.states = make([]State, n)
		sn.vals = make([]value.Value, n)
		sn.known = make([]bool, n)
	} else {
		sn.states = sn.states[:n]
		sn.vals = sn.vals[:n]
		sn.known = sn.known[:n]
		clear(sn.states)
		clear(sn.vals)
		clear(sn.known)
	}
}

// Schema returns the schema this snapshot ranges over.
func (sn *Snapshot) Schema() *core.Schema { return sn.schema }

// State returns the state of the attribute.
func (sn *Snapshot) State(id core.AttrID) State { return sn.states[id] }

// Val returns the current value of the attribute; ⟂ unless the attribute is
// in a state that carries a value (COMPUTED or VALUE) or is a source.
func (sn *Snapshot) Val(id core.AttrID) value.Value { return sn.vals[id] }

// Stable reports whether the attribute has reached a terminal state.
func (sn *Snapshot) Stable(id core.AttrID) bool { return sn.states[id].Stable() }

// Transition moves the attribute to a new state, enforcing the automaton.
// States that carry a value (COMPUTED, VALUE) must be set via SetComputed /
// SetValue instead so the value arrives with the state.
func (sn *Snapshot) Transition(id core.AttrID, to State) error {
	from := sn.states[id]
	if !legal(from, to) {
		return fmt.Errorf("snapshot: illegal transition %v -> %v for %q",
			from, to, sn.schema.Attr(id).Name)
	}
	if to == Disabled {
		sn.vals[id] = value.Null // a disabled attribute's value is ⟂
	}
	sn.states[id] = to
	if to.Stable() && !sn.known[id] {
		sn.known[id] = true // stability is monotone: never reset
		if sn.schema.IsTarget(id) {
			sn.unstableTargets--
		}
	}
	if sn.observer != nil && from != to {
		sn.observer(id, from, to)
	}
	return nil
}

// SetComputed records a speculatively computed value: READY → COMPUTED.
func (sn *Snapshot) SetComputed(id core.AttrID, v value.Value) error {
	if err := sn.Transition(id, Computed); err != nil {
		return err
	}
	sn.vals[id] = v
	return nil
}

// SetValue records the final value of an enabled attribute, entering the
// terminal VALUE state (from READY+ENABLED after task execution, or from
// COMPUTED when the condition resolves true).
func (sn *Snapshot) SetValue(id core.AttrID, v value.Value) error {
	if err := sn.Transition(id, Value); err != nil {
		return err
	}
	sn.vals[id] = v
	return nil
}

// MustTransition is Transition that panics on illegal moves; engine
// internals use it where legality is an invariant.
func (sn *Snapshot) MustTransition(id core.AttrID, to State) {
	if err := sn.Transition(id, to); err != nil {
		panic(err)
	}
}

// Revert puts id back in state st with value v, bypassing the automaton
// and the observer: the undo of a transition, for a caller rolling back
// updates it made itself (the engine's step memo, when a replayed step
// leaves its recorded paths).
func (sn *Snapshot) Revert(id core.AttrID, st State, v value.Value) {
	if sn.known[id] && !st.Stable() && sn.schema.IsTarget(id) {
		sn.unstableTargets++
	}
	sn.states[id], sn.vals[id], sn.known[id] = st, v, st.Stable()
}

// Terminal reports whether every target attribute is stable — the paper's
// terminal-snapshot condition for successful completion.
func (sn *Snapshot) Terminal() bool { return sn.unstableTargets == 0 }

// Env exposes the snapshot as an expression environment: an attribute is
// known iff it is stable (sources are stable from the start). COMPUTED
// values are deliberately *not* exposed — a speculative value must not
// influence condition evaluation until its own condition is resolved.
// The returned interface is cached so repeated calls don't allocate.
func (sn *Snapshot) Env() expr.Env {
	if sn.env == nil {
		sn.env = snapEnv{sn}
	}
	return sn.env
}

// Slots exposes the snapshot's dense per-attribute storage for compiled
// programs (core.CondProgram / core.ValueProgram): vals[id] is the current
// value and known[id] reports stability, exactly the Env contract in slot
// form — compiled conditions never observe a speculative COMPUTED value
// because its slot stays unknown until the condition resolves. Both slices
// are live views the snapshot keeps updating; callers must treat them as
// read-only and re-fetch after Reset.
func (sn *Snapshot) Slots() (vals []value.Value, known []bool) {
	return sn.vals, sn.known
}

type snapEnv struct{ sn *Snapshot }

func (e snapEnv) Lookup(name string) (value.Value, bool) {
	a, ok := e.sn.schema.Lookup(name)
	if !ok {
		return value.Null, false
	}
	if !e.sn.states[a.ID()].Stable() {
		return value.Null, false
	}
	return e.sn.vals[a.ID()], true
}

// Inputs exposes the stable inputs of the given attribute's task. It must
// only be used when the attribute is READY (all data inputs stable);
// unstable inputs read as ⟂. The returned interface is cached so repeated
// calls don't allocate.
func (sn *Snapshot) Inputs(id core.AttrID) core.Inputs {
	if sn.inputs == nil {
		sn.inputs = snapInputs{sn}
	}
	return sn.inputs
}

type snapInputs struct{ sn *Snapshot }

func (in snapInputs) Get(name string) value.Value {
	a, ok := in.sn.schema.Lookup(name)
	if !ok {
		return value.Null
	}
	return in.sn.vals[a.ID()]
}

// Clone returns an independent copy of the snapshot.
func (sn *Snapshot) Clone() *Snapshot {
	return &Snapshot{
		schema:          sn.schema,
		states:          append([]State(nil), sn.states...),
		vals:            append([]value.Value(nil), sn.vals...),
		known:           append([]bool(nil), sn.known...),
		unstableTargets: sn.unstableTargets,
	}
}

// String renders the snapshot for debugging: one "name=state(value)" per
// non-uninitialized attribute, in ID order.
func (sn *Snapshot) String() string {
	out := ""
	for i, st := range sn.states {
		if st == Uninitialized {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", sn.schema.Attr(core.AttrID(i)).Name, st)
		if st == Value || st == Computed {
			out += fmt.Sprintf("(%s)", sn.vals[i])
		}
	}
	return out
}
