package snapshot

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/value"
)

// diamond builds the test schema:
//
//	src -> a(cost2) -> c(cost1, enabled iff a>10) -> tgt
//	src -> b(cost3) ----^ (data input of c)
//
// tgt enabled iff not isnull(c).
func diamond(t testing.TB) *core.Schema {
	t.Helper()
	return core.NewBuilder("diamond").
		Source("src").
		Foreign("a", expr.TrueExpr, []string{"src"}, 2,
			func(in core.Inputs) value.Value { return value.Mul(in.Get("src"), value.Int(2)) }).
		Foreign("b", expr.TrueExpr, []string{"src"}, 3,
			func(in core.Inputs) value.Value { return value.Add(in.Get("src"), value.Int(1)) }).
		Foreign("c", expr.MustParse("a > 10"), []string{"a", "b"}, 1,
			func(in core.Inputs) value.Value { return value.Add(in.Get("a"), in.Get("b")) }).
		Foreign("tgt", expr.MustParse("notnull(c)"), []string{"c"}, 1,
			func(in core.Inputs) value.Value { return in.Get("c") }).
		Target("tgt").
		MustBuild()
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Uninitialized: "UNINITIALIZED",
		Enabled:       "ENABLED",
		Ready:         "READY",
		ReadyEnabled:  "READY+ENABLED",
		Computed:      "COMPUTED",
		Value:         "VALUE",
		Disabled:      "DISABLED",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.Contains(State(42).String(), "42") {
		t.Error("invalid state should render its number")
	}
}

func TestStableStates(t *testing.T) {
	for _, s := range []State{Uninitialized, Enabled, Ready, ReadyEnabled, Computed} {
		if s.Stable() {
			t.Errorf("%v should not be stable", s)
		}
	}
	if !Value.Stable() || !Disabled.Stable() {
		t.Error("VALUE and DISABLED must be stable")
	}
}

func TestAllowedTransitions(t *testing.T) {
	type tr struct {
		from, to State
		ok       bool
	}
	cases := []tr{
		// Figure 3 edges.
		{Uninitialized, Enabled, true},
		{Uninitialized, Ready, true},
		{Uninitialized, Disabled, true},
		{Enabled, ReadyEnabled, true},
		{Ready, ReadyEnabled, true},
		{Ready, Computed, true},
		{Ready, Disabled, true},
		{ReadyEnabled, Value, true},
		{Computed, Value, true},
		{Computed, Disabled, true},
		// Combined-event shortcuts.
		{Uninitialized, ReadyEnabled, true},
		{Uninitialized, Value, true},
		{Enabled, Value, true},
		{Ready, Value, true},
		// Self loops.
		{Ready, Ready, true},
		{Value, Value, true},
		// Illegal: terminal states cannot move.
		{Value, Disabled, false},
		{Value, Ready, false},
		{Disabled, Value, false},
		{Disabled, Ready, false},
		{Disabled, Uninitialized, false},
		// Illegal: information cannot be forgotten.
		{Ready, Uninitialized, false},
		{Enabled, Ready, false}, // would forget enabledness
		{ReadyEnabled, Ready, false},
		{ReadyEnabled, Computed, false}, // would forget enabledness
		{Computed, Ready, false},
		// Illegal: a true condition cannot become false.
		{Enabled, Disabled, false},
		{ReadyEnabled, Disabled, false},
	}
	for _, c := range cases {
		if got := Allowed(c.from, c.to); got != c.ok {
			t.Errorf("Allowed(%v, %v) = %v, want %v", c.from, c.to, got, c.ok)
		}
	}
}

// TestAllowedTable pins the table Transition consults to the definition:
// every pair of the seven states agrees with Allowed, and a state outside
// the automaton fails exactly as Allowed does.
func TestAllowedTable(t *testing.T) {
	for a := Uninitialized; a <= Disabled; a++ {
		for b := Uninitialized; b <= Disabled; b++ {
			if got, want := legal(a, b), Allowed(a, b); got != want {
				t.Errorf("table[%v][%v] = %v, Allowed says %v", a, b, got, want)
			}
		}
	}
	if !legal(State(9), State(9)) {
		t.Error("a self-move is allowed, even outside the automaton")
	}
	s := diamond(t)
	sn := New(s, nil)
	a := s.MustLookup("a").ID()
	for _, bad := range []State{Disabled + 1, State(200)} {
		func() {
			defer func() {
				want := fmt.Sprintf("snapshot: invalid state %d", bad)
				if r := recover(); r != want {
					t.Errorf("Transition to %v: panic %v, want %q", bad, r, want)
				}
			}()
			sn.Transition(a, bad)
		}()
	}
	if sn.State(a) != Uninitialized {
		t.Errorf("a failed transition moved a to %v", sn.State(a))
	}
}

func TestNewSnapshotSources(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	src := s.MustLookup("src")
	if sn.State(src.ID()) != Value {
		t.Error("source must start in VALUE")
	}
	if !value.Identical(sn.Val(src.ID()), value.Int(7)) {
		t.Error("source value wrong")
	}
	a := s.MustLookup("a")
	if sn.State(a.ID()) != Uninitialized {
		t.Error("non-source must start UNINITIALIZED")
	}
	// Missing source defaults to ⟂ but still VALUE.
	sn2 := New(s, nil)
	if sn2.State(src.ID()) != Value || !sn2.Val(src.ID()).IsNull() {
		t.Error("missing source should be stable ⟂")
	}
}

func TestTransitionEnforcement(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	a := s.MustLookup("a").ID()
	if err := sn.Transition(a, Ready); err != nil {
		t.Fatal(err)
	}
	if err := sn.SetComputed(a, value.Int(14)); err != nil {
		t.Fatal(err)
	}
	if sn.State(a) != Computed || !value.Identical(sn.Val(a), value.Int(14)) {
		t.Error("computed state/value wrong")
	}
	if err := sn.SetValue(a, value.Int(14)); err != nil {
		t.Fatal(err)
	}
	if err := sn.Transition(a, Disabled); err == nil {
		t.Error("VALUE -> DISABLED must fail")
	}
	b := s.MustLookup("b").ID()
	if err := sn.Transition(b, Enabled); err != nil {
		t.Fatal(err)
	}
	if err := sn.Transition(b, Disabled); err == nil {
		t.Error("ENABLED -> DISABLED must fail")
	}
}

func TestDisableClearsValue(t *testing.T) {
	s := diamond(t)
	sn := New(s, nil)
	c := s.MustLookup("c").ID()
	sn.MustTransition(c, Ready)
	if err := sn.SetComputed(c, value.Int(99)); err != nil {
		t.Fatal(err)
	}
	sn.MustTransition(c, Disabled)
	if !sn.Val(c).IsNull() {
		t.Error("disabling must reset the value to ⟂")
	}
}

func TestMustTransitionPanics(t *testing.T) {
	s := diamond(t)
	sn := New(s, nil)
	a := s.MustLookup("a").ID()
	sn.MustTransition(a, Disabled)
	defer func() {
		if recover() == nil {
			t.Error("MustTransition on terminal state should panic")
		}
	}()
	sn.MustTransition(a, Ready)
}

func TestEnvExposesOnlyStable(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	env := sn.Env()
	if _, known := env.Lookup("a"); known {
		t.Error("uninitialized attr must be unknown")
	}
	if v, known := env.Lookup("src"); !known || !value.Identical(v, value.Int(7)) {
		t.Error("source must be known")
	}
	a := s.MustLookup("a").ID()
	sn.MustTransition(a, Ready)
	if err := sn.SetComputed(a, value.Int(14)); err != nil {
		t.Fatal(err)
	}
	if _, known := env.Lookup("a"); known {
		t.Error("COMPUTED (speculative) value must not be visible to conditions")
	}
	if err := sn.SetValue(a, value.Int(14)); err != nil {
		t.Fatal(err)
	}
	if v, known := env.Lookup("a"); !known || !value.Identical(v, value.Int(14)) {
		t.Error("VALUE attr must be visible")
	}
	if _, known := env.Lookup("ghost"); known {
		t.Error("unknown attribute name must be unknown")
	}
}

func TestTerminal(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	if sn.Terminal() {
		t.Error("fresh snapshot must not be terminal")
	}
	tgt := s.MustLookup("tgt").ID()
	sn.MustTransition(tgt, Disabled)
	if !sn.Terminal() {
		t.Error("all targets stable -> terminal")
	}
}

func TestCompleteOracleEnabledPath(t *testing.T) {
	s := diamond(t)
	// src=7: a=14 (>10) so c enabled: c=14+8=22; tgt=22.
	sn := Complete(s, map[string]value.Value{"src": value.Int(7)})
	want := map[string]value.Value{
		"a":   value.Int(14),
		"b":   value.Int(8),
		"c":   value.Int(22),
		"tgt": value.Int(22),
	}
	for name, wv := range want {
		id := s.MustLookup(name).ID()
		if sn.State(id) != Value {
			t.Errorf("%s state = %v, want VALUE", name, sn.State(id))
		}
		if !value.Identical(sn.Val(id), wv) {
			t.Errorf("%s = %v, want %v", name, sn.Val(id), wv)
		}
	}
	if !sn.Terminal() {
		t.Error("complete snapshot must be terminal")
	}
}

func TestCompleteOracleDisabledPath(t *testing.T) {
	s := diamond(t)
	// src=3: a=6 (not >10) so c disabled; tgt's cond notnull(c) false -> disabled.
	sn := Complete(s, map[string]value.Value{"src": value.Int(3)})
	c := s.MustLookup("c").ID()
	tgt := s.MustLookup("tgt").ID()
	if sn.State(c) != Disabled || !sn.Val(c).IsNull() {
		t.Error("c should be DISABLED with ⟂")
	}
	if sn.State(tgt) != Disabled {
		t.Error("tgt should be DISABLED (forward propagation in semantics)")
	}
}

func TestCompleteOracleNullSource(t *testing.T) {
	s := diamond(t)
	// src=⟂: a=⟂*2=⟂; a>10 false -> c disabled; tgt disabled.
	sn := Complete(s, nil)
	a := s.MustLookup("a").ID()
	if sn.State(a) != Value || !sn.Val(a).IsNull() {
		t.Error("a should be VALUE ⟂ (task executed over ⟂ input)")
	}
	if sn.State(s.MustLookup("c").ID()) != Disabled {
		t.Error("c should be DISABLED")
	}
}

func TestCheckAgainstOracle(t *testing.T) {
	s := diamond(t)
	srcs := map[string]value.Value{"src": value.Int(7)}
	oracle := Complete(s, srcs)

	// A faithful partial execution: targets stable and consistent.
	exec := New(s, srcs)
	for _, name := range []string{"a", "b", "c", "tgt"} {
		id := s.MustLookup(name).ID()
		exec.MustTransition(id, ReadyEnabled)
		if err := exec.SetValue(id, oracle.Val(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckAgainstOracle(exec, oracle); err != nil {
		t.Errorf("faithful execution rejected: %v", err)
	}

	// Unstable target must be rejected.
	exec2 := New(s, srcs)
	if err := CheckAgainstOracle(exec2, oracle); err == nil {
		t.Error("unstable target should be rejected")
	}

	// Wrong value must be rejected.
	exec3 := New(s, srcs)
	for _, name := range []string{"a", "b", "c"} {
		id := s.MustLookup(name).ID()
		exec3.MustTransition(id, ReadyEnabled)
		if err := exec3.SetValue(id, oracle.Val(id)); err != nil {
			t.Fatal(err)
		}
	}
	tgt := s.MustLookup("tgt").ID()
	exec3.MustTransition(tgt, ReadyEnabled)
	if err := exec3.SetValue(tgt, value.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := CheckAgainstOracle(exec3, oracle); err == nil {
		t.Error("wrong target value should be rejected")
	}

	// Wrong state (disabled vs oracle value) must be rejected.
	exec4 := New(s, srcs)
	exec4.MustTransition(tgt, Disabled)
	if err := CheckAgainstOracle(exec4, oracle); err == nil {
		t.Error("wrong stable state should be rejected")
	}
}

func TestCheckDifferentSchemas(t *testing.T) {
	s1, s2 := diamond(t), diamond(t)
	if err := CheckAgainstOracle(New(s1, nil), New(s2, nil)); err == nil {
		t.Error("different schema instances should be rejected")
	}
}

func TestClone(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	cp := sn.Clone()
	a := s.MustLookup("a").ID()
	sn.MustTransition(a, Disabled)
	if cp.State(a) != Uninitialized {
		t.Error("clone must be independent")
	}
}

func TestRelationExport(t *testing.T) {
	s := diamond(t)
	sn := Complete(s, map[string]value.Value{"src": value.Int(7)})
	rel := sn.Relation()
	if len(rel) != s.NumAttrs() {
		t.Fatalf("relation size = %d", len(rel))
	}
	found := false
	for _, r := range rel {
		if r.Attr == "c" {
			found = true
			if r.State != "VALUE" || r.Value != "22" {
				t.Errorf("record for c = %+v", r)
			}
		}
	}
	if !found {
		t.Error("relation missing attribute c")
	}
}

func TestSnapshotString(t *testing.T) {
	s := diamond(t)
	sn := Complete(s, map[string]value.Value{"src": value.Int(7)})
	str := sn.String()
	if !strings.Contains(str, "c=VALUE(22)") {
		t.Errorf("String() = %q", str)
	}
}

func TestInputsReadUnstableAsNull(t *testing.T) {
	s := diamond(t)
	sn := New(s, map[string]value.Value{"src": value.Int(7)})
	in := sn.Inputs(s.MustLookup("c").ID())
	if !in.Get("a").IsNull() {
		t.Error("unstable input should read ⟂")
	}
	if !in.Get("ghost").IsNull() {
		t.Error("unknown input should read ⟂")
	}
	if !value.Identical(in.Get("src"), value.Int(7)) {
		t.Error("stable input should read its value")
	}
}

// Oracle determinism: same sources, same snapshot.
func TestCompleteDeterministic(t *testing.T) {
	s := diamond(t)
	for _, src := range []int64{0, 3, 5, 6, 7, 100} {
		a := Complete(s, map[string]value.Value{"src": value.Int(src)})
		b := Complete(s, map[string]value.Value{"src": value.Int(src)})
		for i := 0; i < s.NumAttrs(); i++ {
			id := core.AttrID(i)
			if a.State(id) != b.State(id) || !value.Identical(a.Val(id), b.Val(id)) {
				t.Fatalf("oracle nondeterministic at src=%d attr=%d", src, i)
			}
		}
	}
}
