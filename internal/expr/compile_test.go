package expr

import (
	"math"
	"testing"

	"repro/internal/value"
)

// slotUniverse is a fixed resolver over x,y,z for compile tests.
var slotUniverse = []string{"x", "y", "z"}

func testResolve(name string) (int, bool) {
	for i, n := range slotUniverse {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// compileOver compiles src and returns program plus a slot renderer.
func compileOver(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(MustParse(src), testResolve)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return p
}

func slotsOf(env MapEnv) ([]value.Value, []bool) {
	vals := make([]value.Value, len(slotUniverse))
	known := make([]bool, len(slotUniverse))
	for i, n := range slotUniverse {
		if v, ok := env[n]; ok {
			vals[i], known[i] = v, true
		}
	}
	return vals, known
}

// TestCompileAgreesOnParsedConditions spot-checks compiled evaluation on
// realistic schema-style conditions over several partial environments.
// (The fuzz differential is the exhaustive version of this test.)
func TestCompileAgreesOnParsedConditions(t *testing.T) {
	conds := []string{
		`x > 5 and y == "gold"`,
		`x + y * 2 >= z or isnull(z)`,
		`not (x < 0) and coalesce(y, 10) == 10`,
		`contains(z, x) or len(y) > 3`,
		`min(x, y, 3) < max(z, 0)`,
		`true`,
		`x / 0 == x`, // division by zero yields ⟂
	}
	envs := []MapEnv{
		nil,
		{"x": value.Int(7)},
		{"x": value.Int(7), "y": value.Str("gold"), "z": value.Null},
		{"x": value.Null, "y": value.Int(2), "z": value.List(value.Int(1), value.Int(7))},
		{"x": value.Float(1.5), "y": value.Bool(true), "z": value.Int(-3)},
	}
	var m Machine
	for _, src := range conds {
		e := MustParse(src)
		p := compileOver(t, src)
		for _, env := range envs {
			vals, known := slotsOf(env)
			if got, want := p.Eval3(&m, vals, known), Eval3(e, env); got != want {
				t.Errorf("%q over %v: compiled %v, tree %v", src, env, got, want)
			}
			cv, cok := p.EvalValue(&m, vals, known)
			tv, tok := EvalValue(e, env)
			if cok != tok || (cok && !value.Identical(cv, tv)) {
				t.Errorf("%q over %v: compiled value (%v,%v), tree (%v,%v)", src, env, cv, cok, tv, tok)
			}
		}
	}
}

// TestCompileUnresolvableAttr: a name the resolver rejects fails compilation
// (the caller falls back to the tree-walker).
func TestCompileUnresolvableAttr(t *testing.T) {
	if _, err := Compile(MustParse("nope > 1"), testResolve); err == nil {
		t.Fatal("expected error for unresolvable attribute")
	}
}

// adapterExpr is a minimal Cmp3Adapter, outside the core AST.
type adapterExpr struct{}

func (adapterExpr) String() string  { return "adapter()" }
func (adapterExpr) precedence() int { return precAtom }
func (adapterExpr) Eval3(Env) Truth { return True }

// TestCompileRejectsAdapter: custom predicate nodes cannot compile; the
// error (not a panic) routes callers to the tree-walking fallback.
func TestCompileRejectsAdapter(t *testing.T) {
	if _, err := Compile(And{Exprs: []Expr{TrueExpr, adapterExpr{}}}, testResolve); err == nil {
		t.Fatal("expected error for Cmp3Adapter node")
	}
}

// TestCompileDegenerateTrees covers directly constructed shapes the parser
// never emits: empty/unary connectives, wrong builtin arities, unknown
// builtins. Compiled results must match the walker exactly.
func TestCompileDegenerateTrees(t *testing.T) {
	trees := []Expr{
		And{}, // empty conjunction = True
		Or{},  // empty disjunction = False
		And{Exprs: []Expr{Attr{Name: "x"}}},
		Or{Exprs: []Expr{Arith{Op: OpAdd, L: Attr{Name: "x"}, R: Const{value.Int(1)}}}},
		Call{Fn: "len"}, // wrong arity: total ⟂
		Call{Fn: "len", Args: []Expr{Attr{Name: "x"}, Attr{Name: "y"}}},
		Call{Fn: "contains", Args: []Expr{Attr{Name: "z"}}},
		Call{Fn: "min"}, // zero-arg fold = ⟂
		Call{Fn: "frobnicate", Args: []Expr{Attr{Name: "x"}}}, // unknown builtin
		Call{Fn: "coalesce"},
		Arith{Op: ArithOp(9), L: Const{value.Int(6)}, R: Const{value.Int(3)}}, // out-of-range op = known ⟂
	}
	envs := []MapEnv{
		nil,
		{"x": value.Int(3)},
		{"x": value.Null, "y": value.Str("s"), "z": value.List(value.Int(1))},
	}
	var m Machine
	for _, e := range trees {
		p, err := Compile(e, testResolve)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
		}
		for _, env := range envs {
			vals, known := slotsOf(env)
			if got, want := p.Eval3(&m, vals, known), Eval3(e, env); got != want {
				t.Errorf("%s over %v: compiled %v, tree %v", e, env, got, want)
			}
			cv, cok := p.EvalValue(&m, vals, known)
			tv, tok := EvalValue(e, env)
			if cok != tok || (cok && !value.Identical(cv, tv)) {
				t.Errorf("%s over %v: compiled value (%v,%v), tree (%v,%v)", e, env, cv, cok, tv, tok)
			}
		}
	}
}

// TestComparisonsMatchWalker is the exhaustive table for the comparison
// opcodes, which decide numbers in place instead of calling the walker's
// compare: every pairing of NaN, ±Inf, ints, floats (equal, adjacent,
// beyond float precision), strings, ⟂ and non-comparable kinds, under all
// six operators and an out-of-range one, in the three fused shapes and the
// stack one, with each slot known and unknown. NaN is the case to watch —
// value.Compare calls it equal to everything, so `NaN <= x` is True.
func TestComparisonsMatchWalker(t *testing.T) {
	operands := []value.Value{
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Int(3), value.Float(3), value.Float(2.5), value.Int(-3), value.Float(math.Copysign(0, -1)), value.Int(0),
		value.Int(1<<53 + 1), value.Float(1 << 53),
		value.Str("3"), value.Str("a"), value.Str("b"),
		value.Null, value.Bool(true), value.List(value.Int(3)),
	}
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE, CmpOp(9)}
	x, y := Attr{Name: "x"}, Attr{Name: "y"}
	var m Machine
	check := func(e Cmp, want opcode, env MapEnv) {
		t.Helper()
		p, err := Compile(e, testResolve)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
		}
		if last := p.code[len(p.code)-1].op; last != want || (want != opCmp && len(p.code) != 1) {
			t.Fatalf("%s compiled to %v, want opcode %d (alone if fused)", e, p.code, want)
		}
		vals, known := slotsOf(env)
		if got, want := p.Eval3(&m, vals, known), Eval3(e, env); got != want {
			t.Errorf("%s over %v: compiled %v, tree %v", e, env, got, want)
		}
		cv, cok := p.EvalValue(&m, vals, known)
		tv, tok := EvalValue(e, env)
		if cok != tok || (cok && !value.Identical(cv, tv)) {
			t.Errorf("%s over %v: compiled value (%v,%v), tree (%v,%v)", e, env, cv, cok, tv, tok)
		}
	}
	for _, op := range ops {
		for _, l := range operands {
			for _, r := range operands {
				for _, env := range []MapEnv{{"x": l, "y": r}, {"x": l}, {"y": r}, {}} {
					check(Cmp{Op: op, L: x, R: y}, opCmpSS, env)
					check(Cmp{Op: op, L: x, R: Const{Val: r}}, opCmpSC, env)
					check(Cmp{Op: op, L: Const{Val: l}, R: y}, opCmpCS, env)
					check(Cmp{Op: op, L: Call{Fn: "coalesce", Args: []Expr{x, x}}, R: y}, opCmp, env)
				}
			}
		}
	}
}

// TestCompiledEvalAllocFree: steady-state program execution must not
// allocate — the property the serving hot path depends on.
func TestCompiledEvalAllocFree(t *testing.T) {
	p := compileOver(t, `x > 5 and (y == "gold" or isnull(z)) and x + 1 < 100`)
	vals, known := slotsOf(MapEnv{"x": value.Int(7), "y": value.Str("gold")})
	var m Machine
	p.Eval3(&m, vals, known) // warm the machine stack
	allocs := testing.AllocsPerRun(100, func() {
		if p.Eval3(&m, vals, known) != True {
			t.Fatal("wrong result")
		}
	})
	if allocs != 0 {
		t.Errorf("compiled Eval3 allocates %v per run, want 0", allocs)
	}
}

// TestCompileNilKnownTotalEnv: the nil known mask treats every slot as
// known — the value-program mode engine.Core.compute uses.
func TestCompileNilKnownTotalEnv(t *testing.T) {
	p := compileOver(t, "x / 10 + coalesce(y, 100) / -2")
	vals := []value.Value{value.Int(120), value.Null, value.Null}
	var m Machine
	v, ok := p.EvalValue(&m, vals, nil)
	if !ok {
		t.Fatal("total env must always be known")
	}
	// 120/10 + 100/-2 = 12 - 50 = -38
	if got, want := v, value.Int(-38); !value.Identical(got, want) {
		t.Errorf("value = %v, want %v", got, want)
	}
}
