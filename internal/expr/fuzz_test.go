package expr

import (
	"math"
	"testing"

	"repro/internal/value"
)

// FuzzEval3 drives Eval3 with random expression trees over random partial
// environments, checking four properties the engine depends on:
//
//  1. crash-freedom: any tree this package can represent evaluates without
//     panicking, as a condition and as a value;
//  2. agreement with refEval3, an independent reference evaluator written
//     directly from the documented semantics (full Kleene tables, no
//     short-circuiting, no shared helpers on the boolean path);
//  3. stability (monotonicity): extending the environment never flips a
//     known True/False — the property that makes the prequalifier's eager
//     early decisions sound;
//  4. compilation equivalence: the flat program Compile produces evaluates
//     identically to the tree-walker — Truth and value results, over the
//     partial env, the fully extended env, and the total (nil known mask)
//     env the engine evaluates value programs against — so the compiled
//     serving hot path provably implements the same semantics the oracle
//     tree-walks.
//
// It also round-trips every tree through String/Parse and requires the
// reparsed tree to evaluate identically, tying the printer and parser into
// the same invariant. Run a smoke pass with `make fuzz-smoke`.
func FuzzEval3(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{2, 0, 10, 1, 3}, uint16(0x0f))
	f.Add([]byte{3, 1, 0, 1, 1, 5, 2, 2}, uint16(0xff))
	f.Add([]byte{4, 0, 6, 1, 4, 9, 2, 1, 0, 1, 1}, uint16(0x35))
	f.Add([]byte{5, 2, 3, 1, 2, 7, 1, 0, 0, 8, 1, 1}, uint16(0x2a))
	f.Add([]byte{9, 4, 2, 1, 0, 1, 1, 9, 0, 1, 1, 2}, uint16(0x5b))
	// The three fused leaf comparisons (slot⋈const, const⋈slot, slot⋈slot)
	// under each operator, over environments where a2 is NaN, a5 is +Inf and
	// a4 is a string (see fuzzEnv) and where they are unknown: the shapes
	// cmp3 decides without the walker's compare.
	for op := byte(0); op < 6; op++ {
		for _, bits := range []uint16{0x0fff, 0x0c30, 0x0300, 0x0004, 0} {
			f.Add([]byte{2, op, 0, 5, 2, 0, 3, 133}, bits)              // a2 op 5
			f.Add([]byte{2, op, 0, 4, 10, 0, 5, 5}, bits)               // 2.0 op a5
			f.Add([]byte{2, op, 0, 5, 2, 0, 5, 5}, bits)                // a2 op a5
			f.Add([]byte{2, op, 0, 5, 4, 0, 2, 12}, bits)               // a4 op "m"
			f.Add([]byte{3, 0, 2, op, 0, 5, 1, 0, 5, 4, 5, 0, 5}, bits) // a1 op a4 and not a0
		}
	}

	f.Fuzz(func(t *testing.T, prog []byte, envBits uint16) {
		d := &treeDecoder{data: prog}
		e := d.expr(0)
		env := fuzzEnv(envBits)

		got := Eval3(e, env)
		if want := refEval3(e, env); got != want {
			t.Fatalf("Eval3 = %v, reference = %v\nexpr: %s\nenv: %v", got, want, e, env)
		}
		// Crash-freedom in value position too.
		_, _ = EvalValue(e, env)

		// Compiled program differential: every fuzzed tree must compile
		// (the generator only emits core AST nodes) and the program must
		// agree with the tree-walker on both the Truth and the value
		// result over the dense-slot rendering of the same env.
		cp, err := Compile(e, fuzzSlot)
		if err != nil {
			t.Fatalf("Compile failed: %v\nexpr: %s", err, e)
		}
		vals, known := fuzzSlots(env)
		var m Machine
		if ct := cp.Eval3(&m, vals, known); ct != got {
			t.Fatalf("compiled Eval3 = %v, tree = %v\nexpr: %s\nenv: %v", ct, got, e, env)
		}
		tv, tok := EvalValue(e, env)
		if cv, cok := cp.EvalValue(&m, vals, known); cok != tok || (cok && !sameValue(cv, tv)) {
			t.Fatalf("compiled EvalValue = (%v, %v), tree = (%v, %v)\nexpr: %s\nenv: %v",
				cv, cok, tv, tok, e, env)
		}

		// Monotonicity: make every attribute known and re-evaluate, on
		// both the tree and the compiled program.
		full := MapEnv{}
		for name, v := range env {
			full[name] = v
		}
		for _, name := range fuzzAttrs {
			if _, known := full[name]; !known {
				full[name] = value.Int(int64(len(name)) - 2)
			}
		}
		fullVals, fullKnown := fuzzSlots(full)
		if got != Unknown {
			if again := Eval3(e, full); again != got {
				t.Fatalf("extension flipped %v to %v\nexpr: %s\nenv: %v", got, again, e, env)
			}
			if again := cp.Eval3(&m, fullVals, fullKnown); again != got {
				t.Fatalf("extension flipped compiled %v to %v\nexpr: %s\nenv: %v", got, again, e, env)
			}
		}
		// Total-environment mode (nil known mask, the engine's value-program
		// path) must match the tree-walker over the all-known env.
		tv, tok = EvalValue(e, full)
		if cv, cok := cp.EvalValue(&m, fullVals, nil); cok != tok || (cok && !sameValue(cv, tv)) {
			t.Fatalf("compiled total EvalValue = (%v, %v), tree = (%v, %v)\nexpr: %s", cv, cok, tv, tok, e)
		}

		// Print/parse round trip evaluates identically.
		src := e.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("generated tree failed to reparse: %v\nexpr: %s", err, src)
		}
		if reparsed := Eval3(parsed, env); reparsed != got {
			t.Fatalf("reparsed tree = %v, original = %v\nexpr: %s", reparsed, got, src)
		}
	})
}

// fuzzAttrs is the attribute universe for generated trees.
var fuzzAttrs = []string{"a0", "a1", "a2", "a3", "a4", "a5"}

// fuzzSlot resolves a fuzz attribute to its dense slot index.
func fuzzSlot(name string) (int, bool) {
	for i, n := range fuzzAttrs {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// fuzzSlots renders a map environment into the dense slot arrays compiled
// programs execute against.
func fuzzSlots(env MapEnv) ([]value.Value, []bool) {
	vals := make([]value.Value, len(fuzzAttrs))
	known := make([]bool, len(fuzzAttrs))
	for i, name := range fuzzAttrs {
		if v, ok := env[name]; ok {
			vals[i], known[i] = v, true
		}
	}
	return vals, known
}

// fuzzEnv derives a partial environment from 16 bits: for each attribute,
// bit 2i decides known/unknown and bit 2i+1 picks the value family; a
// trailing mix keeps values varied (null, bool, int, string, NaN, +Inf).
func fuzzEnv(bits uint16) MapEnv {
	env := MapEnv{}
	for i, name := range fuzzAttrs {
		if bits>>(2*i)&1 == 0 {
			continue // unknown
		}
		switch family := (bits >> (2*i + 1) & 1) + uint16(i)%3; {
		case family == 0:
			env[name] = value.Null
		case family == 1:
			env[name] = value.Bool(i%2 == 0)
		case family == 2 && i == 4:
			env[name] = value.Str("m")
		case family == 3 && i == 2:
			env[name] = value.Float(math.NaN())
		case family == 3 && i == 5:
			env[name] = value.Float(math.Inf(1))
		default:
			env[name] = value.Int(int64(i*7 - 9))
		}
	}
	return env
}

// sameValue is value.Identical that also equates NaN with NaN: a program
// and the walker that both produce NaN agree.
func sameValue(a, b value.Value) bool {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok && af != af && bf != bf {
		return true
	}
	return value.Identical(a, b)
}

// treeDecoder builds a bounded expression tree from fuzz bytes. The same
// bytes always decode to the same tree, so failures shrink well. Budget
// and depth caps keep trees small; byte exhaustion degrades to constants.
type treeDecoder struct {
	data  []byte
	pos   int
	nodes int
}

func (d *treeDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *treeDecoder) expr(depth int) Expr {
	d.nodes++
	if d.nodes > 64 || depth > 6 {
		return d.leaf()
	}
	switch d.next() % 10 {
	case 0, 1:
		return d.leaf()
	case 2:
		return Cmp{Op: CmpOp(d.next() % 6), L: d.expr(depth + 1), R: d.expr(depth + 1)}
	case 3:
		return And{Exprs: d.children(depth)}
	case 4:
		return Or{Exprs: d.children(depth)}
	case 5:
		return Not{E: d.expr(depth + 1)}
	case 6:
		return IsNull{E: d.expr(depth + 1)}
	case 7:
		return Arith{Op: ArithOp(d.next() % 4), L: d.expr(depth + 1), R: d.expr(depth + 1)}
	case 8:
		return Neg{E: d.expr(depth + 1)}
	default:
		return d.call(depth)
	}
}

// children yields 2–3 subexpressions (Parse never produces fewer than two
// operands for and/or, so the round trip stays faithful).
func (d *treeDecoder) children(depth int) []Expr {
	n := 2 + int(d.next()%2)
	out := make([]Expr, n)
	for i := range out {
		out[i] = d.expr(depth + 1)
	}
	return out
}

// call generates builtin applications with parser-legal arities. isnull is
// deliberately excluded: the printer renders the IsNull node the same way,
// and Parse maps the syntax back to IsNull, not Call.
func (d *treeDecoder) call(depth int) Expr {
	switch d.next() % 5 {
	case 0:
		return Call{Fn: "len", Args: []Expr{d.expr(depth + 1)}}
	case 1:
		return Call{Fn: "contains", Args: []Expr{d.expr(depth + 1), d.expr(depth + 1)}}
	case 2:
		return Call{Fn: "min", Args: d.children(depth)}
	case 3:
		return Call{Fn: "max", Args: d.children(depth)}
	default:
		return Call{Fn: "coalesce", Args: d.children(depth)}
	}
}

func (d *treeDecoder) leaf() Expr {
	switch d.next() % 8 {
	case 0:
		return Const{Val: value.Null}
	case 1:
		return Const{Val: value.Bool(d.next()%2 == 0)}
	case 2:
		return Const{Val: value.Str(string(rune('a' + d.next()%26)))}
	case 3:
		return Const{Val: value.Int(int64(d.next()) - 128)}
	case 4:
		// Mostly ints; every fifth byte a finite float (NaN and ±Inf do not
		// survive the print/parse round trip, so they come from fuzzEnv).
		if b := d.next(); b%5 != 0 {
			return Const{Val: value.Int(int64(b) - 128)}
		} else {
			return Const{Val: value.Float(float64(b)/4 - 0.5)}
		}
	default:
		return Attr{Name: fuzzAttrs[d.next()%byte(len(fuzzAttrs))]}
	}
}

// --- reference evaluator ---
//
// refEval3 re-derives the documented three-valued condition semantics from
// scratch: Kleene logic evaluated without short-circuiting, SQL-style ⟂
// comparisons, totality for non-boolean values in boolean positions. Its
// only shared vocabulary with Eval3 is the value package's arithmetic and
// comparison primitives on concrete values.

func refEval3(e Expr, env Env) Truth {
	switch n := e.(type) {
	case And:
		sawUnknown := false
		out := True
		for _, sub := range n.Exprs {
			switch refEval3(sub, env) {
			case False:
				out = False
			case Unknown:
				sawUnknown = true
			}
		}
		if out == False {
			return False
		}
		if sawUnknown {
			return Unknown
		}
		return True
	case Or:
		sawUnknown := false
		out := False
		for _, sub := range n.Exprs {
			switch refEval3(sub, env) {
			case True:
				out = True
			case Unknown:
				sawUnknown = true
			}
		}
		if out == True {
			return True
		}
		if sawUnknown {
			return Unknown
		}
		return False
	case Not:
		switch refEval3(n.E, env) {
		case True:
			return False
		case False:
			return True
		default:
			return Unknown
		}
	case IsNull:
		v, known := refVal(n.E, env)
		if !known {
			return Unknown
		}
		if v.IsNull() {
			return True
		}
		return False
	case Cmp:
		lv, lok := refVal(n.L, env)
		rv, rok := refVal(n.R, env)
		if lok && lv.IsNull() || rok && rv.IsNull() {
			return False // ⟂ decides any comparison, even vs unknown
		}
		if !lok || !rok {
			return Unknown
		}
		if refCompare(n.Op, lv, rv) {
			return True
		}
		return False
	default:
		v, known := refVal(e, env)
		if !known {
			return Unknown
		}
		if b, ok := v.Truth(); ok && b {
			return True
		}
		return False // ⟂ or non-boolean in boolean position
	}
}

func refVal(e Expr, env Env) (value.Value, bool) {
	switch n := e.(type) {
	case Const:
		return n.Val, true
	case Attr:
		return env.Lookup(n.Name)
	case Arith:
		lv, lok := refVal(n.L, env)
		rv, rok := refVal(n.R, env)
		if !lok || !rok {
			return value.Null, false
		}
		switch n.Op {
		case OpAdd:
			return value.Add(lv, rv), true
		case OpSub:
			return value.Sub(lv, rv), true
		case OpMul:
			return value.Mul(lv, rv), true
		default:
			return value.Div(lv, rv), true
		}
	case Neg:
		v, ok := refVal(n.E, env)
		if !ok {
			return value.Null, false
		}
		return value.Neg(v), true
	case Call:
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, ok := refVal(a, env)
			if !ok {
				return value.Null, false
			}
			args[i] = v
		}
		return refCall(n.Fn, args), true
	default: // boolean node in value position
		switch refEval3(e, env) {
		case True:
			return value.Bool(true), true
		case False:
			return value.Bool(false), true
		default:
			return value.Null, false
		}
	}
}

func refCall(fn string, args []value.Value) value.Value {
	switch fn {
	case "len":
		if len(args) != 1 || args[0].IsNull() {
			return value.Null
		}
		return value.Int(int64(args[0].Len()))
	case "contains":
		if len(args) != 2 {
			return value.Null
		}
		list, ok := args[0].AsList()
		if !ok {
			return value.Bool(false)
		}
		for _, e := range list {
			if value.Equal(e, args[1]) {
				return value.Bool(true)
			}
		}
		return value.Bool(false)
	case "min", "max":
		if len(args) == 0 {
			return value.Null
		}
		out := args[0]
		for _, a := range args[1:] {
			if fn == "min" {
				out = value.Min(out, a)
			} else {
				out = value.Max(out, a)
			}
		}
		return out
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a
			}
		}
		return value.Null
	default:
		return value.Null
	}
}

func refCompare(op CmpOp, a, b value.Value) bool {
	switch op {
	case EQ:
		return value.Equal(a, b)
	case NE:
		if a.IsNull() || b.IsNull() {
			return false
		}
		return !value.Equal(a, b)
	default:
		c, ok := value.Compare(a, b)
		if !ok {
			return false
		}
		switch op {
		case LT:
			return c < 0
		case LE:
			return c <= 0
		case GT:
			return c > 0
		default:
			return c >= 0
		}
	}
}
