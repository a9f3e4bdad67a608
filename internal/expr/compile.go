package expr

import (
	"fmt"

	"repro/internal/value"
)

// This file implements the compiled execution form of conditions and value
// expressions: a flat postfix program of fixed-width instructions over dense
// value slots. The tree-walking Eval3/EvalValue remain the reference
// semantics (and the oracle used by tests); Compile produces a Program that
// must evaluate identically — a property enforced by the differential fuzz
// test — while avoiding the per-node interface dispatch and per-attribute
// string-keyed environment lookups of the walker.
//
// The machine is typed: boolean subexpressions run on a stack of 1-byte
// Truth values while arithmetic and calls run on a stack of value cells, so
// conjunctions of comparisons (the dominant condition shape) never move
// 60-byte value structs. The compiler additionally fuses leaf comparisons
// (slot ⋈ const, slot ⋈ slot) and isnull(slot) into single instructions —
// the predicate forms the schema generator emits — making a typical
// generated condition one instruction per predicate plus one per
// connective. Programs are immutable and safe for concurrent use;
// per-evaluation scratch lives in a Machine owned by the caller, so
// steady-state evaluation allocates nothing.

// opcode enumerates program instructions. Postfix discipline: every
// instruction pops its inputs from its stack(s) and pushes one result.
type opcode uint8

const (
	// Value-stack producers.
	opConst    opcode = iota // push consts[a]
	opSlot                   // push (vals[a], known[a])
	opArith                  // x = ArithOp; pop R, L, push result
	opNeg                    // arithmetic negation
	opLen                    // len(x)
	opContains               // contains(list, x)
	opMin                    // a = argc; fold value.Min
	opMax                    // a = argc; fold value.Max
	opCoalesce               // a = argc; first non-⟂ argument
	opNullCall               // a = argc; unknown builtin / bad arity: total ⟂

	// Truth-stack producers.
	opCmp        // x = CmpOp; pop cells R, L, push comparison truth
	opCmpSS      // x = CmpOp; slots a, b — fused leaf comparison
	opCmpSC      // x = CmpOp; slot a, const b
	opCmpCS      // x = CmpOp; const a, slot b
	opAnd        // a = operand count; Kleene conjunction
	opOr         // a = operand count; Kleene disjunction
	opNot        // Kleene negation
	opIsNull     // pop cell, push isnull truth
	opIsNullSlot // fused isnull over slot a

	// Coercions between the stacks, mirroring the walker's boolean-in-
	// value-position and value-in-boolean-position rules.
	opValToTruth // pop cell, push its truth (unknown→Unknown, non-bool→False)
	opTruthToVal // pop truth, push Bool cell (Unknown→unknown cell)
)

// instr is one fixed-width program instruction.
type instr struct {
	op opcode
	x  uint8 // CmpOp / ArithOp operand
	a  int32
	b  int32
}

// cell is one value-stack entry: a value plus whether it is known.
// known=false corresponds to the tree-walker's "depends on an unstabilized
// attribute" outcome; the value of an unknown cell is never observed.
type cell struct {
	v     value.Value
	known bool
}

// Program is a compiled condition or value expression: a flat postfix
// instruction sequence over dense attribute slots. Programs are created by
// Compile, are immutable, and may be shared by any number of goroutines.
type Program struct {
	code     []instr
	consts   []value.Value
	maxVals  int  // value-stack depth required
	maxTruth int  // truth-stack depth required
	boolRoot bool // result ends on the truth stack
}

// NumInstr returns the instruction count (for tests and diagnostics).
func (p *Program) NumInstr() int { return len(p.code) }

// Machine holds the reusable evaluation stacks for executing Programs.
// The zero Machine is ready to use; it grows its stacks on first use and
// never shrinks, so repeated evaluation is allocation-free. A Machine must
// not be used concurrently.
type Machine struct {
	vals  []cell
	truth []Truth
}

// Eval3 executes the program as a three-valued condition over dense slots:
// vals[slot] is the attribute's current value and known[slot] reports
// whether it has stabilized. A nil known treats every slot as known (the
// total environment tasks evaluate value expressions over). The result is
// identical to Eval3 on the source tree over the equivalent Env.
func (p *Program) Eval3(m *Machine, vals []value.Value, known []bool) Truth {
	vsp, tsp := p.run(m, vals, known)
	if p.boolRoot {
		return m.truth[tsp-1]
	}
	return truthOfCell(m.vals[vsp-1])
}

// EvalValue executes the program as a value expression over dense slots;
// ok is false when the result still depends on unknown slots. A nil known
// treats every slot as known. The result is identical to EvalValue on the
// source tree over the equivalent Env.
func (p *Program) EvalValue(m *Machine, vals []value.Value, known []bool) (v value.Value, ok bool) {
	vsp, tsp := p.run(m, vals, known)
	var c cell
	if p.boolRoot {
		c = cellOfTruth(m.truth[tsp-1])
	} else {
		c = m.vals[vsp-1]
	}
	if !c.known {
		return value.Null, false
	}
	return c.v, true
}

// truthOfCell converts a value cell to a Kleene truth value, mirroring the
// walker: unknown stays Unknown; ⟂ or a non-boolean in boolean position is
// False (conditions are total).
func truthOfCell(c cell) Truth {
	if !c.known {
		return Unknown
	}
	return truthOfValue(c.v)
}

// cellOfTruth is the inverse embedding, mirroring the walker's coercion of
// boolean nodes in value position: Unknown becomes an unknown cell.
func cellOfTruth(t Truth) cell {
	if t == Unknown {
		return cell{}
	}
	return cell{v: value.Bool(t == True), known: true}
}

// cmp3 is the three-valued comparison shared by all comparison opcodes: a
// known ⟂ operand decides the comparison (False) even while the other side
// is unknown, exactly as the walker. The operands stay where they are (a
// slot, a constant, a stack cell) and are read through pointers, an unknown
// operand is never dereferenced, and two numbers compare without leaving
// this function. NaN goes to compare, whose ordering of it (value.Compare
// answers "equal") is the walker's and must not be restated.
func cmp3(op CmpOp, l *value.Value, lKnown bool, r *value.Value, rKnown bool) Truth {
	if lKnown && value.NullAt(l) || rKnown && value.NullAt(r) {
		return False
	}
	if !lKnown || !rKnown {
		return Unknown
	}
	lf, lNum := value.NumericAt(l)
	rf, rNum := value.NumericAt(r)
	if !lNum || !rNum || lf != lf || rf != rf {
		return TruthOf(compare(op, *l, *r))
	}
	switch op {
	case EQ:
		return TruthOf(lf == rf)
	case NE:
		return TruthOf(lf != rf)
	case LT:
		return TruthOf(lf < rf)
	case LE:
		return TruthOf(lf <= rf)
	case GT:
		return TruthOf(lf > rf)
	case GE:
		return TruthOf(lf >= rf)
	}
	return False // out-of-range op, as compare
}

// run executes the program and returns the final stack pointers.
func (p *Program) run(m *Machine, vals []value.Value, known []bool) (vsp, tsp int) {
	if cap(m.vals) < p.maxVals {
		m.vals = make([]cell, p.maxVals)
	}
	if cap(m.truth) < p.maxTruth {
		m.truth = make([]Truth, p.maxTruth)
	}
	vst := m.vals[:cap(m.vals)]
	tst := m.truth[:cap(m.truth)]
	for _, in := range p.code {
		switch in.op {
		case opConst:
			vst[vsp] = cell{v: p.consts[in.a], known: true}
			vsp++
		case opSlot:
			vst[vsp] = cell{v: vals[in.a], known: known == nil || known[in.a]}
			vsp++
		case opArith:
			vsp--
			l, r := vst[vsp-1], vst[vsp]
			if !l.known || !r.known {
				vst[vsp-1] = cell{}
				break
			}
			var v value.Value
			switch ArithOp(in.x) {
			case OpAdd:
				v = value.Add(l.v, r.v)
			case OpSub:
				v = value.Sub(l.v, r.v)
			case OpMul:
				v = value.Mul(l.v, r.v)
			case OpDiv:
				v = value.Div(l.v, r.v)
			default:
				v = value.Null // out-of-range op: the walker yields known ⟂
			}
			vst[vsp-1] = cell{v: v, known: true}
		case opNeg:
			if c := vst[vsp-1]; c.known {
				vst[vsp-1] = cell{v: value.Neg(c.v), known: true}
			} else {
				vst[vsp-1] = cell{}
			}
		case opCmp:
			vsp -= 2
			l, r := &vst[vsp], &vst[vsp+1]
			tst[tsp] = cmp3(CmpOp(in.x), &l.v, l.known, &r.v, r.known)
			tsp++
		case opCmpSS:
			tst[tsp] = cmp3(CmpOp(in.x),
				&vals[in.a], known == nil || known[in.a],
				&vals[in.b], known == nil || known[in.b])
			tsp++
		case opCmpSC:
			tst[tsp] = cmp3(CmpOp(in.x),
				&vals[in.a], known == nil || known[in.a],
				&p.consts[in.b], true)
			tsp++
		case opCmpCS:
			tst[tsp] = cmp3(CmpOp(in.x),
				&p.consts[in.a], true,
				&vals[in.b], known == nil || known[in.b])
			tsp++
		case opAnd:
			n := int(in.a)
			out := True
			for i := tsp - n; i < tsp; i++ {
				switch tst[i] {
				case False:
					out = False
				case Unknown:
					if out == True {
						out = Unknown
					}
				}
			}
			tsp -= n
			tst[tsp] = out
			tsp++
		case opOr:
			n := int(in.a)
			out := False
			for i := tsp - n; i < tsp; i++ {
				switch tst[i] {
				case True:
					out = True
				case Unknown:
					if out == False {
						out = Unknown
					}
				}
			}
			tsp -= n
			tst[tsp] = out
			tsp++
		case opNot:
			tst[tsp-1] = NotT(tst[tsp-1])
		case opIsNull:
			vsp--
			if c := vst[vsp]; !c.known {
				tst[tsp] = Unknown
			} else {
				tst[tsp] = TruthOf(c.v.IsNull())
			}
			tsp++
		case opIsNullSlot:
			if known != nil && !known[in.a] {
				tst[tsp] = Unknown
			} else {
				tst[tsp] = TruthOf(vals[in.a].IsNull())
			}
			tsp++
		case opValToTruth:
			vsp--
			tst[tsp] = truthOfCell(vst[vsp])
			tsp++
		case opTruthToVal:
			tsp--
			vst[vsp] = cellOfTruth(tst[tsp])
			vsp++
		default:
			vsp = p.runCall(in, vst, vsp)
		}
	}
	return vsp, tsp
}

// runCall executes the builtin-call opcodes: pop argc cells, require every
// argument known (coalesce included, matching the walker's stability rule),
// apply the builtin. Returns the new value-stack pointer.
func (p *Program) runCall(in instr, vst []cell, vsp int) int {
	argc := int(in.a)
	args := vst[vsp-argc : vsp]
	vsp -= argc
	for _, a := range args {
		if !a.known {
			vst[vsp] = cell{}
			return vsp + 1
		}
	}
	var out value.Value
	switch in.op {
	case opLen:
		if !args[0].v.IsNull() {
			out = value.Int(int64(args[0].v.Len()))
		}
	case opContains:
		out = value.Bool(false)
		if list, ok := args[0].v.AsList(); ok {
			for _, e := range list {
				if value.Equal(e, args[1].v) {
					out = value.Bool(true)
					break
				}
			}
		}
	case opMin, opMax:
		if argc > 0 {
			out = args[0].v
			for _, a := range args[1:] {
				if in.op == opMin {
					out = value.Min(out, a.v)
				} else {
					out = value.Max(out, a.v)
				}
			}
		}
	case opCoalesce:
		for _, a := range args {
			if !a.v.IsNull() {
				out = a.v
				break
			}
		}
	case opNullCall:
		// Unknown builtin or wrong arity: total, yields ⟂.
	default:
		panic(fmt.Sprintf("expr: invalid opcode %d", in.op))
	}
	vst[vsp] = cell{v: out, known: true}
	return vsp + 1
}

// Compile flattens e into a postfix Program. resolve maps attribute names
// to dense slot indices (for schema conditions, the core.AttrID). It
// returns an error for attribute names resolve rejects and for node types
// outside the core AST (e.g. Cmp3Adapter test predicates) — callers fall
// back to the tree-walking evaluator in that case.
func Compile(e Expr, resolve func(name string) (slot int, ok bool)) (*Program, error) {
	c := compiler{resolve: resolve}
	kind, err := c.emit(e)
	if err != nil {
		return nil, err
	}
	return &Program{
		code:     c.code,
		consts:   c.consts,
		maxVals:  c.maxVals,
		maxTruth: c.maxTruth,
		boolRoot: kind == tBool,
	}, nil
}

// stackKind is the static type of a compiled subexpression: which stack its
// result lands on.
type stackKind uint8

const (
	tVal stackKind = iota
	tBool
)

type compiler struct {
	resolve  func(string) (int, bool)
	code     []instr
	consts   []value.Value
	vals     int
	truth    int
	maxVals  int
	maxTruth int
}

func (c *compiler) pushV(n int) {
	c.vals += n
	if c.vals > c.maxVals {
		c.maxVals = c.vals
	}
}

func (c *compiler) pushT(n int) {
	c.truth += n
	if c.truth > c.maxTruth {
		c.maxTruth = c.truth
	}
}

func (c *compiler) addConst(v value.Value) int32 {
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

// leafOperand classifies a comparison operand for fusion: a bare slot or a
// constant needs no stack traffic at all. Constants are only interned into
// the pool at the fusion site, so non-fused operands add no orphan entries.
func (c *compiler) leafOperand(e Expr) (slot int32, isSlot bool, konst value.Value, isConst bool, err error) {
	switch n := e.(type) {
	case Attr:
		s, ok := c.resolve(n.Name)
		if !ok {
			return 0, false, value.Null, false, fmt.Errorf("expr: compile: unresolvable attribute %q", n.Name)
		}
		return int32(s), true, value.Null, false, nil
	case Const:
		return 0, false, n.Val, true, nil
	}
	return 0, false, value.Null, false, nil
}

// emitBool emits e and coerces the result onto the truth stack.
func (c *compiler) emitBool(e Expr) error {
	kind, err := c.emit(e)
	if err != nil {
		return err
	}
	if kind == tVal {
		c.code = append(c.code, instr{op: opValToTruth})
		c.pushV(-1)
		c.pushT(+1)
	}
	return nil
}

// emitVal emits e and coerces the result onto the value stack.
func (c *compiler) emitVal(e Expr) error {
	kind, err := c.emit(e)
	if err != nil {
		return err
	}
	if kind == tBool {
		c.code = append(c.code, instr{op: opTruthToVal})
		c.pushT(-1)
		c.pushV(+1)
	}
	return nil
}

// emit compiles one node, reporting which stack its result occupies.
func (c *compiler) emit(e Expr) (stackKind, error) {
	switch n := e.(type) {
	case Const:
		c.code = append(c.code, instr{op: opConst, a: c.addConst(n.Val)})
		c.pushV(+1)
		return tVal, nil
	case Attr:
		slot, ok := c.resolve(n.Name)
		if !ok {
			return tVal, fmt.Errorf("expr: compile: unresolvable attribute %q", n.Name)
		}
		c.code = append(c.code, instr{op: opSlot, a: int32(slot)})
		c.pushV(+1)
		return tVal, nil
	case Cmp:
		lSlot, lIsSlot, lConst, lIsConst, err := c.leafOperand(n.L)
		if err != nil {
			return tBool, err
		}
		rSlot, rIsSlot, rConst, rIsConst, err := c.leafOperand(n.R)
		if err != nil {
			return tBool, err
		}
		switch {
		case lIsSlot && rIsSlot:
			c.code = append(c.code, instr{op: opCmpSS, x: uint8(n.Op), a: lSlot, b: rSlot})
		case lIsSlot && rIsConst:
			c.code = append(c.code, instr{op: opCmpSC, x: uint8(n.Op), a: lSlot, b: c.addConst(rConst)})
		case lIsConst && rIsSlot:
			c.code = append(c.code, instr{op: opCmpCS, x: uint8(n.Op), a: c.addConst(lConst), b: rSlot})
		case lIsConst && rIsConst:
			c.code = append(c.code, instr{op: opConst, a: c.addConst(lConst)})
			c.code = append(c.code, instr{op: opConst, a: c.addConst(rConst)})
			c.pushV(+2)
			c.code = append(c.code, instr{op: opCmp, x: uint8(n.Op)})
			c.pushV(-2)
		default:
			if err := c.emitVal(n.L); err != nil {
				return tBool, err
			}
			if err := c.emitVal(n.R); err != nil {
				return tBool, err
			}
			c.code = append(c.code, instr{op: opCmp, x: uint8(n.Op)})
			c.pushV(-2)
		}
		c.pushT(+1)
		return tBool, nil
	case And:
		return c.emitNary(opAnd, n.Exprs)
	case Or:
		return c.emitNary(opOr, n.Exprs)
	case Not:
		if err := c.emitBool(n.E); err != nil {
			return tBool, err
		}
		c.code = append(c.code, instr{op: opNot})
		return tBool, nil
	case IsNull:
		if a, ok := n.E.(Attr); ok {
			slot, ok := c.resolve(a.Name)
			if !ok {
				return tBool, fmt.Errorf("expr: compile: unresolvable attribute %q", a.Name)
			}
			c.code = append(c.code, instr{op: opIsNullSlot, a: int32(slot)})
			c.pushT(+1)
			return tBool, nil
		}
		if err := c.emitVal(n.E); err != nil {
			return tBool, err
		}
		c.code = append(c.code, instr{op: opIsNull})
		c.pushV(-1)
		c.pushT(+1)
		return tBool, nil
	case Arith:
		if err := c.emitVal(n.L); err != nil {
			return tVal, err
		}
		if err := c.emitVal(n.R); err != nil {
			return tVal, err
		}
		c.code = append(c.code, instr{op: opArith, x: uint8(n.Op)})
		c.pushV(-1)
		return tVal, nil
	case Neg:
		if err := c.emitVal(n.E); err != nil {
			return tVal, err
		}
		c.code = append(c.code, instr{op: opNeg})
		return tVal, nil
	case Call:
		for _, a := range n.Args {
			if err := c.emitVal(a); err != nil {
				return tVal, err
			}
		}
		op := opNullCall
		switch {
		case n.Fn == "len" && len(n.Args) == 1:
			op = opLen
		case n.Fn == "contains" && len(n.Args) == 2:
			op = opContains
		case n.Fn == "min":
			op = opMin
		case n.Fn == "max":
			op = opMax
		case n.Fn == "coalesce":
			op = opCoalesce
		}
		c.code = append(c.code, instr{op: op, a: int32(len(n.Args))})
		c.pushV(1 - len(n.Args))
		return tVal, nil
	default:
		return tVal, fmt.Errorf("expr: compile: unsupported node type %T", e)
	}
}

// emitNary compiles an n-ary Kleene connective. Zero and one operands are
// legal for directly constructed trees (the walker handles them), so the
// opcode takes the count.
func (c *compiler) emitNary(op opcode, exprs []Expr) (stackKind, error) {
	for _, sub := range exprs {
		if err := c.emitBool(sub); err != nil {
			return tBool, err
		}
	}
	c.code = append(c.code, instr{op: op, a: int32(len(exprs))})
	c.pushT(1 - len(exprs))
	return tBool, nil
}
