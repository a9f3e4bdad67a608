// Package value implements the dynamic value domain used by decision flow
// attributes.
//
// The decision flow model of Hull et al. (ICDE 2000) requires every attribute
// to carry either a concrete value or the distinguished null value ⟂ (the
// value taken by an attribute whose enabling condition is false, or whose
// producing task could not supply data). Tasks must be able to execute even
// when some of their inputs are ⟂, so ⟂ is a first-class citizen of the
// domain rather than an error.
//
// The domain is deliberately small — null, booleans, 64-bit integers, 64-bit
// floats, strings and lists — matching what the paper's schemas need
// (scores, hit lists, profile fields, flags). Comparison semantics follow
// SQL-style null handling: any ordering or equality comparison involving ⟂
// is false; IsNull is the only predicate that observes ⟂ directly. This
// keeps the declarative complete-snapshot semantics total and deterministic.
package value

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value may hold.
type Kind uint8

// The possible kinds of a Value.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value. The zero Value is ⟂ (null).
//
// Value is immutable by convention: once constructed it must not be
// modified. This matches the paper's monotonicity property — an attribute
// value, once assigned, is never overwritten — and makes Values safe to
// share across goroutines without synchronization.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	list []Value
}

// Null is the distinguished ⟂ value.
var Null = Value{}

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String_ returns a string Value. (Named with a trailing underscore so the
// type's String method keeps the canonical fmt.Stringer meaning.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a shorter alias for String_.
func Str(s string) Value { return String_(s) }

// List returns a list Value holding the given elements. The slice is copied
// so later mutation of the argument cannot break immutability.
func List(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindList, list: cp}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is ⟂.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean held by v. ok is false when v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer held by v. ok is false when v is not an int.
func (v Value) AsInt() (i int64, ok bool) { return v.i, v.kind == KindInt }

// AsFloat returns the numeric content of v as a float64. Both int and float
// kinds succeed; ok is false otherwise.
func (v Value) AsFloat() (f float64, ok bool) { return NumericAt(&v) }

// NullAt and NumericAt are IsNull and AsFloat for a value read where it
// lies: through the pointer they load the kind byte and the number only,
// where the methods (value receivers on a 64-byte struct) copy the whole
// value first. Compiled condition programs compare slots through them.
func NullAt(v *Value) bool { return v.kind == KindNull }

// NumericAt returns the numeric content of *v as a float64; see NullAt.
func NumericAt(v *Value) (f float64, ok bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string held by v. ok is false when v is not a string.
func (v Value) AsString() (s string, ok bool) { return v.s, v.kind == KindString }

// AsList returns the elements held by v. The returned slice must not be
// modified. ok is false when v is not a list.
func (v Value) AsList() (elems []Value, ok bool) { return v.list, v.kind == KindList }

// Len returns the number of elements of a list value, the number of bytes of
// a string, and 0 for every other kind (including ⟂).
func (v Value) Len() int {
	switch v.kind {
	case KindList:
		return len(v.list)
	case KindString:
		return len(v.s)
	default:
		return 0
	}
}

// IsNumeric reports whether v holds an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Truth converts v to a truth value for use in conditions. A bool converts
// to itself; ⟂ has no truth value (ok = false); every other kind also has no
// truth value. The three-valued condition evaluator builds on this.
func (v Value) Truth() (truth, ok bool) {
	if v.kind == KindBool {
		return v.b, true
	}
	return false, false
}

// Equal reports whether two values are equal under SQL-style semantics:
// any comparison involving ⟂ is false; numeric int/float compare by value;
// lists compare element-wise. Note that Equal(Null, Null) is false — use
// Identical for structural equality including nulls.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Identical(a, b)
}

// Identical reports structural equality, treating ⟂ as equal to ⟂.
// It is the equality used for snapshot comparison and testing.
func Identical(a, b Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return af == bf
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindBool:
		return a.b == b.b
	case KindInt:
		return a.i == b.i
	case KindFloat:
		return a.f == b.f
	case KindString:
		return a.s == b.s
	case KindList:
		if len(a.list) != len(b.list) {
			return false
		}
		for i := range a.list {
			if !Identical(a.list[i], b.list[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values. It returns (ordering, ok); ok is false when the
// values are not comparable (either is ⟂, kinds are incompatible, or either
// is a list or bool). Numeric values compare numerically across int/float;
// strings compare lexicographically.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s), true
	}
	return 0, false
}

// Add returns a+b for numeric values, string concatenation for strings, and
// list concatenation for lists; ⟂ if either operand is ⟂ or the kinds are
// incompatible. Integer addition stays integral; mixing int and float
// produces a float.
func Add(a, b Value) Value {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i + b.i)
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return Float(af + bf)
	case a.kind == KindString && b.kind == KindString:
		return Str(a.s + b.s)
	case a.kind == KindList && b.kind == KindList:
		elems := make([]Value, 0, len(a.list)+len(b.list))
		elems = append(elems, a.list...)
		elems = append(elems, b.list...)
		return Value{kind: KindList, list: elems}
	default:
		return Null
	}
}

// Sub returns a-b for numeric values; ⟂ otherwise.
func Sub(a, b Value) Value {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i - b.i)
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return Float(af - bf)
	default:
		return Null
	}
}

// Mul returns a*b for numeric values; ⟂ otherwise.
func Mul(a, b Value) Value {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i * b.i)
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return Float(af * bf)
	default:
		return Null
	}
}

// Div returns a/b for numeric values; ⟂ for division by zero or
// non-numeric operands. Integer division of ints truncates toward zero.
func Div(a, b Value) Value {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null
		}
		return Int(a.i / b.i)
	case a.IsNumeric() && b.IsNumeric():
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if bf == 0 {
			return Null
		}
		return Float(af / bf)
	default:
		return Null
	}
}

// Neg returns -a for numeric values; ⟂ otherwise.
func Neg(a Value) Value {
	switch a.kind {
	case KindInt:
		return Int(-a.i)
	case KindFloat:
		return Float(-a.f)
	default:
		return Null
	}
}

// Min returns the smaller of a and b under Compare; ⟂ when incomparable.
func Min(a, b Value) Value {
	c, ok := Compare(a, b)
	if !ok {
		return Null
	}
	if c <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b under Compare; ⟂ when incomparable.
func Max(a, b Value) Value {
	c, ok := Compare(a, b)
	if !ok {
		return Null
	}
	if c >= 0 {
		return a
	}
	return b
}

// String renders v in the textual syntax accepted by the expression parser:
// null, true/false, decimal numbers, double-quoted strings, and
// bracket-delimited lists.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends String's rendering of v to dst and returns the
// extended buffer, without building the string.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		if math.IsInf(v.f, 1) {
			return append(dst, "+inf"...)
		}
		if math.IsInf(v.f, -1) {
			return append(dst, "-inf"...)
		}
		start := len(dst)
		dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
		// Ensure floats round-trip as floats, not ints ('N' is NaN's).
		if !bytes.ContainsAny(dst[start:], ".eEN") {
			dst = append(dst, ".0"...)
		}
		return dst
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	case KindList:
		dst = append(dst, '[')
		for i, e := range v.list {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.AppendString(dst)
		}
		return append(dst, ']')
	default:
		return fmt.Appendf(dst, "Value(kind=%d)", v.kind)
	}
}

// SortValues sorts a slice of mutually comparable values in ascending order.
// Incomparable pairs keep their relative order (the sort is stable and
// treats them as equal), so the function is total.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool {
		c, ok := Compare(vs[i], vs[j])
		return ok && c < 0
	})
}
