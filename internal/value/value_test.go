package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindBool:   "bool",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		KindList:   "list",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be null")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v, want null", v.Kind())
	}
	if !Identical(v, Null) {
		t.Fatal("zero Value must be identical to Null")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true) round trip failed")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Error("Int(-7) round trip failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float(2.5) round trip failed")
	}
	if f, ok := Int(4).AsFloat(); !ok || f != 4 {
		t.Error("Int(4).AsFloat() should widen to 4.0")
	}
	if s, ok := Str("hi").AsString(); !ok || s != "hi" {
		t.Error("Str round trip failed")
	}
	l, ok := List(Int(1), Str("x")).AsList()
	if !ok || len(l) != 2 {
		t.Fatal("List round trip failed")
	}
	if _, ok := Null.AsBool(); ok {
		t.Error("Null.AsBool() should not be ok")
	}
	if _, ok := Null.AsInt(); ok {
		t.Error("Null.AsInt() should not be ok")
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("string AsFloat should not be ok")
	}
}

func TestListCopiesInput(t *testing.T) {
	src := []Value{Int(1), Int(2)}
	v := List(src...)
	src[0] = Int(99)
	l, _ := v.AsList()
	if got, _ := l[0].AsInt(); got != 1 {
		t.Error("List must copy its input slice")
	}
}

func TestLen(t *testing.T) {
	if Null.Len() != 0 {
		t.Error("Null.Len() != 0")
	}
	if Str("abc").Len() != 3 {
		t.Error("string Len failed")
	}
	if List(Int(1), Int(2), Int(3)).Len() != 3 {
		t.Error("list Len failed")
	}
	if Int(5).Len() != 0 {
		t.Error("int Len should be 0")
	}
}

func TestTruth(t *testing.T) {
	if tr, ok := Bool(true).Truth(); !ok || !tr {
		t.Error("Bool(true).Truth() failed")
	}
	if tr, ok := Bool(false).Truth(); !ok || tr {
		t.Error("Bool(false).Truth() failed")
	}
	if _, ok := Null.Truth(); ok {
		t.Error("Null has no truth value")
	}
	if _, ok := Int(1).Truth(); ok {
		t.Error("Int has no truth value")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("Equal(null, null) must be false (SQL semantics)")
	}
	if Equal(Null, Int(1)) || Equal(Int(1), Null) {
		t.Error("Equal with one null must be false")
	}
	if !Identical(Null, Null) {
		t.Error("Identical(null, null) must be true")
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(Int(3), Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Equal(Int(3), Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Equal(Int(3), Str("3")) {
		t.Error("int and string are never equal")
	}
}

func TestIdenticalLists(t *testing.T) {
	a := List(Int(1), List(Str("x"), Null))
	b := List(Int(1), List(Str("x"), Null))
	c := List(Int(1), List(Str("y"), Null))
	if !Identical(a, b) {
		t.Error("structurally equal lists should be identical")
	}
	if Identical(a, c) {
		t.Error("different lists should not be identical")
	}
	if Identical(List(Int(1)), List(Int(1), Int(2))) {
		t.Error("different-length lists should not be identical")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(2.5), Int(2), 1, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Null, Int(1), 0, false},
		{Int(1), Null, 0, false},
		{Bool(true), Bool(true), 0, false},
		{List(Int(1)), List(Int(1)), 0, false},
		{Int(1), Str("1"), 0, false},
	}
	for _, tc := range tests {
		cmp, ok := Compare(tc.a, tc.b)
		if ok != tc.ok || (ok && cmp != tc.cmp) {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", tc.a, tc.b, cmp, ok, tc.cmp, tc.ok)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(Int(2), Int(3)); !Identical(got, Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(Int(2), Float(0.5)); !Identical(got, Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Add(Str("a"), Str("b")); !Identical(got, Str("ab")) {
		t.Errorf(`"a"+"b" = %v`, got)
	}
	if got := Add(List(Int(1)), List(Int(2))); !Identical(got, List(Int(1), Int(2))) {
		t.Errorf("list concat = %v", got)
	}
	if got := Add(Null, Int(1)); !got.IsNull() {
		t.Errorf("null+1 = %v, want null", got)
	}
	if got := Add(Int(1), Str("x")); !got.IsNull() {
		t.Errorf("1+\"x\" = %v, want null", got)
	}
	if got := Sub(Int(5), Int(3)); !Identical(got, Int(2)) {
		t.Errorf("5-3 = %v", got)
	}
	if got := Sub(Float(1), Float(0.25)); !Identical(got, Float(0.75)) {
		t.Errorf("1-0.25 = %v", got)
	}
	if got := Sub(Str("a"), Str("b")); !got.IsNull() {
		t.Error("string subtraction must be null")
	}
	if got := Mul(Int(4), Int(3)); !Identical(got, Int(12)) {
		t.Errorf("4*3 = %v", got)
	}
	if got := Mul(Float(0.5), Int(4)); !Identical(got, Float(2)) {
		t.Errorf("0.5*4 = %v", got)
	}
	if got := Div(Int(7), Int(2)); !Identical(got, Int(3)) {
		t.Errorf("7/2 = %v (integer division)", got)
	}
	if got := Div(Float(7), Int(2)); !Identical(got, Float(3.5)) {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := Div(Int(1), Int(0)); !got.IsNull() {
		t.Error("division by zero must be null")
	}
	if got := Div(Float(1), Float(0)); !got.IsNull() {
		t.Error("float division by zero must be null")
	}
	if got := Neg(Int(3)); !Identical(got, Int(-3)) {
		t.Errorf("-3 = %v", got)
	}
	if got := Neg(Float(2.5)); !Identical(got, Float(-2.5)) {
		t.Errorf("-2.5 = %v", got)
	}
	if got := Neg(Str("x")); !got.IsNull() {
		t.Error("negating a string must be null")
	}
}

func TestMinMax(t *testing.T) {
	if got := Min(Int(2), Int(5)); !Identical(got, Int(2)) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(Int(2), Int(5)); !Identical(got, Int(5)) {
		t.Errorf("Max = %v", got)
	}
	if got := Min(Null, Int(1)); !got.IsNull() {
		t.Error("Min with null must be null")
	}
	if got := Max(Str("a"), Int(1)); !got.IsNull() {
		t.Error("Max of incomparable must be null")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"null":        Null,
		"true":        Bool(true),
		"false":       Bool(false),
		"42":          Int(42),
		"-3":          Int(-3),
		"2.5":         Float(2.5),
		"3.0":         Float(3), // float must not print as int
		`"hi"`:        Str("hi"),
		`"a\"b"`:      Str(`a"b`),
		"[1, \"x\"]":  List(Int(1), Str("x")),
		"[]":          List(),
		"+inf":        Float(math.Inf(1)),
		"-inf":        Float(math.Inf(-1)),
		"[null, 2.5]": List(Null, Float(2.5)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

// TestAppendStringMatchesString pins AppendString to String's rendering,
// and both to the bytes String produced before AppendString existed: query
// identities are rendered this way and hashed for cluster shard and peer
// home placement, so one changed byte would move a query to another shard.
func TestAppendStringMatchesString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(0), "0"},
		{Int(7), "7"},
		{Int(99), "99"},
		{Int(100), "100"},
		{Int(-1), "-1"},
		{Int(-120), "-120"},
		{Int(math.MaxInt64), "9223372036854775807"},
		{Int(math.MinInt64), "-9223372036854775808"},
		{Float(1.0), "1.0"},
		{Float(0.1), "0.1"},
		{Float(1e21), "1e+21"},
		{Float(math.Copysign(0, -1)), "-0.0"},
		{Float(math.NaN()), "NaN"},
		{Float(math.Inf(1)), "+inf"},
		{Float(math.Inf(-1)), "-inf"},
		{Float(-8), "-8.0"},
		{Float(2.5e-7), "2.5e-07"},
		{Float(123456789), "1.23456789e+08"},
		{Str(""), `""`},
		{Str(`say "hi"`), `"say \"hi\""`},
		{Str("tab\tnew\nline\\"), `"tab\tnew\nline\\"`},
		{Str("héllo, 世界"), `"héllo, 世界"`},
		{Str("\x00\x1f\x7f"), `"\x00\x1f\x7f"`},
		{Str("\xff"), `"\xff"`},
		{List(), "[]"},
		{List(Int(1), Str("x")), `[1, "x"]`},
		{List(Null, List(Float(2), List(Bool(false))), Str("]")), `[null, [2.0, [false]], "]"]`},
	}
	for _, tc := range cases {
		if got := string(tc.v.AppendString(nil)); got != tc.want {
			t.Errorf("AppendString(nil) of %#v = %q, want %q", tc.v, got, tc.want)
		}
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() of %#v = %q, want %q", tc.v, got, tc.want)
		}
		// Appending keeps what the buffer already holds.
		if got := string(tc.v.AppendString([]byte("x\x1f"))); got != "x\x1f"+tc.want {
			t.Errorf("AppendString onto a prefix = %q, want %q", got, "x\x1f"+tc.want)
		}
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{Int(3), Int(1), Float(2.5), Int(2)}
	SortValues(vs)
	want := []Value{Int(1), Int(2), Float(2.5), Int(3)}
	for i := range want {
		if !Identical(vs[i], want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}

func TestSortValuesWithIncomparable(t *testing.T) {
	vs := []Value{Str("b"), Null, Str("a")}
	SortValues(vs) // must not panic; nulls treated as equal to everything
	n := 0
	for _, v := range vs {
		if v.IsNull() {
			n++
		}
	}
	if n != 1 || len(vs) != 3 {
		t.Fatal("sort must preserve elements")
	}
}

// Property: Identical is reflexive for any int/float/string/bool value.
func TestIdenticalReflexiveQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(fl), Str(s), Bool(b)} {
			if fl != fl && v.Kind() == KindFloat {
				continue // NaN is not equal to itself; acceptable
			}
			if !Identical(v, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric on integers.
func TestCompareAntisymmetricQuick(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Compare(Int(a), Int(b))
		c2, ok2 := Compare(Int(b), Int(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add/Sub are inverse on integers (no overflow checks needed for
// the property modulo 2^64 arithmetic).
func TestAddSubInverseQuick(t *testing.T) {
	f := func(a, b int64) bool {
		sum := Add(Int(a), Int(b))
		back := Sub(sum, Int(b))
		return Identical(back, Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any arithmetic op with a null operand yields null.
func TestNullAbsorbsQuick(t *testing.T) {
	f := func(a int64) bool {
		v := Int(a)
		return Add(v, Null).IsNull() && Add(Null, v).IsNull() &&
			Sub(v, Null).IsNull() && Mul(Null, v).IsNull() && Div(v, Null).IsNull()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
