package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:  "NULL",
		KindInt:   "INT",
		KindFloat: "FLOAT",
		KindText:  "TEXT",
		KindBool:  "BOOL",
		Kind(99):  "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndPredicates(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if Int(3).IsNull() || Text("x").IsNull() {
		t.Error("non-null values reported null")
	}
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() {
		t.Error("numeric kinds not numeric")
	}
	if Text("1").IsNumeric() || Bool(true).IsNumeric() {
		t.Error("non-numeric kinds reported numeric")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int.AsFloat wrong")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float.AsFloat wrong")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-42), "-42"},
		{Float(1.5), "1.5"},
		{Text("a'b"), "'a''b'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestGoRoundTrip(t *testing.T) {
	if got := Null().Go(); got != nil {
		t.Errorf("Null.Go() = %v", got)
	}
	if got := Int(5).Go(); got != int64(5) {
		t.Errorf("Int.Go() = %v", got)
	}
	if got := Text("s").Go(); got != "s" {
		t.Errorf("Text.Go() = %v", got)
	}
	if got := Bool(true).Go(); got != true {
		t.Errorf("Bool.Go() = %v", got)
	}
	if got := Float(1.25).Go(); got != 1.25 {
		t.Errorf("Float.Go() = %v", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Float(0.5), Int(1), -1},
		{Float(2.5), Float(2.5), 0},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Int(1), Text("1"), -1}, // ordered by kind tag
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if !Equal(Int(1), Float(1)) {
		t.Error("Int(1) should Equal Float(1)")
	}
	if Equal(Int(1), Int(2)) {
		t.Error("Int(1) should not Equal Int(2)")
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(KindInt, KindFloat) || !Comparable(KindText, KindText) {
		t.Error("expected comparable")
	}
	if Comparable(KindText, KindInt) || Comparable(KindBool, KindInt) {
		t.Error("expected not comparable")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(Int(3), KindFloat)
	if err != nil || v != Float(3) {
		t.Errorf("Coerce int->float: %v, %v", v, err)
	}
	v, err = Coerce(Float(4), KindInt)
	if err != nil || v != Int(4) {
		t.Errorf("Coerce float->int: %v, %v", v, err)
	}
	if _, err = Coerce(Float(4.5), KindInt); err == nil {
		t.Error("lossy float->int coercion should fail")
	}
	if _, err = Coerce(Text("x"), KindInt); err == nil {
		t.Error("text->int coercion should fail")
	}
	v, err = Coerce(Null(), KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("Coerce null: %v, %v", v, err)
	}
	v, err = Coerce(Int(5), KindInt)
	if err != nil || v != Int(5) {
		t.Errorf("Coerce identity: %v, %v", v, err)
	}
}

// quick-check generator: derive a Value from arbitrary raw inputs.
func valueFrom(kind uint8, i int64, f float64, s string, b bool) Value {
	switch kind % 5 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		if math.IsNaN(f) {
			f = 0
		}
		return Float(f)
	case 3:
		return Text(s)
	default:
		return Bool(b)
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(k1 uint8, i1 int64, f1 float64, s1 string, b1 bool,
		k2 uint8, i2 int64, f2 float64, s2 string, b2 bool) bool {
		a := valueFrom(k1, i1, f1, s1, b1)
		b := valueFrom(k2, i2, f2, s2, b2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	// Reflexivity.
	refl := func(k uint8, i int64, f float64, s string, b bool) bool {
		v := valueFrom(k, i, f, s, b)
		return Compare(v, v) == 0
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	tr := func(k1 uint8, i1 int64, k2 uint8, i2 int64, k3 uint8, i3 int64) bool {
		a := valueFrom(k1, i1, float64(i1), "", false)
		b := valueFrom(k2, i2, float64(i2), "", false)
		c := valueFrom(k3, i3, float64(i3), "", false)
		vs := []Value{a, b, c}
		sort.Slice(vs, func(x, y int) bool { return Compare(vs[x], vs[y]) < 0 })
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(tr, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyAgreesWithEqualProperty(t *testing.T) {
	prop := func(k1 uint8, i1 int64, f1 float64, s1 string, b1 bool,
		k2 uint8, i2 int64, f2 float64, s2 string, b2 bool) bool {
		a := valueFrom(k1, i1, f1, s1, b1)
		b := valueFrom(k2, i2, f2, s2, b2)
		ka := Tuple{a}.Key()
		kb := Tuple{b}.Key()
		if Equal(a, b) {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
