// Package value implements the typed scalar values manipulated by the
// embedded relational engine and the Hippo consistent-query-answering
// pipeline: NULL, 64-bit integers, 64-bit floats, text, and booleans.
//
// Values are small comparable structs (no interface boxing) so they can be
// used directly as map keys and stored densely in row slices. Comparison
// follows SQL-ish semantics with numeric coercion between INT and FLOAT;
// NULL ordering is total (NULL sorts first) so that values can be used in
// deterministic sorts and set operations, while three-valued logic for
// predicates is handled one level up in the expression evaluator.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed scalar. The zero Value is NULL.
//
// Only the field matching K is meaningful; the others stay at their zero
// values, which keeps Value comparable with == and usable as a map key.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INT value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{K: KindText, S: s} }

// Bool returns a BOOL value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat returns the numeric value of v as a float64. It is only valid for
// numeric kinds.
func (v Value) AsFloat() float64 {
	if v.K == KindInt {
		return float64(v.I)
	}
	return v.F
}

// String renders the value in SQL literal style.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.K))
	}
}

// Go returns the value as a native Go value (nil, int64, float64, string, or
// bool), the representation hippod encodes as JSON.
func (v Value) Go() any {
	switch v.K {
	case KindInt:
		return v.I
	case KindFloat:
		return v.F
	case KindText:
		return v.S
	case KindBool:
		return v.B
	default:
		return nil
	}
}

// Comparable reports whether values of kinds a and b can be ordered against
// each other: identical kinds, or any two numeric kinds.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return numeric(a) && numeric(b)
}

// Compare orders a against b, returning -1, 0, or +1. NULL sorts before
// everything; mixed INT/FLOAT comparisons coerce to float64; otherwise
// values of different kinds are ordered by kind tag. This is a total order
// intended for sorting and set semantics — SQL three-valued comparison
// semantics live in the expression evaluator.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindText:
		return strings.Compare(a.S, b.S)
	case KindBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// Equal reports whether a and b compare equal under Compare. Note that
// Int(1) and Float(1.0) are Equal even though a == b on the structs is
// false.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce converts v to the requested kind if a lossless or conventional SQL
// conversion exists (INT↔FLOAT, anything from NULL stays NULL, TEXT parsing
// is not attempted). It returns an error for incompatible conversions.
func Coerce(v Value, k Kind) (Value, error) {
	if v.K == k || v.K == KindNull {
		return v, nil
	}
	switch {
	case v.K == KindInt && k == KindFloat:
		return Float(float64(v.I)), nil
	case v.K == KindFloat && k == KindInt:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return Int(int64(v.F)), nil
		}
		return Value{}, fmt.Errorf("value: cannot coerce %s to INT without loss", v)
	default:
		return Value{}, fmt.Errorf("value: cannot coerce %s (%s) to %s", v, v.K, k)
	}
}
