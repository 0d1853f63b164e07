package value

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestTupleHashAgreesWithKey pins the contract the storage row index
// relies on: SameKey holds exactly when the keys are equal, and equal keys
// hash equally.
func TestTupleHashAgreesWithKey(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		name string
		a, b Tuple
		same bool
	}{
		{"empty", Tuple{}, Tuple{}, true},
		{"null", Tuple{Null()}, Tuple{Null()}, true},
		{"null vs zero", Tuple{Null()}, Tuple{Int(0)}, false},
		{"null vs empty text", Tuple{Null()}, Tuple{Text("")}, false},
		{"+0.0 vs -0.0", Tuple{Float(0)}, Tuple{Float(math.Copysign(0, -1))}, true},
		{"int 0 vs -0.0", Tuple{Int(0)}, Tuple{Float(math.Copysign(0, -1))}, true},
		{"int vs float", Tuple{Int(1)}, Tuple{Float(1)}, true},
		{"int vs fractional float", Tuple{Int(1)}, Tuple{Float(1.5)}, false},
		{"2^53 int vs float", Tuple{Int(big)}, Tuple{Float(float64(big))}, true},
		{"2^53+1 int vs 2^53 float", Tuple{Int(big + 1)}, Tuple{Float(float64(big))}, false},
		{"2^53+1 int vs itself", Tuple{Int(big + 1)}, Tuple{Int(big + 1)}, true},
		{"2^53+1 vs 2^53+3", Tuple{Int(big + 1)}, Tuple{Int(big + 3)}, false},
		{"min int", Tuple{Int(math.MinInt64)}, Tuple{Int(math.MinInt64)}, true},
		{"max int vs min int", Tuple{Int(math.MaxInt64)}, Tuple{Int(math.MinInt64)}, false},
		{"text concatenation", Tuple{Text("a"), Text("bc")}, Tuple{Text("ab"), Text("c")}, false},
		{"text shifted into empty", Tuple{Text("ab"), Text("")}, Tuple{Text(""), Text("ab")}, false},
		{"text", Tuple{Text("x"), Int(2)}, Tuple{Text("x"), Float(2)}, true},
		{"text vs int", Tuple{Text("1")}, Tuple{Int(1)}, false},
		{"bool", Tuple{Bool(true)}, Tuple{Bool(true)}, true},
		{"bool vs bool", Tuple{Bool(true)}, Tuple{Bool(false)}, false},
		{"bool vs int", Tuple{Bool(true)}, Tuple{Int(1)}, false},
		{"false vs null", Tuple{Bool(false)}, Tuple{Null()}, false},
		{"arity", Tuple{Int(1)}, Tuple{Int(1), Null()}, false},
		{"positions", Tuple{Int(1), Int(2)}, Tuple{Int(2), Int(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Key() == c.b.Key(); got != c.same {
				t.Fatalf("Key equality = %v, want %v", got, c.same)
			}
			if SameKey(c.a, c.b) != c.same || SameKey(c.b, c.a) != c.same {
				t.Fatalf("SameKey = %v/%v, want %v", SameKey(c.a, c.b), SameKey(c.b, c.a), c.same)
			}
			ha, hb := HashTuple(c.a), HashTuple(c.b)
			if c.same && ha != hb {
				t.Fatalf("equal keys hash to %x and %x", ha, hb)
			}
			if !c.same && ha == hb {
				t.Fatalf("distinct keys collide at %x", ha)
			}
		})
	}
}

// FuzzTupleHash checks the SameKey/Key/HashTuple contract on arbitrary
// tuple pairs, plus each tuple against a re-encoded twin whose ints are
// floats where exact and whose zeros are negative, which must keep the key.
func FuzzTupleHash(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{3, 1, 'a', 3, 2, 'b', 'c'}, []byte{3, 2, 'a', 'b', 3, 1, 'c'})
	f.Add([]byte{0, 4, 1, 1, 1, 0, 0, 0, 0, 0, 0x20}, []byte{0, 4, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := decodeTuple(da), decodeTuple(db)
		checkHashContract(t, a, b)
		checkHashContract(t, a, twin(a))
		checkHashContract(t, b, twin(b))
		if !SameKey(a, twin(a)) {
			t.Fatalf("re-encoded twin of %v changed its key", a)
		}
	})
}

func checkHashContract(t *testing.T, a, b Tuple) {
	t.Helper()
	keys := a.Key() == b.Key()
	if SameKey(a, b) != keys {
		t.Fatalf("SameKey(%v, %v) = %v, key equality %v", a, b, SameKey(a, b), keys)
	}
	if keys && HashTuple(a) != HashTuple(b) {
		t.Fatalf("equal keys of %v and %v hash differently", a, b)
	}
}

// decodeTuple reads values from data: a kind byte, then the payload (8
// bytes for numbers, a length byte plus text bytes, one byte for bools).
// Truncated input ends the tuple.
func decodeTuple(data []byte) Tuple {
	var out Tuple
	for len(data) > 0 {
		k := data[0] % 5
		data = data[1:]
		switch Kind(k) {
		case KindNull:
			out = append(out, Null())
		case KindInt, KindFloat:
			if len(data) < 8 {
				return out
			}
			w := binary.LittleEndian.Uint64(data)
			data = data[8:]
			if Kind(k) == KindInt {
				out = append(out, Int(int64(w)))
			} else {
				out = append(out, Float(math.Float64frombits(w)))
			}
		case KindText:
			if len(data) < 1 || len(data) < 1+int(data[0]) {
				return out
			}
			n := int(data[0])
			out = append(out, Text(string(data[1:1+n])))
			data = data[1+n:]
		case KindBool:
			if len(data) < 1 {
				return out
			}
			out = append(out, Bool(data[0]&1 == 1))
			data = data[1:]
		}
	}
	return out
}

// twin re-encodes t without changing its key.
func twin(t Tuple) Tuple {
	out := t.Clone()
	for i, v := range out {
		switch {
		case v.K == KindInt && int64(float64(v.I)) == v.I:
			out[i] = Float(float64(v.I))
		case v.K == KindFloat && v.F == 0:
			out[i] = Float(math.Copysign(0, -1))
		}
	}
	return out
}
