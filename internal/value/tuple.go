package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strings"
)

// Tuple is a row of values. Tuples are compared and hashed positionally.
type Tuple []Value

// Clone returns a copy of t that shares no storage with it.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// CompareTuples orders a against b lexicographically, with shorter tuples
// sorting first on ties.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// TuplesEqual reports whether a and b have the same length and all
// positions compare equal.
func TuplesEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	return CompareTuples(a, b) == 0
}

// Key encodes the tuple into a string usable as a map key. The encoding is
// injective over tuples of equal layout and normalizes INT/FLOAT so that
// numerically equal values share a key (matching Compare semantics).
func (t Tuple) Key() string {
	var b strings.Builder
	b.Grow(len(t) * 12)
	for _, v := range t {
		appendValueKey(&b, v)
	}
	return b.String()
}

// KeyOf encodes the projection of t onto the given column positions.
func KeyOf(t Tuple, cols []int) string {
	var b strings.Builder
	b.Grow(len(cols) * 12)
	for _, c := range cols {
		appendValueKey(&b, t[c])
	}
	return b.String()
}

func appendValueKey(b *strings.Builder, v Value) {
	tag, w := keyWord(v)
	switch tag {
	case 'n':
		b.WriteByte('n')
	case 'b':
		if w == 1 {
			b.WriteString("b1")
		} else {
			b.WriteString("b0")
		}
	default:
		var buf [9]byte
		buf[0] = tag
		binary.BigEndian.PutUint64(buf[1:], w)
		b.Write(buf[:])
		if tag == 't' {
			b.WriteString(v.S)
		}
	}
}

// keyWord returns the canonical form v's key is encoded from: a tag
// ('n', 'i', 'f', 't' or 'b') and one word (the integer, the float bits,
// the text length, or the bool). A text's bytes follow the word. Ints are
// encoded as floats when they are exactly representable, so Int(1) and
// Float(1) share a key, mirroring Compare; large ints that would lose
// precision keep a distinct integer encoding. -0.0 is normalized so it
// shares a key with +0.0.
func keyWord(v Value) (tag byte, w uint64) {
	switch v.K {
	case KindInt:
		if f := float64(v.I); int64(f) == v.I {
			return 'f', math.Float64bits(f)
		}
		return 'i', uint64(v.I)
	case KindFloat:
		f := v.F
		if f == 0 {
			f = 0
		}
		return 'f', math.Float64bits(f)
	case KindText:
		return 't', uint64(len(v.S))
	case KindBool:
		if v.B {
			return 'b', 1
		}
		return 'b', 0
	default:
		return 'n', 0
	}
}

// SameKey reports whether a.Key() == b.Key() without building either
// string.
func SameKey(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ta, wa := keyWord(a[i])
		tb, wb := keyWord(b[i])
		if ta != tb || wa != wb || (ta == 't' && a[i].S != b[i].S) {
			return false
		}
	}
	return true
}

// textSeed seeds the hash of text values. Hashes never leave the process,
// so a per-process seed is enough.
var textSeed = maphash.MakeSeed()

// HashTuple hashes t consistently with Key: tuples with equal keys hash
// equally. It builds no string; unequal keys may collide, so a hash match
// must be confirmed with SameKey.
func HashTuple(t Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		tag, w := keyWord(v)
		if tag == 't' {
			w = maphash.String(textSeed, v.S)
		}
		h = mix64(mix64(h^uint64(tag)) ^ w)
	}
	return h
}

// mix64 is the MurmurHash3 64-bit finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Concat returns the concatenation of a and b as a fresh tuple.
func Concat(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Project returns the sub-tuple of t at the given positions.
func Project(t Tuple, cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// TupleString renders t as a parenthesized SQL-style row literal.
func TupleString(t Tuple) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
