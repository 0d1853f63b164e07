package aggregate

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/repair"
	"hippo/internal/value"
)

func fd() constraint.FD {
	return constraint.FD{Rel: "r", LHS: []string{"k"}, RHS: []string{"v"}}
}

func newDB(t *testing.T, rows string) *engine.DB {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE r (k INT, v INT, w INT)")
	if rows != "" {
		mustExec(db, "INSERT INTO r VALUES "+rows)
	}
	return db
}

func run(t *testing.T, db *engine.DB, fn Func, attr, where string) Range {
	t.Helper()
	r, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: fn, Attr: attr, Where: where, FD: fd()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCountRange(t *testing.T) {
	// Group k=1 has partitions {v=1: 2 tuples}, {v=2: 1 tuple};
	// k=2 is clean with 1 tuple.
	db := newDB(t, "(1,1,10), (1,1,11), (1,2,12), (2,5,13)")
	r := run(t, db, Count, "", "")
	if r.Lower != value.Int(2) || r.Upper != value.Int(3) || r.MayBeEmpty {
		t.Errorf("count range = %v", r)
	}
}

func TestSumRange(t *testing.T) {
	db := newDB(t, "(1,1,10), (1,2,20), (2,5,5)")
	// Repairs: keep (1,1) or (1,2); w sums: 10+5=15 or 20+5=25.
	r := run(t, db, Sum, "w", "")
	if r.Lower != value.Int(15) || r.Upper != value.Int(25) {
		t.Errorf("sum range = %v", r)
	}
}

func TestMinMaxRange(t *testing.T) {
	db := newDB(t, "(1,1,10), (1,2,20), (2,5,5)")
	// MIN(w): repairs give min(10,5)=5 or min(20,5)=5 → [5,5].
	r := run(t, db, Min, "w", "")
	if r.Lower != value.Int(5) || r.Upper != value.Int(5) {
		t.Errorf("min range = %v", r)
	}
	// MAX(w): 10 or 20 both > 5 → [10,20].
	r = run(t, db, Max, "w", "")
	if r.Lower != value.Int(10) || r.Upper != value.Int(20) {
		t.Errorf("max range = %v", r)
	}
}

func TestRangeWithFilter(t *testing.T) {
	db := newDB(t, "(1,1,10), (1,2,20), (2,5,30)")
	// Filter w > 15: partition (1,v=1) has no qualifying tuples → the
	// group can escape; MIN over qualifying: repairs {20,30} or {30}.
	r := run(t, db, Min, "w", "w > 15")
	if r.Lower != value.Int(20) || r.Upper != value.Int(30) || r.MayBeEmpty {
		t.Errorf("filtered min = %v", r)
	}
	// COUNT with the same filter: 1 or 2 qualifying rows.
	r = run(t, db, Count, "", "w > 15")
	if r.Lower != value.Int(1) || r.Upper != value.Int(2) {
		t.Errorf("filtered count = %v", r)
	}
}

func TestEmptyAndMayBeEmpty(t *testing.T) {
	db := newDB(t, "")
	r := run(t, db, Count, "", "")
	if r.Lower != value.Int(0) || !r.MayBeEmpty {
		t.Errorf("empty count = %v", r)
	}
	r = run(t, db, Min, "w", "")
	if !r.Lower.IsNull() || !r.MayBeEmpty {
		t.Errorf("empty min = %v", r)
	}
	// All qualifying tuples can vanish: k=1 group has one partition
	// qualifying, one not.
	db = newDB(t, "(1,1,10), (1,2,99)")
	r = run(t, db, Min, "w", "w < 50")
	if !r.MayBeEmpty {
		t.Errorf("min should be possibly-empty: %v", r)
	}
	if r.Lower != value.Int(10) || r.Upper != value.Int(10) {
		t.Errorf("min over defined repairs = %v", r)
	}
}

func TestNullsAreSkipped(t *testing.T) {
	db := newDB(t, "(1,1,NULL), (1,2,20), (2,5,5)")
	// Partition (1,v=1) has only a NULL w → contributes nothing to MIN.
	r := run(t, db, Min, "w", "")
	if r.Lower != value.Int(5) || r.Upper != value.Int(5) {
		t.Errorf("min with nulls = %v", r)
	}
	if !r.MayBeEmpty == false { // k=2 always contributes
		t.Errorf("mayBeEmpty = %v", r.MayBeEmpty)
	}
}

// A NULL in the FD's left-hand side or in its single-column right-hand
// side makes the denial unknown, so the tuple conflicts with nothing and
// every repair keeps it.
func TestNullFDColumnsConflictWithNothing(t *testing.T) {
	for _, rows := range []string{"(NULL,1,5), (NULL,2,7)", "(1,NULL,5), (1,2,7)"} {
		db := newDB(t, rows)
		if r := run(t, db, Count, "", ""); r.Lower != value.Int(2) || r.Upper != value.Int(2) {
			t.Errorf("%s: COUNT = %v, want [2, 2]", rows, r)
		}
		if r := run(t, db, Sum, "w", ""); r.Lower != value.Int(12) || r.Upper != value.Int(12) {
			t.Errorf("%s: SUM = %v, want [12, 12]", rows, r)
		}
	}
}

// With a multi-column right-hand side a NULL component makes conflicts
// non-transitive; Consistent refuses rather than return a wrong range.
func TestNullInCompositeRHSErrors(t *testing.T) {
	db := newDB(t, "(1,NULL,5), (1,2,7)")
	composite := constraint.FD{Rel: "r", LHS: []string{"k"}, RHS: []string{"v", "w"}}
	if _, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: Count, FD: composite}); err == nil {
		t.Error("NULL in a multi-column right-hand side should fail")
	}
	// A NULL left-hand side still makes the tuple conflict-free.
	db = newDB(t, "(NULL,NULL,5), (1,2,7)")
	r, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: Count, FD: composite})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lower != value.Int(2) || r.Upper != value.Int(2) {
		t.Errorf("COUNT = %v, want [2, 2]", r)
	}
}

func TestValidationErrors(t *testing.T) {
	db := newDB(t, "(1,1,1)")
	if _, err := Consistent(db.Snapshot(), Query{Rel: "zzz", Fn: Count, FD: constraint.FD{Rel: "zzz", LHS: []string{"k"}, RHS: []string{"v"}}}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: Count, FD: constraint.FD{Rel: "other", LHS: []string{"k"}, RHS: []string{"v"}}}); err == nil {
		t.Error("FD on different relation should fail")
	}
	if _, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: Min, Attr: "zzz", FD: fd()}); err == nil {
		t.Error("unknown attribute should fail")
	}
	mustExec(db, "CREATE TABLE s (k INT, v INT, name TEXT)")
	if _, err := Consistent(db.Snapshot(), Query{Rel: "s", Fn: Min, Attr: "name",
		FD: constraint.FD{Rel: "s", LHS: []string{"k"}, RHS: []string{"v"}}}); err == nil {
		t.Error("non-numeric attribute should fail")
	}
	if _, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: Count, Where: "???", FD: fd()}); err == nil {
		t.Error("bad WHERE should fail")
	}
	if Count.String() != "COUNT" || Sum.String() != "SUM" || Min.String() != "MIN" || Max.String() != "MAX" {
		t.Error("Func names wrong")
	}
}

// oracleRange brute-forces the aggregate over every repair.
func oracleRange(t *testing.T, db *engine.DB, fn Func, attr, where string) Range {
	t.Helper()
	h, _, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd()})
	if err != nil {
		t.Fatal(err)
	}
	repairs, err := (&repair.Enumerator{DB: db, H: h}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	var (
		out      Range
		haveVal  bool
		anyEmpty bool
	)
	for _, r := range repairs {
		sql := "SELECT * FROM r"
		if where != "" {
			sql += " WHERE " + where
		}
		res, err := r.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		attrPos := 2 // column w
		var vals []float64
		for _, row := range res.Rows {
			if fn == Count {
				vals = append(vals, 0) // placeholder; count uses len
				continue
			}
			if row[attrPos].IsNull() {
				continue
			}
			vals = append(vals, row[attrPos].AsFloat())
		}
		var v float64
		defined := true
		switch fn {
		case Count:
			v = float64(len(res.Rows))
		case Sum:
			for _, x := range vals {
				v += x
			}
		case Min, Max:
			if len(vals) == 0 {
				defined = false
				anyEmpty = true
				break
			}
			v = vals[0]
			for _, x := range vals[1:] {
				if (fn == Min && x < v) || (fn == Max && x > v) {
					v = x
				}
			}
		}
		if fn == Count || fn == Sum {
			if len(vals) == 0 && fn != Count && len(res.Rows) == 0 {
				anyEmpty = true
			}
			if len(res.Rows) == 0 {
				anyEmpty = true
			}
		}
		if !defined {
			continue
		}
		if !haveVal {
			out.Lower, out.Upper = value.Float(v), value.Float(v)
			haveVal = true
			continue
		}
		if v < out.Lower.AsFloat() {
			out.Lower = value.Float(v)
		}
		if v > out.Upper.AsFloat() {
			out.Upper = value.Float(v)
		}
	}
	if !haveVal {
		out.Lower, out.Upper = value.Null(), value.Null()
	}
	out.MayBeEmpty = anyEmpty
	return out
}

// TestRandomizedAgainstOracle checks all four aggregates against the
// brute-force repair oracle on randomized instances, with and without
// filters. About one in six FD column values is NULL.
func TestRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	wheres := []string{"", "w > 5", "w < 4"}
	for trial := 0; trial < 40; trial++ {
		db := engine.New()
		mustExec(db, "CREATE TABLE r (k INT, v INT, w INT)")
		seen := map[string]bool{}
		n := 4 + rng.Intn(6)
		for len(seen) < n {
			k, v, w := nullable(rng, 3), nullable(rng, 3), rng.Intn(10)
			key := fmt.Sprintf("%s|%s|%d", k, v, w)
			if seen[key] {
				continue
			}
			seen[key] = true
			mustExec(db, fmt.Sprintf("INSERT INTO r VALUES (%s, %s, %d)", k, v, w))
		}
		for _, fn := range []Func{Count, Sum, Min, Max} {
			for _, where := range wheres {
				got, err := Consistent(db.Snapshot(), Query{Rel: "r", Fn: fn, Attr: "w", Where: where, FD: fd()})
				if err != nil {
					t.Fatalf("trial %d %s where=%q: %v", trial, fn, where, err)
				}
				want := oracleRange(t, db, fn, "w", where)
				if !sameBound(got.Lower, want.Lower) || !sameBound(got.Upper, want.Upper) {
					t.Errorf("trial %d %s(w) where=%q: got %v, oracle %v",
						trial, fn, where, got, want)
				}
				// MIN/MAX emptiness must agree with the oracle exactly; for
				// COUNT/SUM the oracle flags zero-row repairs the same way.
				if got.MayBeEmpty != want.MayBeEmpty {
					t.Errorf("trial %d %s(w) where=%q: MayBeEmpty got %v, oracle %v",
						trial, fn, where, got.MayBeEmpty, want.MayBeEmpty)
				}
			}
		}
	}
}

// nullable renders a random value in [0, n) as SQL, or NULL one time in
// six.
func nullable(rng *rand.Rand, n int) string {
	if rng.Intn(6) == 0 {
		return "NULL"
	}
	return strconv.Itoa(rng.Intn(n))
}

func sameBound(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.AsFloat() == b.AsFloat()
}
