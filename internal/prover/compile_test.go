package prover

import (
	"fmt"
	"math/rand"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/envelope"
	"hippo/internal/ra"
	"hippo/internal/value"
)

// agreementQueries cover every operator the template compiles: selection,
// union, difference, intersection, products, joins, self-joins and
// projections that reorder or duplicate columns.
var agreementQueries = []string{
	"SELECT * FROM r",
	"SELECT * FROM r WHERE b = 1",
	"SELECT * FROM r WHERE a < 2 OR b IS NULL",
	"SELECT * FROM r UNION SELECT * FROM s",
	"SELECT * FROM r WHERE a = 0 UNION SELECT * FROM r WHERE b = 2",
	"SELECT * FROM r EXCEPT SELECT * FROM s",
	"SELECT * FROM r EXCEPT SELECT * FROM r WHERE b = 0",
	"SELECT * FROM r INTERSECT SELECT * FROM s",
	// (r − s) ∪ s is r ∪ s: a clean r tuple whose s twin is conflicted
	// leaves the residual v ∧ ¬v, which only the search settles.
	"SELECT * FROM r EXCEPT SELECT * FROM s UNION SELECT * FROM s",
	"SELECT * FROM r, s",
	"SELECT * FROM r, s WHERE r.a = s.a",
	"SELECT * FROM r x, r y WHERE x.a = y.a",
	"SELECT * FROM r x, r y WHERE x.b = y.a AND y.b <> 1",
	"SELECT b, a FROM r",
	"SELECT a, b, a FROM r",
	"SELECT b, a, b FROM r UNION SELECT b, a, b FROM s",
	"SELECT b, a FROM r EXCEPT SELECT b, a FROM s",
	"SELECT s.b, r.a, r.b, s.a, r.a FROM r, s WHERE r.b = s.b",
}

// agreementInstance builds r(a,b) and s(a,b) over a small domain with
// NULLs, FD a -> b on r (and usually on s), and a two-relation denial
// linking them, then detects conflicts.
func agreementInstance(t testing.TB, rng *rand.Rand) (*engine.DB, *conflict.Hypergraph, *conflict.TupleIndex) {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT)")
	mustExec(db, "CREATE TABLE s (a INT, b INT)")
	lit := func() string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(3))
	}
	for _, rel := range []string{"r", "s"} {
		for n := 2 + rng.Intn(6); n > 0; n-- {
			mustExec(db, fmt.Sprintf("INSERT INTO %s VALUES (%s, %s)", rel, lit(), lit()))
		}
	}
	cs := []constraint.Constraint{constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}}}
	if rng.Intn(4) != 0 {
		cs = append(cs, constraint.FD{Rel: "s", LHS: []string{"a"}, RHS: []string{"b"}})
	}
	spec := "r x, s y WHERE x.a = y.a AND x.b < y.b"
	if rng.Intn(2) == 0 {
		spec = "r x, s y WHERE x.b = y.b AND x.a <> y.a"
	}
	d, err := constraint.ParseDenial(spec)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, d)
	h, ti, _, err := conflict.NewDetector(db).Detect(cs)
	if err != nil {
		t.Fatal(err)
	}
	return db, h, ti
}

// agreementCounts tallies how candidates were settled, so the test can
// insist that both the constant residual and the search were exercised.
type agreementCounts struct{ decided, searched int64 }

// checkAgreement certifies every candidate of every agreement query on the
// compiled template and checks the verdict against the formula prover
// (IsConsistentAnswer), which builds the ground formula and its negation
// DNF afresh: a verdict the folded residual settles alone and one the
// blocker search settles must both equal it. Candidates are the
// envelope's rows plus random tuples over the instance's domain.
func checkAgreement(t testing.TB, seed int64) agreementCounts {
	rng := rand.New(rand.NewSource(seed))
	db, h, ti := agreementInstance(t, rng)
	var counts agreementCounts
	for _, sql := range agreementQueries {
		plan := mustPlan(t, db, sql)
		env, err := envelope.Envelope(plan)
		if err != nil {
			t.Fatalf("%q: envelope: %v", sql, err)
		}
		res, err := db.RunPlan(env)
		if err != nil {
			t.Fatalf("%q: envelope evaluation: %v", sql, err)
		}
		cands := res.Rows
		for n := 0; n < 4; n++ {
			cands = append(cands, randomTuple(rng, plan))
		}
		tpl, err := Compile(plan)
		if err != nil {
			t.Fatalf("%q: compile: %v", sql, err)
		}
		p := New(h, IndexedMembership{TI: ti})
		for _, c := range cands {
			want, err := p.IsConsistentAnswer(plan, c)
			if err != nil {
				t.Fatalf("%q %v: formula prover: %v", sql, c, err)
			}
			before := p.Stats.Decided
			got, err := p.Certify(tpl, c)
			if err != nil {
				t.Fatalf("%q %v: certify: %v", sql, c, err)
			}
			how := "search"
			if p.Stats.Decided > before {
				how = "constant residual"
				counts.decided++
			} else {
				counts.searched++
			}
			if got != want {
				t.Fatalf("seed %d %q %v: certify (%s) says %v, formula prover %v", seed, sql, c, how, got, want)
			}
		}
	}
	return counts
}

// randomTuple draws a tuple of the plan's arity over {0,1,2,NULL}.
func randomTuple(rng *rand.Rand, plan ra.Node) value.Tuple {
	t := make(value.Tuple, plan.Schema().Len())
	for i := range t {
		if rng.Intn(5) == 0 {
			t[i] = value.Null()
		} else {
			t[i] = value.Int(int64(rng.Intn(3)))
		}
	}
	return t
}

// TestCertifyAgreesWithFormulaProver is the seeded agreement property over
// 150 random instances.
func TestCertifyAgreesWithFormulaProver(t *testing.T) {
	var total agreementCounts
	for seed := int64(1); seed <= 150; seed++ {
		c := checkAgreement(t, seed)
		total.decided += c.decided
		total.searched += c.searched
	}
	if total.decided == 0 || total.searched == 0 {
		t.Fatalf("the residual settled %d candidates alone and left %d to the search; both paths must be exercised",
			total.decided, total.searched)
	}
	t.Logf("constant residual decided %d candidates, search settled %d", total.decided, total.searched)
}

// FuzzCertifyAgrees runs the agreement property on fuzzer-chosen seeds.
func FuzzCertifyAgrees(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1 << 20} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAgreement(t, seed) })
}

// TestCertifyConflictFreeAllocatesNothing pins the hot path: a
// conflict-free candidate of a union, a difference, a join and a
// reordering projection is certified without a single allocation.
func TestCertifyConflictFreeAllocatesNothing(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150)")
	mustExec(db, "CREATE TABLE dept (id INT, name INT)")
	mustExec(db, "INSERT INTO dept VALUES (2, 7)")
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, IndexedMembership{TI: ti})
	for _, tc := range []struct {
		sql  string
		cand value.Tuple
	}{
		{"SELECT * FROM emp WHERE salary > 120 UNION SELECT * FROM emp WHERE id = 2", ints(2, 150)},
		{"SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 500", ints(2, 150)},
		{"SELECT * FROM emp, dept WHERE emp.id = dept.id", ints(2, 150, 2, 7)},
		{"SELECT salary, id FROM emp", ints(150, 2)},
	} {
		tpl, err := Compile(mustPlan(t, db, tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		before := p.Stats.Decided
		if ok, err := p.Certify(tpl, tc.cand); err != nil || !ok || p.Stats.Decided != before+1 {
			t.Fatalf("%q: Certify = %v, %v, decided +%d; want a decided true", tc.sql, ok, err, p.Stats.Decided-before)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = p.Certify(tpl, tc.cand) }); n != 0 {
			t.Errorf("%q: Certify allocated %.1f times per candidate, want 0", tc.sql, n)
		}
	}
}

// TestCertifyCountsDecided: a conflict-free or absent candidate folds to a
// constant residual, a conflicted one goes to the search, and Stats says
// which.
func TestCertifyCountsDecided(t *testing.T) {
	db, h, ti := setup(t)
	p := New(h, IndexedMembership{TI: ti})
	tpl, err := Compile(mustPlan(t, db, "SELECT * FROM emp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []value.Tuple{ints(2, 150), ints(1, 100), ints(9, 9)} {
		if _, err := p.Certify(tpl, c); err != nil {
			t.Fatal(err)
		}
	}
	if p.Stats.TuplesChecked != 3 || p.Stats.Decided != 2 {
		t.Fatalf("checked=%d decided=%d, want 3 and 2 (only (1,100) is conflicted)",
			p.Stats.TuplesChecked, p.Stats.Decided)
	}
}

func TestCompileArityMismatch(t *testing.T) {
	db, h, ti := setup(t)
	tpl, err := Compile(mustPlan(t, db, "SELECT * FROM emp"))
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, IndexedMembership{TI: ti})
	if _, err := p.Certify(tpl, ints(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
