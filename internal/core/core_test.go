package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/value"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150), (3, 300), (3, 400), (4, 50)")
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	return NewSystem(db, []constraint.Constraint{fd})
}

func rowStrings(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

func TestConsistentQueryBasic(t *testing.T) {
	s := newSystem(t)
	// Force the prover tier: this test pins the certification pipeline's
	// candidate accounting, which the rewrite tier skips entirely.
	res, st, err := s.ConsistentQuery("SELECT * FROM emp", Options{Tier: TierForceProver})
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrings(res.Rows)
	want := []string{"(2, 150)", "(4, 50)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("answers = %v, want %v", got, want)
	}
	if st.Candidates != 6 || st.Answers != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.GraphStats.Edges != 2 {
		t.Errorf("hypergraph edges = %d", st.GraphStats.Edges)
	}
	if !strings.Contains(FormatStats(st), "candidates=6") {
		t.Error("FormatStats missing fields")
	}
}

func TestConsistentQueryMatchesOracle(t *testing.T) {
	s := newSystem(t)
	en, err := s.RepairEnumerator()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM emp",
		"SELECT * FROM emp WHERE salary >= 150",
		"SELECT * FROM emp WHERE id = 1 AND salary = 100",
		"SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 150",
		"SELECT * FROM emp WHERE salary < 200 UNION SELECT * FROM emp WHERE salary >= 200",
		"SELECT salary, id FROM emp",
		"SELECT * FROM emp INTERSECT SELECT * FROM emp WHERE id < 3",
	}
	for _, q := range queries {
		res, _, err := s.ConsistentQuery(q, Options{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want, err := en.ConsistentAnswers(q)
		if err != nil {
			t.Fatalf("%q oracle: %v", q, err)
		}
		g, w := rowStrings(res.Rows), rowStrings(want)
		if strings.Join(g, "|") != strings.Join(w, "|") {
			t.Errorf("%q:\n hippo  %v\n oracle %v", q, g, w)
		}
	}
}

func TestUnionExtractsDisjunctiveInformation(t *testing.T) {
	// The paper's demo point: union lets Hippo return indefinite
	// information a conflict-deleting approach loses. Two sources disagree
	// about Smith's city; the union query "people in boston OR in albany"
	// still consistently contains Smith's record variants? No — tuple-level:
	// we use coarser tuples that both variants satisfy.
	db := engine.New()
	mustExec(db, "CREATE TABLE person (name TEXT, city TEXT)")
	mustExec(db, "INSERT INTO person VALUES ('smith', 'boston'), ('smith', 'albany'), ('jones', 'nyc')")
	fd := constraint.FD{Rel: "person", LHS: []string{"name"}, RHS: []string{"city"}}
	s := NewSystem(db, []constraint.Constraint{fd})

	// Neither city record for smith is individually consistent...
	res, _, err := s.ConsistentQuery("SELECT * FROM person WHERE name = 'smith'", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("direct selection should be empty, got %v", res.Rows)
	}
	// ...but jones survives in the union query spanning both cities.
	res, _, err = s.ConsistentQuery(
		"SELECT * FROM person WHERE city = 'boston' UNION SELECT * FROM person WHERE city <> 'boston'",
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrings(res.Rows)
	if len(got) != 1 || got[0] != "('jones', 'nyc')" {
		t.Errorf("union answers = %v", got)
	}
}

func TestMoreInformationThanConflictDeletion(t *testing.T) {
	// E1's claim: CQA answers ⊋ answers over the conflict-deleted DB for
	// queries where context matters. With Q = emp EXCEPT emp-high-salary,
	// deletion of all conflicting tuples changes answers: Hippo keeps (2,150),
	// (4,50) AND can certify tuples whose subtracted side only involves
	// conflicting tuples.
	db := engine.New()
	mustExec(db, "CREATE TABLE t (a INT, b INT)")
	// (1,1) vs (1,2) conflict; (2,5) clean.
	mustExec(db, "INSERT INTO t VALUES (1, 1), (1, 2), (2, 5)")
	fd := constraint.FD{Rel: "t", LHS: []string{"a"}, RHS: []string{"b"}}
	s := NewSystem(db, []constraint.Constraint{fd})

	// Query: tuples of t with b < 3 — union over both conflicting variants.
	q := "SELECT * FROM t WHERE b < 3 UNION SELECT * FROM t WHERE b >= 3"
	res, _, err := s.ConsistentQuery(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hippoAnswers := len(res.Rows)

	// Conflict-deletion approach: drop all conflicting tuples, evaluate.
	db2 := engine.New()
	mustExec(db2, "CREATE TABLE t (a INT, b INT)")
	mustExec(db2, "INSERT INTO t VALUES (2, 5)")
	res2, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if hippoAnswers < len(res2.Rows) {
		t.Errorf("hippo answers %d < deletion answers %d", hippoAnswers, len(res2.Rows))
	}
}

func TestSupportMatrix(t *testing.T) {
	s := newSystem(t)
	sup, err := s.Support("SELECT * FROM emp UNION SELECT * FROM emp WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if sup.Hippo != nil {
		t.Errorf("Hippo should support union: %v", sup.Hippo)
	}
	if sup.Rewrite == nil {
		t.Error("rewriting should reject union")
	}
	sup, err = s.Support("SELECT id FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if sup.Hippo == nil {
		t.Error("Hippo should reject unsafe projection")
	}
}

func TestInvalidateAndAddConstraint(t *testing.T) {
	s := newSystem(t)
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	// New conflicting tuple; without Invalidate the hypergraph is stale.
	mustExec(s.DB(), "INSERT INTO emp VALUES (4, 60)")
	s.Invalidate()
	res, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrings(res.Rows)
	if len(got) != 1 || got[0] != "(2, 150)" {
		t.Errorf("after new conflict, answers = %v", got)
	}
	s.AddConstraint(constraint.FD{Rel: "emp", LHS: []string{"salary"}, RHS: []string{"id"}})
	if len(s.Constraints()) != 2 {
		t.Error("AddConstraint did not register")
	}
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newSystem(t)
	if _, _, err := s.ConsistentQuery("NOT SQL", Options{}); err == nil {
		t.Error("parse error expected")
	}
	if _, _, err := s.ConsistentQuery("SELECT id FROM emp", Options{}); err == nil {
		t.Error("unsafe projection should be rejected")
	}
	if _, _, err := s.ConsistentQuery("SELECT * FROM nope", Options{}); err == nil {
		t.Error("unknown table should error")
	}
}

// randomSystem builds a randomized small instance: one relation r(a,b,c)
// with an FD a->b, values drawn from tiny domains to force conflicts.
func randomSystem(rng *rand.Rand, n int) *System {
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT, c INT)")
	seen := map[string]bool{}
	inserted := 0
	for inserted < n {
		a, b, c := rng.Intn(4), rng.Intn(3), rng.Intn(3)
		key := fmt.Sprintf("%d|%d|%d", a, b, c)
		if seen[key] {
			continue
		}
		seen[key] = true
		mustExec(db, fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", a, b, c))
		inserted++
	}
	fd := constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}}
	return NewSystem(db, []constraint.Constraint{fd})
}

// TestRandomizedAgainstOracle is the central correctness property: on
// random instances and a battery of SJUD query shapes, Hippo's answers
// equal the intersection of the query over all repairs.
func TestRandomizedAgainstOracle(t *testing.T) {
	queries := []string{
		"SELECT * FROM r",
		"SELECT * FROM r WHERE b = 1",
		"SELECT * FROM r WHERE a = 1 AND c <> 0",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE c = 2",
		"SELECT * FROM r WHERE b = 0 UNION SELECT * FROM r WHERE b <> 0",
		"SELECT c, a, b FROM r",
		"SELECT * FROM r WHERE a < 2 INTERSECT SELECT * FROM r WHERE c < 2",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE b = 1 UNION SELECT * FROM r WHERE a = 3",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		s := randomSystem(rng, 6+rng.Intn(6))
		en, err := s.RepairEnumerator()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, _, err := s.ConsistentQuery(q, Options{})
			if err != nil {
				t.Fatalf("trial %d %q: %v", trial, q, err)
			}
			want, err := en.ConsistentAnswers(q)
			if err != nil {
				t.Fatalf("trial %d %q oracle: %v", trial, q, err)
			}
			g, w := rowStrings(res.Rows), rowStrings(want)
			if strings.Join(g, "|") != strings.Join(w, "|") {
				t.Errorf("trial %d %q:\n hippo  %v\n oracle %v", trial, q, g, w)
			}
		}
	}
}

// TestRandomizedDenialAgainstOracle repeats the oracle property with a
// general (non-FD) denial constraint exercising the generic detector.
func TestRandomizedDenialAgainstOracle(t *testing.T) {
	den, err := constraint.ParseDenial("r x, r y WHERE x.a = y.a AND x.b < y.b")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM r",
		"SELECT * FROM r WHERE c = 1",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE b = 2",
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		db := engine.New()
		mustExec(db, "CREATE TABLE r (a INT, b INT, c INT)")
		seen := map[string]bool{}
		for len(seen) < 7 {
			a, b, c := rng.Intn(3), rng.Intn(3), rng.Intn(2)
			key := fmt.Sprintf("%d|%d|%d", a, b, c)
			if seen[key] {
				continue
			}
			seen[key] = true
			mustExec(db, fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", a, b, c))
		}
		s := NewSystem(db, []constraint.Constraint{den})
		en, err := s.RepairEnumerator()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, _, err := s.ConsistentQuery(q, Options{})
			if err != nil {
				t.Fatalf("trial %d %q: %v", trial, q, err)
			}
			want, err := en.ConsistentAnswers(q)
			if err != nil {
				t.Fatalf("trial %d %q oracle: %v", trial, q, err)
			}
			g, w := rowStrings(res.Rows), rowStrings(want)
			if strings.Join(g, "|") != strings.Join(w, "|") {
				t.Errorf("trial %d %q:\n hippo  %v\n oracle %v", trial, q, g, w)
			}
		}
	}
}

// TestRandomizedTwoRelations exercises joins and exclusion constraints.
func TestRandomizedTwoRelations(t *testing.T) {
	excl, err := constraint.ParseDenial("p x, q y WHERE x.k = y.k")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	queries := []string{
		"SELECT * FROM p",
		"SELECT * FROM q",
		"SELECT p.k, p.v, q.k, q.w FROM p, q WHERE p.k = q.k",
		"SELECT * FROM p EXCEPT SELECT * FROM p WHERE v = 1",
	}
	for trial := 0; trial < 15; trial++ {
		db := engine.New()
		mustExec(db, "CREATE TABLE p (k INT, v INT)")
		mustExec(db, "CREATE TABLE q (k INT, w INT)")
		seenP, seenQ := map[string]bool{}, map[string]bool{}
		for len(seenP) < 4 {
			k, v := rng.Intn(4), rng.Intn(2)
			key := fmt.Sprintf("%d|%d", k, v)
			if seenP[key] {
				continue
			}
			seenP[key] = true
			mustExec(db, fmt.Sprintf("INSERT INTO p VALUES (%d, %d)", k, v))
		}
		for len(seenQ) < 4 {
			k, w := rng.Intn(4), rng.Intn(2)
			key := fmt.Sprintf("%d|%d", k, w)
			if seenQ[key] {
				continue
			}
			seenQ[key] = true
			mustExec(db, fmt.Sprintf("INSERT INTO q VALUES (%d, %d)", k, w))
		}
		s := NewSystem(db, []constraint.Constraint{excl})
		en, err := s.RepairEnumerator()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, _, err := s.ConsistentQuery(q, Options{})
			if err != nil {
				t.Fatalf("trial %d %q: %v", trial, q, err)
			}
			want, err := en.ConsistentAnswers(q)
			if err != nil {
				t.Fatalf("trial %d %q oracle: %v", trial, q, err)
			}
			g, w := rowStrings(res.Rows), rowStrings(want)
			if strings.Join(g, "|") != strings.Join(w, "|") {
				t.Errorf("trial %d %q:\n hippo  %v\n oracle %v", trial, q, g, w)
			}
		}
	}
}

func TestConsistentQueryOrderByLimit(t *testing.T) {
	s := newSystem(t)
	// Certified answers are (2,150) and (4,50); ordering and limit apply
	// after certification.
	res, st, err := s.ConsistentQuery("SELECT * FROM emp ORDER BY salary DESC", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != value.Int(150) || res.Rows[1][1] != value.Int(50) {
		t.Errorf("ordered answers = %v", res.Rows)
	}
	if st.Answers != 2 {
		t.Errorf("stats answers = %d", st.Answers)
	}
	res, _, err = s.ConsistentQuery("SELECT * FROM emp ORDER BY salary ASC LIMIT 1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != value.Int(50) {
		t.Errorf("limited answers = %v", res.Rows)
	}
	// LIMIT without ORDER BY is also accepted.
	res, _, err = s.ConsistentQuery("SELECT * FROM emp LIMIT 1", Options{})
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("limit-only = %v, %v", res, err)
	}
}
