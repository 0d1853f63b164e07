package prover

import (
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/sqlparse"
	"hippo/internal/value"
)

// setup builds emp(id,salary) with FD id->salary, conflicts on id 1 and 3,
// and returns what a prover needs.
func setup(t *testing.T) (*engine.DB, *conflict.Hypergraph, *conflict.TupleIndex) {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150), (3, 300), (3, 400)")
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	return db, h, ti
}

func indexedProver(t *testing.T) (*Prover, *engine.DB) {
	t.Helper()
	db, h, ti := setup(t)
	return New(h, IndexedMembership{TI: ti}), db
}

func checkTuple(t *testing.T, p *Prover, db *engine.DB, sql string, tup value.Tuple) bool {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p.IsConsistentAnswer(plan, tup)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestConflictFreeTupleIsConsistent(t *testing.T) {
	p, db := indexedProver(t)
	if !checkTuple(t, p, db, "SELECT * FROM emp", ints(2, 150)) {
		t.Error("(2,150) has no conflicts; it is in every repair")
	}
}

func TestConflictingTupleIsNotConsistent(t *testing.T) {
	p, db := indexedProver(t)
	if checkTuple(t, p, db, "SELECT * FROM emp", ints(1, 100)) {
		t.Error("(1,100) is absent from the repair keeping (1,200)")
	}
	if checkTuple(t, p, db, "SELECT * FROM emp", ints(1, 200)) {
		t.Error("(1,200) is absent from the repair keeping (1,100)")
	}
}

func TestAbsentTupleIsNotConsistent(t *testing.T) {
	p, db := indexedProver(t)
	if checkTuple(t, p, db, "SELECT * FROM emp", ints(9, 999)) {
		t.Error("tuple not in DB cannot be a consistent answer")
	}
}

func TestUnionOfConflictingAlternatives(t *testing.T) {
	// The key expressiveness win of SJUD: (1,100) and (1,200) conflict, but
	// the query σ_{id=1∧salary=100} ∪ σ_{id=1∧salary=200} — here expressed
	// as a disjunctive selection — is consistently *nonempty* on witness
	// tuples? Individual tuples still fail; what succeeds is a selection
	// both variants satisfy (e.g. projecting the id via permutation-free
	// means is not allowed, so we check a coarser tuple-level union).
	p, db := indexedProver(t)
	// Every repair contains exactly one of (1,100)/(1,200); the tuple
	// (1,100) is consistent for "emp where salary=100 UNION emp where
	// salary<>100"? No: the tuple itself must be in the union's result in
	// every repair, and in the repair keeping (1,200) it is in neither arm.
	if checkTuple(t, p, db,
		"SELECT * FROM emp WHERE salary = 100 UNION SELECT * FROM emp WHERE salary <> 100",
		ints(1, 100)) {
		t.Error("union does not resurrect deleted tuples")
	}
	// But the conflict-free tuple is consistent through either arm.
	if !checkTuple(t, p, db,
		"SELECT * FROM emp WHERE salary = 100 UNION SELECT * FROM emp WHERE salary <> 100",
		ints(2, 150)) {
		t.Error("conflict-free tuple should be consistent for the union")
	}
}

func TestDifferenceSemantics(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE a (x INT)")
	mustExec(db, "CREATE TABLE b (x INT, y INT)")
	mustExec(db, "INSERT INTO a VALUES (1), (2)")
	// b has an FD conflict on x=1: (1,10) vs (1,20).
	mustExec(db, "INSERT INTO b VALUES (1, 10), (1, 20)")
	fd := constraint.FD{Rel: "b", LHS: []string{"x"}, RHS: []string{"y"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, IndexedMembership{TI: ti})

	// Q = a EXCEPT (x-values...) is not expressible without projection;
	// instead: is tuple (2) consistent for "a EXCEPT a-where-x=1"? Plain
	// SJD on one relation with no conflicts in a.
	if !checkTuple(t, p, db, "SELECT * FROM a EXCEPT SELECT * FROM a WHERE x = 1", ints(2)) {
		t.Error("(2) survives the difference in every repair")
	}
	if checkTuple(t, p, db, "SELECT * FROM a EXCEPT SELECT * FROM a WHERE x = 1", ints(1)) {
		t.Error("(1) is subtracted in every repair")
	}
}

func TestDifferenceAgainstConflictingRelation(t *testing.T) {
	// r(x) minus s(x) where s's tuple (1) is in conflict: in the repair
	// that drops s's (1), r's (1) is in the difference; in the other it is
	// not → not consistent. Tuple (2) is always in the difference.
	db := engine.New()
	mustExec(db, "CREATE TABLE r (x INT)")
	mustExec(db, "CREATE TABLE s (x INT)")
	mustExec(db, "INSERT INTO r VALUES (1), (2)")
	mustExec(db, "INSERT INTO s VALUES (1), (1)") // set semantics: use distinct rows
	// Make the two s-rows conflict with each other via a denial "no two
	// distinct s tuples may share x" — but they are identical, so instead
	// use a unary denial on one relation: forbid s.x = 1.
	mustExec(db, "DELETE FROM s")
	mustExec(db, "INSERT INTO s VALUES (1)")
	den, err := constraint.ParseDenial("s t WHERE t.x = 1")
	if err != nil {
		t.Fatal(err)
	}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{den})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, IndexedMembership{TI: ti})
	// s's (1) is self-conflicting → deleted in the unique repair → r−s
	// contains (1) in every repair.
	if !checkTuple(t, p, db, "SELECT * FROM r EXCEPT SELECT * FROM s", ints(1)) {
		t.Error("(1) should be consistent: s's copy is excluded from every repair")
	}
	if !checkTuple(t, p, db, "SELECT * FROM r EXCEPT SELECT * FROM s", ints(2)) {
		t.Error("(2) should be consistent")
	}
}

func TestJoinConsistency(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE e (id INT, dept INT)")
	mustExec(db, "CREATE TABLE d (dept INT, name TEXT)")
	mustExec(db, "INSERT INTO e VALUES (1, 10), (2, 20)")
	mustExec(db, "INSERT INTO d VALUES (10, 'eng'), (20, 'ops'), (20, 'mkt')")
	fd := constraint.FD{Rel: "d", LHS: []string{"dept"}, RHS: []string{"name"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, IndexedMembership{TI: ti})
	q := "SELECT * FROM e, d WHERE e.dept = d.dept"
	// (1,10,10,'eng'): both sides conflict-free → consistent.
	tup := value.Tuple{value.Int(1), value.Int(10), value.Int(10), value.Text("eng")}
	if ok, _ := p.IsConsistentAnswer(mustPlan(t, db, q), tup); !ok {
		t.Error("conflict-free join tuple should be consistent")
	}
	// (2,20,20,'ops'): d's (20,'ops') conflicts with (20,'mkt') → not.
	tup = value.Tuple{value.Int(2), value.Int(20), value.Int(20), value.Text("ops")}
	if ok, _ := p.IsConsistentAnswer(mustPlan(t, db, q), tup); ok {
		t.Error("join tuple with conflicting witness is not consistent")
	}
}

func mustPlan(t *testing.T, db *engine.DB, sql string) ra.Node {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestProverStatsAccumulate(t *testing.T) {
	p, db := indexedProver(t)
	checkTuple(t, p, db, "SELECT * FROM emp", ints(1, 100))
	checkTuple(t, p, db, "SELECT * FROM emp", ints(2, 150))
	if p.Stats.TuplesChecked != 2 {
		t.Errorf("TuplesChecked = %d", p.Stats.TuplesChecked)
	}
	if p.Stats.Disjuncts == 0 || p.Stats.MembershipChecks == 0 {
		t.Errorf("stats = %+v", p.Stats)
	}
}
