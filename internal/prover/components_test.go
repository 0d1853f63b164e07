package prover

import (
	"fmt"
	"math/rand"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/value"
)

// multiCompSetup builds emp with k independent conflict components (one
// FD-violating id pair each) plus one clean row per component.
func multiCompSetup(t *testing.T, k int) (*engine.DB, *conflict.Hypergraph, *conflict.TupleIndex) {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	for i := 0; i < k; i++ {
		mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d), (%d, %d), (%d, %d)",
			i, 100+i, i, 200+i, 1000+i, 300+i))
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	return db, h, ti
}

// satisfiableGlobal is the pre-decomposition search: one blocker
// assignment over all negative atoms jointly, with global independence
// checks. It is the reference the component-scoped
// SatisfiableInSomeRepair must agree with.
func (p *Prover) satisfiableGlobal(d Disjunct) (bool, error) {
	s := conflict.VertexSet{}
	// Positive atoms: must be present and independent.
	for _, a := range d.Pos {
		v, inDB, err := p.resolve(a)
		if err != nil {
			return false, err
		}
		if !inDB {
			return false, nil
		}
		if s[v] {
			continue
		}
		if !p.H.IndependentWith(s, v) {
			return false, nil
		}
		s[v] = true
	}
	// Negative atoms: absent ones are excluded from every repair for free;
	// present conflict-free ones are in every repair, killing the disjunct.
	nset := conflict.VertexSet{}
	var blockers [][]conflict.Edge
	for _, a := range d.Neg {
		v, inDB, err := p.resolve(a)
		if err != nil {
			return false, err
		}
		if !inDB {
			continue
		}
		if s[v] {
			return false, nil // required both in and out
		}
		edges := p.H.EdgesContaining(v)
		if len(edges) == 0 {
			return false, nil // conflict-free tuples survive in every repair
		}
		nset[v] = true
		blockers = append(blockers, p.blockerCandidates(v, edges))
	}
	// Cheapest-first ordering shrinks the search tree.
	sortByLen(blockers)
	return p.assignBlockers(s, nset, blockers, 0)
}

// checkTupleGlobal is checkTuple decided by satisfiableGlobal instead of
// the component-scoped search.
func checkTupleGlobal(t *testing.T, p *Prover, db *engine.DB, sql string, tup value.Tuple) bool {
	t.Helper()
	f, err := BuildFormula(mustPlan(t, db, sql), tup)
	if err != nil {
		t.Fatal(err)
	}
	disjuncts, err := NegationDNF(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range disjuncts {
		sat, err := p.satisfiableGlobal(d)
		if err != nil {
			t.Fatal(err)
		}
		if sat {
			return false
		}
	}
	return true
}

// TestComponentDecompositionMatchesGlobal certifies every candidate of a
// certification-heavy difference query two ways — component-scoped and
// the global baseline — and requires identical verdicts.
func TestComponentDecompositionMatchesGlobal(t *testing.T) {
	db, h, ti := multiCompSetup(t, 6)
	if h.NumComponents() != 6 {
		t.Fatalf("setup produced %d components, want 6", h.NumComponents())
	}
	queries := []string{
		"SELECT * FROM emp",
		"SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary >= 200",
		"SELECT * FROM emp WHERE id < 3 UNION SELECT * FROM emp WHERE salary > 250",
	}
	rows, err := db.Query("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		for _, tup := range rows.Rows {
			comp := New(h, IndexedMembership{TI: ti})
			global := New(h, IndexedMembership{TI: ti})
			a := checkTuple(t, comp, db, sql, tup)
			c := checkTupleGlobal(t, global, db, sql, tup)
			if a != c {
				t.Fatalf("%q tuple %v: component=%v global=%v", sql, tup, a, c)
			}
		}
	}
}

// TestMultiComponentDisjunct checks that a disjunct spanning two conflict
// components is searched once per component and agrees with the global
// search. Negating a UNION yields one disjunct with a negative atom per
// branch; with the branches over separately-conflicting relations, those
// atoms land in distinct components.
func TestMultiComponentDisjunct(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "CREATE TABLE mgr (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200)")
	mustExec(db, "INSERT INTO mgr VALUES (1, 100), (1, 300)")
	cs := []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
		constraint.FD{Rel: "mgr", LHS: []string{"id"}, RHS: []string{"salary"}},
	}
	h, ti, _, err := conflict.NewDetector(db).Detect(cs)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumComponents() != 2 {
		t.Fatalf("setup produced %d components, want 2", h.NumComponents())
	}
	p := New(h, IndexedMembership{TI: ti})
	global := New(h, IndexedMembership{TI: ti})
	// (1,100) is in both relations and conflicting in both: refuting it
	// needs a blocking edge in each component simultaneously.
	sql := "SELECT * FROM emp UNION SELECT * FROM mgr"
	got := checkTuple(t, p, db, sql, ints(1, 100))
	want := checkTupleGlobal(t, global, db, sql, ints(1, 100))
	if got != want {
		t.Fatalf("component=%v global=%v", got, want)
	}
	if p.Stats.Components != 2 {
		t.Fatalf("component sub-searches = %d, want 2", p.Stats.Components)
	}
}

// TestCertifyAnswerDeps: the dependency set must cover exactly what the
// verdict consulted — resolved atoms plus the components of conflicting
// resolved vertices.
func TestCertifyAnswerDeps(t *testing.T) {
	db, h, ti := setup(t)
	p := New(h, IndexedMembership{TI: ti})
	plan := mustPlan(t, db, "SELECT * FROM emp")
	// Conflicting candidate: deps must include its atom and its component.
	ok, deps, err := p.CertifyAnswer(plan, ints(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("(1,100) conflicts; must not be certified")
	}
	if len(deps.Atoms) == 0 || len(deps.Comps) == 0 {
		t.Fatalf("deps incomplete: %+v", deps)
	}
	wantAtom := DepAtomKey("emp", ints(1, 100))
	found := false
	for _, a := range deps.Atoms {
		if a == wantAtom {
			found = true
		}
	}
	if !found {
		t.Fatalf("deps %v missing atom %q", deps.Atoms, wantAtom)
	}
	// Clean candidate: atom dep only, no component.
	_, deps, err = p.CertifyAnswer(plan, ints(2, 150))
	if err != nil {
		t.Fatal(err)
	}
	if len(deps.Comps) != 0 {
		t.Fatalf("conflict-free candidate recorded component deps: %+v", deps.Comps)
	}
}

// TestComponentDecompositionRandomized cross-checks component-scoped vs
// global certification over random hypergraph shapes and difference
// queries (hitting negative-atom blocker searches).
func TestComponentDecompositionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		db := engine.New()
		mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
		rows := 6 + rng.Intn(8)
		for i := 0; i < rows; i++ {
			mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", rng.Intn(5), rng.Intn(4)*100))
		}
		fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
		h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
		if err != nil {
			t.Fatal(err)
		}
		sql := "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary >= 200"
		res, err := db.Query("SELECT * FROM emp")
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range res.Rows {
			comp := New(h, IndexedMembership{TI: ti})
			global := New(h, IndexedMembership{TI: ti})
			if a, b := checkTuple(t, comp, db, sql, tup), checkTupleGlobal(t, global, db, sql, tup); a != b {
				t.Fatalf("trial %d tuple %v: component=%v global=%v", trial, tup, a, b)
			}
		}
	}
}
