package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/cqaplan"
	"hippo/internal/engine"
	"hippo/internal/oracle"
	"hippo/internal/ra"
	"hippo/internal/rewrite"
	"hippo/internal/sqlparse"
)

// rewriteDiffQueries are rewrite-tier shapes over the probe instance:
// emp carries two constraints (an FD and an exclusion whose residue
// partner is ban), dept a key, ban the exclusion's other side, and gone
// none at all.
var rewriteDiffQueries = []string{
	"SELECT * FROM emp",
	"SELECT * FROM emp WHERE salary > 15",
	"SELECT * FROM emp e, dept d WHERE e.dept = d.id AND e.id >= 1 AND e.id < 4",
	"SELECT * FROM emp EXCEPT SELECT * FROM gone",
	"SELECT * FROM ban WHERE tag >= 1",
	"SELECT * FROM dept",
}

func probeConstraints(t *testing.T) []constraint.Constraint {
	t.Helper()
	den, err := constraint.ParseDenial("emp x, ban y WHERE x.id = y.id")
	if err != nil {
		t.Fatal(err)
	}
	return []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
		constraint.Key{Rel: "dept", Cols: []string{"id"}},
		constraint.Exclusion{A: den.Atoms[0], B: den.Atoms[1], Where: den.Where},
	}
}

// randomProbeStmt draws one DML statement. About one value in six of a
// constrained column is NULL, so the residues' three-valued comparisons
// are exercised against the hypergraph's.
func randomProbeStmt(rng *rand.Rand) string {
	orNull := func(v int) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return fmt.Sprint(v)
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		return fmt.Sprintf("INSERT INTO emp VALUES (%s, %d, %s)", orNull(rng.Intn(5)), rng.Intn(3), orNull(10*(1+rng.Intn(3))))
	case 3:
		return fmt.Sprintf("INSERT INTO dept VALUES (%s, %s)", orNull(rng.Intn(3)), orNull(rng.Intn(2)))
	case 4:
		return fmt.Sprintf("INSERT INTO ban VALUES (%s, %d)", orNull(2+rng.Intn(5)), rng.Intn(2))
	case 5:
		return fmt.Sprintf("INSERT INTO gone VALUES (%d, %d, %d)", rng.Intn(5), rng.Intn(3), 10*(1+rng.Intn(3)))
	case 6:
		return fmt.Sprintf("DELETE FROM emp WHERE id = %d", rng.Intn(5))
	default:
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("DELETE FROM ban WHERE id = %d", 2+rng.Intn(5))
		}
		return fmt.Sprintf("DELETE FROM dept WHERE id = %d", rng.Intn(3))
	}
}

// rewriteReference evaluates the Arenas–Bertossi–Chomicki rewriting —
// cqaplan.Classify's self-contained anti-join plan — on the pinned
// snapshot, with no hypergraph involved. It also checks that the plan the
// rewrite tier serves for q carries conflict filters and no anti-joins.
func rewriteReference(t *testing.T, s *System, sn *Snapshot, q string) []string {
	t.Helper()
	pq, err := sqlparse.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sn.v.snap.PlanQuery(pq)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Constraints()
	dec := cqaplan.Classify(rewrite.Prepare(s.DB(), cs), cs, plan)
	if dec.Tier != cqaplan.TierRewrite || dec.Residues == 0 {
		t.Fatalf("%q: decision tier %s with %d residues (reasons %v), want rewrite with residues",
			q, dec.Tier, dec.Residues, dec.ReasonStrings())
	}
	phys, err := servedPlan(sn.v, plan)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	filters, antis := 0, 0
	ra.Walk(phys, func(n ra.Node) {
		switch n.(type) {
		case *conflictFilter:
			filters++
		case *ra.AntiJoin:
			antis++
		}
	})
	if filters == 0 || antis != 0 {
		t.Fatalf("%q: served plan has %d conflict filters and %d anti-joins:\n%s", q, filters, antis, ra.Format(phys))
	}
	// The rewriting's residue partners scan the live tables: rebind them
	// to the pinned snapshot.
	bound, err := engine.Rebind(dec.Plan, sn.v.snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sn.v.snap.RunPlan(bound)
	if err != nil {
		t.Fatal(err)
	}
	return rowStrings(res.Rows)
}

// TestRewriteTierDifferential drives randomized DML into the probe
// instance and, between updates, checks every rewrite-tier answer against
// two references: the rewriting's anti-join plan on the same pinned
// snapshot (bag-equal) and the repair oracle (set-equal); the prover tier
// must match the oracle as well. Every run must be served by the rewrite
// tier. Before the sequential run, k readers query the same
// snapshot at once and must agree with it: k=1 builds the view's lazy tuple
// index alone, k=2 races two readers on it (run under -race in CI).
func TestRewriteTierDifferential(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { rewriteTierDifferential(t, k) })
	}
}

func rewriteTierDifferential(t *testing.T, readers int) {
	rng := rand.New(rand.NewSource(20261016))
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, dept INT, salary INT)")
	mustExec(db, "CREATE TABLE dept (id INT, budget INT)")
	mustExec(db, "CREATE TABLE ban (id INT, tag INT)")
	mustExec(db, "CREATE TABLE gone (id INT, dept INT, salary INT)")
	cs := probeConstraints(t)
	sys := NewSystem(db, cs)
	defer sys.Close()

	oracleChecks := 0
	for step := 1; step <= 80; step++ {
		mustExec(db, randomProbeStmt(rng))
		if step%4 != 0 {
			continue
		}
		sn, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// The readers run first, at once: they share the view's
		// lazily built tuple index and its hypergraph.
		nq := len(rewriteDiffQueries)
		concurrent := make([][]string, readers*nq)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i, q := range rewriteDiffQueries {
					res, _, err := sys.ConsistentQueryAt(sn, q, Options{})
					if err != nil {
						t.Errorf("concurrent %q: %v", q, err)
						return
					}
					concurrent[r*nq+i] = rowStrings(res.Rows)
				}
			}(r)
		}
		wg.Wait()
		o := &oracle.Oracle{DB: db, Constraints: cs}
		_, oerr := o.Repairs()
		for i, q := range rewriteDiffQueries {
			res, st, err := sys.ConsistentQueryAt(sn, q, Options{})
			if err != nil {
				t.Fatalf("step %d %q: %v", step, q, err)
			}
			if st.Strategy != "rewrite" {
				t.Fatalf("step %d %q: strategy %q (reasons %v), want rewrite",
					step, q, st.Strategy, st.TierReasons)
			}
			got := rowStrings(res.Rows)
			ref := rewriteReference(t, sys, sn, q)
			if strings.Join(got, "|") != strings.Join(ref, "|") {
				t.Fatalf("step %d %q: served answers %v != anti-join plan %v", step, q, got, ref)
			}
			for r := 0; r < readers; r++ {
				if c := concurrent[r*nq+i]; strings.Join(c, "|") != strings.Join(got, "|") {
					t.Fatalf("step %d %q: concurrent reader %d got %v, want %v", step, q, r, c, got)
				}
			}
			if oerr != nil {
				continue // too many conflicting tuples to enumerate
			}
			want, err := o.ConsistentAnswers(q)
			if err != nil {
				t.Fatalf("step %d: oracle %q: %v", step, q, err)
			}
			if g, w := dedup(got), dedup(tupleStrings(want)); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("step %d %q: answers %v != oracle %v", step, q, g, w)
			}
			// The prover tier reads the same hypergraph and must
			// agree too, NULLs included.
			pres, _, err := sys.ConsistentQueryAt(sn, q, Options{Tier: TierForceProver})
			if err != nil {
				t.Fatalf("step %d prover %q: %v", step, q, err)
			}
			if g, w := dedup(rowStrings(pres.Rows)), dedup(tupleStrings(want)); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("step %d %q: prover tier %v != oracle %v", step, q, g, w)
			}
			oracleChecks++
		}
		sn.Close()
	}
	if oracleChecks < 3*len(rewriteDiffQueries) {
		t.Errorf("oracle checked only %d answers; the instance outgrew it", oracleChecks)
	}
}
