package cqaplan

import (
	"fmt"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/rewrite"
	"hippo/internal/sqlparse"
)

// classifyDB is the one schema every Classify case runs over: emp and
// dept are covered by binary residues (an FD and a key), aud carries a
// 3-atom denial the rewriting cannot express, and old and boss carry no
// constraints at all.
func classifyDB(t *testing.T) (*engine.DB, []constraint.Constraint) {
	t.Helper()
	db := engine.New()
	for _, sql := range []string{
		"CREATE TABLE emp (id INT, salary INT, dept INT)",
		"CREATE TABLE dept (id INT, mgr INT)",
		"CREATE TABLE aud (k INT, v INT)",
		"CREATE TABLE old (id INT, salary INT, dept INT)",
		"CREATE TABLE boss (id INT, mgr INT)",
	} {
		if _, _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return db, []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
		constraint.Key{Rel: "dept", Cols: []string{"id"}},
		mustDenial(t, "aud a, aud b, aud c WHERE a.k < b.k AND b.k < c.k AND a.v = 999"),
	}
}

func mustDenial(t *testing.T, src string) constraint.Denial {
	t.Helper()
	d, err := constraint.ParseDenial(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func planOf(t *testing.T, db *engine.DB, sql string) ra.Node {
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

func TestClassify(t *testing.T) {
	cases := []struct {
		name, q string
		// extra constraints join the schema's base set for this case.
		extra  func(t *testing.T) []constraint.Constraint
		tier   Tier
		reason ReasonCode
	}{
		{name: "covered selection", q: "SELECT * FROM emp WHERE salary > 120", tier: TierRewrite},
		{name: "covered join", q: "SELECT * FROM emp e, dept d WHERE e.dept = d.id", tier: TierRewrite},
		{name: "union", q: "SELECT * FROM emp WHERE salary > 120 UNION SELECT * FROM emp WHERE salary < 50",
			tier: TierProver, reason: ReasonUnion},
		{name: "self-join", q: "SELECT * FROM emp e, emp f WHERE e.id = f.id", tier: TierProver, reason: ReasonSelfJoin},
		{name: "key constant", q: "SELECT * FROM emp WHERE id = 2", tier: TierProver, reason: ReasonKeyConstant},
		{name: "attack cycle", q: "SELECT * FROM emp e, dept d WHERE e.dept = d.id AND d.mgr = e.id",
			tier: TierProver, reason: ReasonAttackCycle},
		{name: "constraint interaction", q: "SELECT * FROM emp WHERE salary > 120",
			extra: func(t *testing.T) []constraint.Constraint {
				return []constraint.Constraint{mustDenial(t, "emp AS x WHERE x.salary < 0")}
			},
			tier: TierProver, reason: ReasonInteraction},
		{name: "uncovered relation", q: "SELECT * FROM aud WHERE v > 1", tier: TierProver, reason: ReasonUncovered},
		{name: "multi-atom negative side",
			q:    "SELECT * FROM emp e, dept d WHERE e.dept = d.id EXCEPT SELECT * FROM old o, boss b WHERE o.dept = b.id",
			tier: TierProver, reason: ReasonNegativeJoin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, cs := classifyDB(t)
			if tc.extra != nil {
				cs = append(cs, tc.extra(t)...)
			}
			plan := planOf(t, db, tc.q)
			d := Classify(rewrite.Prepare(db, cs), cs, plan)
			// The serving path decides from the constraint profile alone;
			// it must reach the same tier for the same reasons.
			if served := Decide(NewProfile(db, cs), plan); served.Tier != d.Tier ||
				fmt.Sprint(served.Reasons) != fmt.Sprint(d.Reasons) {
				t.Errorf("Decide = %v %v, Classify = %v %v", served.Tier, served.ReasonStrings(), d.Tier, d.ReasonStrings())
			}
			if d.Tier != TierRewrite && d.Tier != TierProver {
				t.Fatalf("Classify returned tier %v; only rewrite and prover exist", d.Tier)
			}
			if d.Tier != tc.tier {
				t.Fatalf("tier = %v (reasons %v), want %v", d.Tier, d.ReasonStrings(), tc.tier)
			}
			if tc.tier == TierRewrite {
				if d.Plan == nil || d.Residues == 0 || len(d.Reasons) != 0 {
					t.Errorf("rewrite decision: plan %v, %d residues, reasons %v", d.Plan, d.Residues, d.ReasonStrings())
				}
				return
			}
			if d.Plan != nil {
				t.Errorf("prover decision carries a plan: %s", ra.Format(d.Plan))
			}
			found := false
			for _, r := range d.Reasons {
				found = found || r.Code == tc.reason
			}
			if !found {
				t.Errorf("reasons %v lack %q", d.ReasonStrings(), tc.reason)
			}
		})
	}
}
