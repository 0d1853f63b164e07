package engine

import (
	"context"
	"strings"
	"testing"

	"hippo/internal/ra"
	"hippo/internal/sqlparse"
	"hippo/internal/value"
)

// optimizedPlan plans sql and applies the physical optimizer.
func optimizedPlan(t *testing.T, db *DB, sql string) ra.Node {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return optimize(plan)
}

func TestCreateIndexStatement(t *testing.T) {
	db := newEmpDB(t)
	if _, _, err := db.Exec("CREATE INDEX emp_id ON emp (id)"); err != nil {
		t.Fatal(err)
	}
	tb, _ := db.Table("emp")
	if _, ok := tb.Index([]int{0}); !ok {
		t.Fatal("index not created")
	}
	// Errors.
	if _, _, err := db.Exec("CREATE INDEX x ON missing (id)"); err == nil {
		t.Error("missing table should fail")
	}
	if _, _, err := db.Exec("CREATE INDEX x ON emp (zzz)"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := sqlparse.Parse("CREATE INDEX ON emp (id)"); err == nil {
		t.Error("missing index name should fail to parse")
	}
}

func TestOptimizerUsesIndex(t *testing.T) {
	db := newEmpDB(t)
	mustExec(db, "CREATE INDEX emp_id ON emp (id)")

	plan := optimizedPlan(t, db, "SELECT * FROM emp WHERE id = 2")
	s := ra.Format(plan)
	if !strings.Contains(s, "IndexLookup") {
		t.Fatalf("expected IndexLookup:\n%s", s)
	}
	// Residual predicate survives alongside the lookup.
	plan = optimizedPlan(t, db, "SELECT * FROM emp WHERE id = 2 AND salary > 100")
	s = ra.Format(plan)
	if !strings.Contains(s, "IndexLookup") || !strings.Contains(s, "Select") {
		t.Fatalf("expected IndexLookup + residual Select:\n%s", s)
	}
	// Reversed operand order also matches.
	plan = optimizedPlan(t, db, "SELECT * FROM emp WHERE 2 = id")
	if !strings.Contains(ra.Format(plan), "IndexLookup") {
		t.Fatal("reversed equality should match")
	}
}

func TestOptimizerSkipsWhenNoIndexFits(t *testing.T) {
	db := newEmpDB(t)
	// No index at all.
	plan := optimizedPlan(t, db, "SELECT * FROM emp WHERE id = 2")
	if strings.Contains(ra.Format(plan), "IndexLookup") {
		t.Fatal("no index exists; scan expected")
	}
	// Index on a different column set.
	mustExec(db, "CREATE INDEX emp_sal ON emp (salary)")
	plan = optimizedPlan(t, db, "SELECT * FROM emp WHERE id = 2")
	if strings.Contains(ra.Format(plan), "IndexLookup") {
		t.Fatal("index does not cover predicate columns")
	}
	// Non-equality predicates don't qualify.
	plan = optimizedPlan(t, db, "SELECT * FROM emp WHERE salary > 100")
	if strings.Contains(ra.Format(plan), "IndexLookup") {
		t.Fatal("range predicate must not use hash index")
	}
	// NULL constants don't qualify (col = NULL is never true).
	plan = optimizedPlan(t, db, "SELECT * FROM emp WHERE salary = NULL")
	if strings.Contains(ra.Format(plan), "IndexLookup") {
		t.Fatal("NULL equality must not use the index")
	}
}

func TestOptimizerPicksWidestIndex(t *testing.T) {
	db := newEmpDB(t)
	mustExec(db, "CREATE INDEX i1 ON emp (dept)")
	mustExec(db, "CREATE INDEX i2 ON emp (dept, salary)")
	plan := optimizedPlan(t, db, "SELECT * FROM emp WHERE dept = 10 AND salary = 100")
	s := ra.Format(plan)
	if !strings.Contains(s, "IndexLookup") {
		t.Fatalf("expected IndexLookup:\n%s", s)
	}
	// The two-column index absorbs both equalities → no residual Select.
	if strings.Contains(s, "Select") {
		t.Fatalf("widest index should absorb all equalities:\n%s", s)
	}
}

func TestOptimizedResultsMatchUnoptimized(t *testing.T) {
	db := newEmpDB(t)
	mustExec(db, "CREATE INDEX emp_id ON emp (id)")
	mustExec(db, "CREATE INDEX emp_dept ON emp (dept)")
	queries := []string{
		"SELECT * FROM emp WHERE id = 2",
		"SELECT * FROM emp WHERE id = 2 AND salary > 100",
		"SELECT * FROM emp WHERE dept = 10 AND id = 1",
		"SELECT * FROM emp WHERE id = 99",
		"SELECT name FROM emp WHERE id = 3 ORDER BY name",
		"SELECT * FROM emp e, dept d WHERE e.dept = d.id AND e.id = 1",
		"SELECT * FROM emp WHERE id = 1 UNION SELECT * FROM emp WHERE id = 2",
		"SELECT * FROM emp WHERE id = 1 AND id = 2", // contradictory
	}
	for _, sql := range queries {
		q, err := sqlparse.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.PlanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := db.Snapshot().RunPlanRaw(plan)
		if err != nil {
			t.Fatalf("%q raw: %v", sql, err)
		}
		opt, err := db.RunPlan(plan)
		if err != nil {
			t.Fatalf("%q optimized: %v", sql, err)
		}
		if len(raw.Rows) != len(opt.Rows) {
			t.Fatalf("%q: raw %d rows, optimized %d", sql, len(raw.Rows), len(opt.Rows))
		}
		seen := map[string]bool{}
		for _, r := range raw.Rows {
			seen[r.Key()] = true
		}
		for _, r := range opt.Rows {
			if !seen[r.Key()] {
				t.Fatalf("%q: optimized produced extra row %s", sql, value.TupleString(r))
			}
		}
	}
}

func TestIndexLookupNode(t *testing.T) {
	db := newEmpDB(t)
	tb, _ := db.Table("emp")
	idx, err := tb.EnsureIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	n := &ra.IndexLookup{
		Table: tb,
		Index: idx,
		Key:   []ra.Expr{ra.Const{V: value.Int(1)}},
	}
	rows, err := ra.Materialize(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1] != value.Text("ann") {
		t.Errorf("rows = %v", rows)
	}
	if n.Schema().Columns[0].Qualifier != "emp" || len(n.Children()) != 0 {
		t.Error("IndexLookup metadata wrong")
	}
	if !strings.Contains(n.String(), "IndexLookup(emp") {
		t.Errorf("String = %q", n.String())
	}
	// Key arity mismatch errors.
	bad := &ra.IndexLookup{Table: tb, Index: idx, Key: nil}
	if _, err := ra.Materialize(context.Background(), bad); err == nil {
		t.Error("key arity mismatch should error")
	}
}
