package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/sqlparse"
	"hippo/internal/value"
)

// leafNames collects the scan leaves of a plan in left-to-right order —
// for a left-deep join tree this is the planner-chosen join order.
func leafNames(n ra.Node) []string {
	var names []string
	ra.Walk(n, func(n ra.Node) {
		switch t := n.(type) {
		case *ra.Scan:
			names = append(names, t.Table.Name())
		case *ra.IndexLookup:
			names = append(names, t.Table.Name())
		case *opaqueNode:
			names = append(names, "opaque")
		}
	})
	return names
}

// TestCostPlanTurnsProductIntoJoin: a comma join with a cross equality is
// written as Select over Product; the planner must execute it as a hash
// join with the single-table conjunct pushed onto its scan.
func TestCostPlanTurnsProductIntoJoin(t *testing.T) {
	db := newEmpDB(t)
	plan := optimizedPlan(t, db,
		"SELECT * FROM emp e, dept d WHERE e.dept = d.id AND e.salary > 150")
	s := ra.Format(plan)
	hasJoin, hasProduct, pushed := false, false, false
	ra.Walk(plan, func(n ra.Node) {
		switch t := n.(type) {
		case *ra.Join:
			hasJoin = true
		case *ra.Product:
			hasProduct = true
		case *ra.Select:
			if _, ok := t.Child.(*ra.Scan); ok {
				pushed = true
			}
		}
	})
	if !hasJoin || hasProduct {
		t.Fatalf("expected a Join and no Product:\n%s", s)
	}
	if !pushed {
		t.Fatalf("expected the salary conjunct pushed onto its scan:\n%s", s)
	}
}

// threeTableDB builds big(60) ⋈ mid(20) ⋈ small(5) with a shared join
// column so the planner has an unambiguous smallest-first order.
func threeTableDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, tc := range []struct {
		name string
		rows int
	}{{"big", 60}, {"mid", 20}, {"small", 5}} {
		mustExec(db, fmt.Sprintf("CREATE TABLE %s (x INT, tag TEXT)", tc.name))
		vals := make([]string, tc.rows)
		for i := 0; i < tc.rows; i++ {
			vals[i] = fmt.Sprintf("(%d, '%s%d')", i%5, tc.name, i)
		}
		mustExec(db, fmt.Sprintf("INSERT INTO %s VALUES %s", tc.name, strings.Join(vals, ", ")))
	}
	return db
}

const threeTableQuery = "SELECT * FROM big b, mid m, small s WHERE b.x = m.x AND m.x = s.x"

// TestCostPlanSmallestFirstOrder: with statistics available the cluster
// is joined smallest-estimated-input-first along equality edges.
func TestCostPlanSmallestFirstOrder(t *testing.T) {
	db := threeTableDB(t)
	plan := optimizedPlan(t, db, threeTableQuery)
	got := leafNames(plan)
	want := []string{"small", "mid", "big"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("join order = %v, want %v\n%s", got, want, ra.Format(plan))
	}
	// Reordering must stay invisible: a projection restores the written
	// column order, so planned and unplanned runs agree row for row.
	assertSameRows(t, db, threeTableQuery)
}

// assertSameRows checks RunPlan (cost-planned) against Snapshot.RunPlanRaw
// (no planning) as multisets of rendered rows — exact column order
// included, which pins the permutation-restoring projection.
func assertSameRows(t *testing.T, db *DB, sql string) {
	t.Helper()
	plan := plannedQuery(t, db, sql)
	raw, err := db.Snapshot().RunPlanRaw(plan)
	if err != nil {
		t.Fatalf("%q raw: %v", sql, err)
	}
	opt, err := db.RunPlan(plan)
	if err != nil {
		t.Fatalf("%q planned: %v", sql, err)
	}
	rawRows := renderSorted(raw.Rows)
	optRows := renderSorted(opt.Rows)
	if strings.Join(rawRows, "\n") != strings.Join(optRows, "\n") {
		t.Fatalf("%q: planned rows diverge\nraw: %v\nplanned: %v", sql, rawRows, optRows)
	}
}

func renderSorted(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

func plannedQuery(t *testing.T, db *DB, sql string) ra.Node {
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

// TestCostPlanResultsMatchUnplanned: randomized-ish sweep of cluster
// shapes — every query must produce identical rows with and without the
// cost planner.
func TestCostPlanResultsMatchUnplanned(t *testing.T) {
	db := threeTableDB(t)
	queries := []string{
		threeTableQuery,
		"SELECT * FROM big b, small s WHERE b.x = s.x",
		"SELECT * FROM big b, mid m, small s WHERE b.x = m.x AND m.x = s.x AND b.x > 1",
		"SELECT s.tag, b.tag FROM big b, mid m, small s WHERE b.x = m.x AND m.x = s.x AND s.x = 2",
		// Disconnected input: small joins nothing, so it lands last as a product.
		"SELECT * FROM big b, mid m, small s WHERE b.x = m.x",
		// Constant-only conjunct becomes a top-level residual.
		"SELECT * FROM big b, small s WHERE b.x = s.x AND 1 < 2",
		// Single table: the cluster is trivial.
		"SELECT * FROM small WHERE x > 1",
	}
	for _, sql := range queries {
		assertSameRows(t, db, sql)
	}
}

// TestCostPlanPushesJoinFilterBelowAntiJoin: in a residue-rewritten join
// the emp input is AntiJoin(Scan emp, Scan emp). costPlan pushes the
// single-input range conjuncts onto that input, i.e. directly above the
// opaque AntiJoin; the planner must carry them on into the anti-join's
// left side so the residue probes only the rows in range.
func TestCostPlanPushesJoinFilterBelowAntiJoin(t *testing.T) {
	db := newEmpDB(t)
	emp, _ := db.Table("emp")
	dept, _ := db.Table("dept")
	// emp: id -> salary residue over (e.*, _rw_emp.*): same id, other salary.
	residue := &ra.AntiJoin{
		L: &ra.Scan{Table: emp, Alias: "e"},
		R: &ra.Scan{Table: emp, Alias: "_rw_emp"},
		Pred: ra.Conjoin(
			ra.Cmp{Op: ra.EQ, L: ra.Col{Index: 0}, R: ra.Col{Index: 4}},
			ra.Cmp{Op: ra.NE, L: ra.Col{Index: 3}, R: ra.Col{Index: 7}},
		),
	}
	// e.dept = d.id AND e.id >= 2 AND e.id < 4 over (e.*, d.*).
	plan := &ra.Select{
		Child: &ra.Product{L: residue, R: &ra.Scan{Table: dept, Alias: "d"}},
		Pred: ra.Conjoin(
			ra.Cmp{Op: ra.EQ, L: ra.Col{Index: 2}, R: ra.Col{Index: 4}},
			ra.Cmp{Op: ra.GE, L: ra.Col{Index: 0}, R: ra.Const{V: value.Int(2)}},
			ra.Cmp{Op: ra.LT, L: ra.Col{Index: 0}, R: ra.Const{V: value.Int(4)}},
		),
	}
	phys := optimize(plan)
	var anti *ra.AntiJoin
	ra.Walk(phys, func(n ra.Node) {
		switch m := n.(type) {
		case *ra.AntiJoin:
			anti = m
		case *ra.Select:
			if _, ok := m.Child.(*ra.AntiJoin); ok {
				t.Errorf("a Select stayed above the AntiJoin:\n%s", ra.Format(phys))
			}
		}
	})
	if anti == nil {
		t.Fatalf("no AntiJoin in the planned tree:\n%s", ra.Format(phys))
	}
	sel, ok := anti.L.(*ra.Select)
	if !ok {
		t.Fatalf("AntiJoin left input is %T, want the range Select:\n%s", anti.L, ra.Format(phys))
	}
	if _, ok := sel.Child.(*ra.Scan); !ok || len(ra.Conjuncts(sel.Pred)) != 2 {
		t.Fatalf("AntiJoin left input = %s over %T, want both range conjuncts over the scan:\n%s",
			sel, sel.Child, ra.Format(phys))
	}
	rawRows, err := ra.Materialize(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	optRows, err := ra.Materialize(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(renderSorted(rawRows), "\n") != strings.Join(renderSorted(optRows), "\n") {
		t.Fatalf("planned rows diverge:\nraw %v\nplanned %v", renderSorted(rawRows), renderSorted(optRows))
	}
}

// opaqueNode hides its child from the estimator: EstimateCard does not
// know the shape and returns -1, forcing the planner's deterministic
// written-order fallback.
type opaqueNode struct{ Child ra.Node }

func (o *opaqueNode) Schema() schema.Schema { return o.Child.Schema() }
func (o *opaqueNode) Children() []ra.Node   { return nil } // leaf to Walk: hides the inner scan
func (o *opaqueNode) String() string        { return "Opaque" }
func (o *opaqueNode) Open(ctx context.Context) (ra.Iterator, error) {
	return o.Child.Open(ctx)
}

// TestCostPlanFallbackWithoutEstimates: when any cluster input has no
// cardinality estimate the written order is kept — planning must be
// deterministic with or without statistics.
func TestCostPlanFallbackWithoutEstimates(t *testing.T) {
	db := threeTableDB(t)
	big, _ := db.Table("big")
	mid, _ := db.Table("mid")
	small, _ := db.Table("small")
	opaque := &opaqueNode{Child: &ra.Scan{Table: small, Alias: "s"}}
	if ra.EstimateCard(opaque) != -1 {
		t.Fatal("opaque node should have no estimate")
	}
	// big ⋈ mid ⋈ opaque(small), written biggest-first: with estimates the
	// planner would put small first, but the opaque input disables reorder.
	cluster := &ra.Select{
		Child: &ra.Product{
			L: &ra.Product{L: &ra.Scan{Table: big, Alias: "b"}, R: &ra.Scan{Table: mid, Alias: "m"}},
			R: opaque,
		},
		Pred: ra.Conjoin(
			ra.Cmp{Op: ra.EQ, L: ra.Col{Index: 0}, R: ra.Col{Index: 2}}, // b.x = m.x
			ra.Cmp{Op: ra.EQ, L: ra.Col{Index: 2}, R: ra.Col{Index: 4}}, // m.x = s.x
		),
	}
	phys := optimize(cluster)
	got := leafNames(phys)
	want := []string{"big", "mid", "opaque"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("fallback order = %v, want written order %v\n%s", got, want, ra.Format(phys))
	}
	// Join formation still applies: the equality conjuncts become joins.
	hasProduct := false
	ra.Walk(phys, func(n ra.Node) {
		if _, ok := n.(*ra.Product); ok {
			hasProduct = true
		}
	})
	if hasProduct {
		t.Fatalf("fallback should still form joins from equality conjuncts:\n%s", ra.Format(phys))
	}
	// And execution matches the unplanned tree.
	rawRows, err := ra.Materialize(context.Background(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	optRows, err := ra.Materialize(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(renderSorted(rawRows), "\n") != strings.Join(renderSorted(optRows), "\n") {
		t.Fatalf("fallback rows diverge:\nraw %v\nplanned %v", renderSorted(rawRows), renderSorted(optRows))
	}
}
