package ra

import (
	"context"
	"sort"
	"strings"
	"testing"

	"hippo/internal/schema"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// mkTable builds a test table with int columns and the given rows.
func mkTable(t *testing.T, name string, cols []string, rows ...[]int64) *storage.Table {
	t.Helper()
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		sc[i] = schema.Column{Name: c, Type: value.KindInt}
	}
	tb := storage.NewTable(name, schema.New(sc...))
	for _, r := range rows {
		tup := make(value.Tuple, len(r))
		for i, v := range r {
			tup[i] = value.Int(v)
		}
		if _, _, err := tb.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// rowsOf materializes and renders sorted row strings for comparison.
func rowsOf(t *testing.T, n Node) []string {
	t.Helper()
	rows, err := Materialize(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

func eqRows(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScan(t *testing.T) {
	tb := mkTable(t, "r", []string{"a"}, []int64{1}, []int64{2})
	s := &Scan{Table: tb}
	eqRows(t, rowsOf(t, s), "(1)", "(2)")
	if s.Schema().Columns[0].Qualifier != "r" {
		t.Error("scan schema should be qualified by table name")
	}
	aliased := &Scan{Table: tb, Alias: "x"}
	if aliased.Schema().Columns[0].Qualifier != "x" {
		t.Error("alias should re-qualify")
	}
	if !strings.Contains(aliased.String(), "AS x") {
		t.Error("aliased String should mention alias")
	}
	if len(s.Children()) != 0 {
		t.Error("scan has no children")
	}
}

func TestSelect(t *testing.T) {
	tb := mkTable(t, "r", []string{"a"}, []int64{1}, []int64{2}, []int64{3})
	n := &Select{
		Child: &Scan{Table: tb},
		Pred:  Cmp{Op: GE, L: Col{Index: 0}, R: Const{V: value.Int(2)}},
	}
	eqRows(t, rowsOf(t, n), "(2)", "(3)")
	if n.Schema().Len() != 1 {
		t.Error("select schema should match child")
	}
}

func TestProject(t *testing.T) {
	tb := mkTable(t, "r", []string{"a", "b"}, []int64{1, 10}, []int64{2, 20}, []int64{1, 10})
	p := &Project{
		Child: &Scan{Table: tb},
		Exprs: []Expr{Col{Index: 1}, Arith{Op: Add, L: Col{Index: 0}, R: Const{V: value.Int(100)}}},
		Names: []string{"", "aplus"},
	}
	eqRows(t, rowsOf(t, p), "(10, 101)", "(20, 102)", "(10, 101)")
	sch := p.Schema()
	if sch.Columns[0].Name != "b" || sch.Columns[1].Name != "aplus" {
		t.Errorf("project schema names = %v", sch)
	}
	if sch.Columns[1].Type != value.KindInt {
		t.Errorf("inferred type = %v", sch.Columns[1].Type)
	}

	p.Distinct = true
	eqRows(t, rowsOf(t, p), "(10, 101)", "(20, 102)")
}

func TestProduct(t *testing.T) {
	l := mkTable(t, "l", []string{"a"}, []int64{1}, []int64{2})
	r := mkTable(t, "r", []string{"b"}, []int64{10}, []int64{20})
	p := &Product{L: &Scan{Table: l}, R: &Scan{Table: r}}
	eqRows(t, rowsOf(t, p), "(1, 10)", "(1, 20)", "(2, 10)", "(2, 20)")
	if p.Schema().Len() != 2 {
		t.Error("product schema arity")
	}
	if len(p.Children()) != 2 {
		t.Error("product children")
	}
}

func TestJoinHashAndNested(t *testing.T) {
	emp := mkTable(t, "emp", []string{"id", "dept"}, []int64{1, 100}, []int64{2, 200}, []int64{3, 100})
	dept := mkTable(t, "dept", []string{"did", "sz"}, []int64{100, 5}, []int64{200, 6})

	// Hash path: equi predicate.
	j := &Join{
		L:    &Scan{Table: emp},
		R:    &Scan{Table: dept},
		Pred: Cmp{Op: EQ, L: Col{Index: 1}, R: Col{Index: 2}},
	}
	eqRows(t, rowsOf(t, j), "(1, 100, 100, 5)", "(2, 200, 200, 6)", "(3, 100, 100, 5)")

	// Hash path with residual.
	j2 := &Join{
		L: &Scan{Table: emp},
		R: &Scan{Table: dept},
		Pred: And{
			L: Cmp{Op: EQ, L: Col{Index: 1}, R: Col{Index: 2}},
			R: Cmp{Op: GT, L: Col{Index: 0}, R: Const{V: value.Int(1)}},
		},
	}
	eqRows(t, rowsOf(t, j2), "(2, 200, 200, 6)", "(3, 100, 100, 5)")

	// Nested-loop path: non-equi predicate.
	j3 := &Join{
		L:    &Scan{Table: emp},
		R:    &Scan{Table: dept},
		Pred: Cmp{Op: LT, L: Col{Index: 0}, R: Col{Index: 3}},
	}
	rows, err := Materialize(context.Background(), j3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // all ids 1..3 are < both sizes 5 and 6
		t.Errorf("nested join rows = %d", len(rows))
	}

	// Nil predicate degenerates to product.
	j4 := &Join{L: &Scan{Table: emp}, R: &Scan{Table: dept}}
	rows, _ = Materialize(context.Background(), j4)
	if len(rows) != 6 {
		t.Errorf("nil-pred join rows = %d", len(rows))
	}
	// Reversed equi operands (right col = left col) also hash.
	j5 := &Join{
		L:    &Scan{Table: emp},
		R:    &Scan{Table: dept},
		Pred: Cmp{Op: EQ, L: Col{Index: 2}, R: Col{Index: 1}},
	}
	rows, _ = Materialize(context.Background(), j5)
	if len(rows) != 3 {
		t.Errorf("reversed equi join rows = %d", len(rows))
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	emp := mkTable(t, "emp", []string{"id", "dept"}, []int64{1, 100}, []int64{2, 300}, []int64{3, 100})
	dept := mkTable(t, "dept", []string{"did"}, []int64{100}, []int64{200})

	pred := Cmp{Op: EQ, L: Col{Index: 1}, R: Col{Index: 2}}
	semi := &SemiJoin{L: &Scan{Table: emp}, R: &Scan{Table: dept}, Pred: pred}
	eqRows(t, rowsOf(t, semi), "(1, 100)", "(3, 100)")
	if semi.Schema().Len() != 2 {
		t.Error("semi join schema should be left schema")
	}

	anti := &AntiJoin{L: &Scan{Table: emp}, R: &Scan{Table: dept}, Pred: pred}
	eqRows(t, rowsOf(t, anti), "(2, 300)")

	// Nested-loop path (non-equi).
	anti2 := &AntiJoin{
		L:    &Scan{Table: emp},
		R:    &Scan{Table: dept},
		Pred: Cmp{Op: LT, L: Col{Index: 1}, R: Col{Index: 2}},
	}
	// emp rows whose dept is not < any did: (1,100): 100<200 matches so excluded;
	// (2,300): no did > 300 → kept; (3,100): excluded.
	eqRows(t, rowsOf(t, anti2), "(2, 300)")

	// Nil predicate: semi keeps all iff right non-empty; anti drops all.
	semiAll := &SemiJoin{L: &Scan{Table: emp}, R: &Scan{Table: dept}}
	if len(rowsOf(t, semiAll)) != 3 {
		t.Error("nil-pred semi join should keep all rows")
	}
	antiNone := &AntiJoin{L: &Scan{Table: emp}, R: &Scan{Table: dept}}
	if len(rowsOf(t, antiNone)) != 0 {
		t.Error("nil-pred anti join with non-empty right should drop all")
	}
}

// TestHashMatchSkipsNullKeys: an equality with NULL is unknown, never
// true, so the hash paths of Join, SemiJoin and AntiJoin must treat a
// NULL key as matching nothing — exactly as the nested-loop path does
// with the same predicate written so that it does not hash.
func TestHashMatchSkipsNullKeys(t *testing.T) {
	null := value.Null()
	mk := func(name string, rows ...value.Tuple) *storage.Table {
		tb := storage.NewTable(name, schema.New(
			schema.Column{Name: "k", Type: value.KindInt}, schema.Column{Name: "v", Type: value.KindInt}))
		for _, r := range rows {
			if _, _, err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	l := mk("l", value.Tuple{value.Int(1), value.Int(1)}, value.Tuple{null, value.Int(2)}, value.Tuple{value.Int(3), value.Int(3)})
	r := mk("r", value.Tuple{value.Int(1), value.Int(10)}, value.Tuple{null, value.Int(20)})
	hashed := Cmp{Op: EQ, L: Col{Index: 0}, R: Col{Index: 2}}
	nested := Not{E: Cmp{Op: NE, L: Col{Index: 0}, R: Col{Index: 2}}}
	for _, tc := range []struct {
		name string
		mk   func(pred Expr) Node
		want []string
	}{
		{"join", func(p Expr) Node { return &Join{L: &Scan{Table: l}, R: &Scan{Table: r}, Pred: p} }, []string{"(1, 1, 1, 10)"}},
		{"join build left", func(p Expr) Node { return &Join{L: &Scan{Table: r}, R: &Scan{Table: l}, Pred: p} }, []string{"(1, 10, 1, 1)"}},
		{"semi", func(p Expr) Node { return &SemiJoin{L: &Scan{Table: l}, R: &Scan{Table: r}, Pred: p} }, []string{"(1, 1)"}},
		{"anti", func(p Expr) Node { return &AntiJoin{L: &Scan{Table: l}, R: &Scan{Table: r}, Pred: p} }, []string{"(NULL, 2)", "(3, 3)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eqRows(t, rowsOf(t, tc.mk(hashed)), tc.want...)
			eqRows(t, rowsOf(t, tc.mk(nested)), tc.want...)
		})
	}
}

func TestUnionDiffIntersect(t *testing.T) {
	a := mkTable(t, "a", []string{"x"}, []int64{1}, []int64{2}, []int64{2})
	b := mkTable(t, "b", []string{"x"}, []int64{2}, []int64{3})

	eqRows(t, rowsOf(t, &Union{L: &Scan{Table: a}, R: &Scan{Table: b}}), "(1)", "(2)", "(3)")
	eqRows(t, rowsOf(t, &Diff{L: &Scan{Table: a}, R: &Scan{Table: b}}), "(1)")
	eqRows(t, rowsOf(t, &Intersect{L: &Scan{Table: a}, R: &Scan{Table: b}}), "(2)")

	// Incompatible arity errors.
	two := mkTable(t, "two", []string{"x", "y"}, []int64{1, 2})
	if _, err := Materialize(context.Background(), &Union{L: &Scan{Table: a}, R: &Scan{Table: two}}); err == nil {
		t.Error("union arity mismatch should error")
	}
	if _, err := Materialize(context.Background(), &Diff{L: &Scan{Table: a}, R: &Scan{Table: two}}); err == nil {
		t.Error("diff arity mismatch should error")
	}
	if _, err := Materialize(context.Background(), &Intersect{L: &Scan{Table: a}, R: &Scan{Table: two}}); err == nil {
		t.Error("intersect arity mismatch should error")
	}
}

func TestDistinctNodeAndValues(t *testing.T) {
	v := &Values{
		Sch: schema.New(schema.Column{Name: "x", Type: value.KindInt}),
		Rows: []value.Tuple{
			{value.Int(1)}, {value.Int(1)}, {value.Int(2)},
		},
	}
	d := &DistinctNode{Child: v}
	eqRows(t, rowsOf(t, d), "(1)", "(2)")
	if d.Schema().Len() != 1 || len(d.Children()) != 1 {
		t.Error("distinct metadata wrong")
	}
	if len(v.Children()) != 0 {
		t.Error("values has no children")
	}
}

func TestFormatAndWalk(t *testing.T) {
	a := mkTable(t, "a", []string{"x"}, []int64{1})
	n := &Select{
		Child: &Union{L: &Scan{Table: a}, R: &Scan{Table: a}},
		Pred:  TrueExpr,
	}
	s := Format(n)
	if !strings.Contains(s, "Select") || !strings.Contains(s, "Union") ||
		!strings.Contains(s, "Scan(a)") {
		t.Errorf("Format = %q", s)
	}
	count := 0
	Walk(n, func(Node) { count++ })
	if count != 4 {
		t.Errorf("Walk visited %d nodes, want 4", count)
	}
}

// Property-style test: Union/Diff/Intersect obey set identities on random
// small inputs.
func TestSetOperatorIdentities(t *testing.T) {
	mkValues := func(xs []int64) Node {
		rows := make([]value.Tuple, len(xs))
		for i, x := range xs {
			rows[i] = value.Tuple{value.Int(x % 8)}
		}
		return &Values{
			Sch:  schema.New(schema.Column{Name: "x", Type: value.KindInt}),
			Rows: rows,
		}
	}
	cases := [][2][]int64{
		{{1, 2, 3}, {2, 3, 4}},
		{{}, {1}},
		{{5, 5, 5}, {5}},
		{{0, 1, 2, 3, 4, 5, 6, 7}, {4, 5, 6, 7, 8, 9}},
	}
	for _, c := range cases {
		a, b := mkValues(c[0]), mkValues(c[1])
		union := rowsOf(t, &Union{L: a, R: b})
		diff := rowsOf(t, &Diff{L: a, R: b})
		inter := rowsOf(t, &Intersect{L: a, R: b})
		diffBA := rowsOf(t, &Diff{L: b, R: a})
		// |A∪B| == |A−B| + |A∩B| + |B−A|
		if len(union) != len(diff)+len(inter)+len(diffBA) {
			t.Errorf("partition identity failed for %v/%v: %d != %d+%d+%d",
				c[0], c[1], len(union), len(diff), len(inter), len(diffBA))
		}
		// A∩B == A − (A−B)
		viaDiff := rowsOf(t, &Diff{L: a, R: &Diff{L: a, R: b}})
		if strings.Join(inter, ";") != strings.Join(viaDiff, ";") {
			t.Errorf("intersection identity failed for %v/%v", c[0], c[1])
		}
	}
}
