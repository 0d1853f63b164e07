package engine

import (
	"sort"
	"strings"
	"testing"

	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// newEmpDB builds the canonical test database: employees with departments.
func newEmpDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(db, "CREATE TABLE emp (id INT, name TEXT, dept INT, salary FLOAT)")
	mustExec(db, "CREATE TABLE dept (id INT, dname TEXT)")
	mustExec(db, `INSERT INTO emp VALUES
		(1, 'ann', 10, 100.0),
		(2, 'bob', 10, 200.0),
		(3, 'cat', 20, 300.0),
		(4, 'dan', 30, 400.0)`)
	mustExec(db, "INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')")
	return db
}

func queryStrings(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

func wantRows(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v\nwant %v", got, want)
		}
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp WHERE salary > 150")
	wantRows(t, got, "('bob')", "('cat')", "('dan')")
}

func TestSelectStar(t *testing.T) {
	db := newEmpDB(t)
	res, err := db.Query("SELECT * FROM dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Schema.Len() != 2 {
		t.Fatalf("rows=%d schema=%v", len(res.Rows), res.Schema)
	}
	cols := res.Columns()
	if cols[0] != "id" || cols[1] != "dname" {
		t.Errorf("columns = %v", cols)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	db := newEmpDB(t)
	res, err := db.Query("SELECT e.name AS who, e.salary * 2 AS double FROM emp e WHERE e.id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Columns[0].Name != "who" || res.Schema.Columns[1].Name != "double" {
		t.Errorf("schema = %v", res.Schema)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != value.Float(200) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestImplicitAndExplicitJoin(t *testing.T) {
	db := newEmpDB(t)
	implicit := queryStrings(t, db,
		"SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id")
	explicit := queryStrings(t, db,
		"SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id")
	wantRows(t, implicit, "('ann', 'eng')", "('bob', 'eng')", "('cat', 'ops')")
	wantRows(t, explicit, "('ann', 'eng')", "('bob', 'eng')", "('cat', 'ops')")
}

func TestSelfJoinRequiresAliases(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db,
		"SELECT a.id, b.id FROM emp a, emp b WHERE a.dept = b.dept AND a.id < b.id")
	wantRows(t, got, "(1, 2)")
	if _, err := db.Query("SELECT * FROM emp, emp"); err == nil {
		t.Error("duplicate table without alias should error")
	}
}

func TestSetOperations(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db,
		"SELECT dept FROM emp WHERE salary < 250 UNION SELECT id FROM dept")
	wantRows(t, got, "(10)", "(20)")
	got = queryStrings(t, db,
		"SELECT dept FROM emp EXCEPT SELECT id FROM dept")
	wantRows(t, got, "(30)")
	got = queryStrings(t, db,
		"SELECT dept FROM emp INTERSECT SELECT id FROM dept")
	wantRows(t, got, "(10)", "(20)")
	if _, err := db.Query("SELECT id, name FROM emp UNION SELECT id FROM dept"); err == nil {
		t.Error("arity mismatch in UNION should error")
	}
}

func TestDistinct(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db, "SELECT DISTINCT dept FROM emp")
	wantRows(t, got, "(10)", "(20)", "(30)")
	got = queryStrings(t, db, "SELECT DISTINCT * FROM dept")
	if len(got) != 2 {
		t.Errorf("distinct * = %v", got)
	}
}

func TestExistsSubquery(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db,
		"SELECT name FROM emp e WHERE EXISTS (SELECT * FROM dept d WHERE d.id = e.dept)")
	wantRows(t, got, "('ann')", "('bob')", "('cat')")
	got = queryStrings(t, db,
		"SELECT name FROM emp e WHERE NOT EXISTS (SELECT * FROM dept d WHERE d.id = e.dept)")
	wantRows(t, got, "('dan')")
	// Combined with plain conjuncts.
	got = queryStrings(t, db,
		"SELECT name FROM emp e WHERE e.salary > 150 AND EXISTS (SELECT * FROM dept d WHERE d.id = e.dept)")
	wantRows(t, got, "('bob')", "('cat')")
}

func TestInSubquery(t *testing.T) {
	db := newEmpDB(t)
	got := queryStrings(t, db,
		"SELECT name FROM emp WHERE dept IN (SELECT id FROM dept)")
	wantRows(t, got, "('ann')", "('bob')", "('cat')")
	got = queryStrings(t, db,
		"SELECT name FROM emp WHERE dept NOT IN (SELECT id FROM dept)")
	wantRows(t, got, "('dan')")
	if _, err := db.Query("SELECT name FROM emp WHERE dept IN (SELECT id, dname FROM dept)"); err == nil {
		t.Error("multi-column IN should error")
	}
}

func TestSubqueryRestrictions(t *testing.T) {
	db := newEmpDB(t)
	bad := []string{
		// Subquery under OR.
		"SELECT * FROM emp e WHERE e.id = 1 OR EXISTS (SELECT * FROM dept d WHERE d.id = e.dept)",
		// Nested subquery.
		"SELECT * FROM emp e WHERE EXISTS (SELECT * FROM dept d WHERE EXISTS (SELECT * FROM emp x WHERE x.id = 1))",
		// Set op inside subquery.
		"SELECT * FROM emp e WHERE EXISTS (SELECT id FROM dept UNION SELECT id FROM dept)",
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestDelete(t *testing.T) {
	db := newEmpDB(t)
	_, n, err := db.Exec("DELETE FROM emp WHERE dept = 10")
	if err != nil || n != 2 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	got := queryStrings(t, db, "SELECT id FROM emp")
	wantRows(t, got, "(3)", "(4)")
	_, n, err = db.Exec("DELETE FROM emp")
	if err != nil || n != 2 {
		t.Fatalf("delete all n=%d err=%v", n, err)
	}
	if res, _ := db.Query("SELECT * FROM emp"); len(res.Rows) != 0 {
		t.Error("table should be empty")
	}
}

func TestInsertColumnList(t *testing.T) {
	db := New()
	mustExec(db, "CREATE TABLE t (a INT, b TEXT, c BOOL)")
	_, n, err := db.Exec("INSERT INTO t (c, a) VALUES (TRUE, 7)")
	if err != nil || n != 1 {
		t.Fatalf("insert n=%d err=%v", n, err)
	}
	res, _ := db.Query("SELECT * FROM t")
	row := res.Rows[0]
	if row[0] != value.Int(7) || !row[1].IsNull() || row[2] != value.Bool(true) {
		t.Errorf("row = %v", row)
	}
	if _, _, err := db.Exec("INSERT INTO t (a) VALUES (1, 2)"); err == nil {
		t.Error("value count mismatch should error")
	}
	if _, _, err := db.Exec("INSERT INTO t (zzz) VALUES (1)"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestDDLErrors(t *testing.T) {
	db := New()
	mustExec(db, "CREATE TABLE t (a INT)")
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Error("duplicate create should error")
	}
	if _, _, err := db.Exec("DROP TABLE missing"); err == nil {
		t.Error("drop missing should error")
	}
	mustExec(db, "DROP TABLE t")
	if _, err := db.Table("t"); err == nil {
		t.Error("dropped table still visible")
	}
	if _, err := db.Query("SELECT * FROM missing"); err == nil {
		t.Error("query on missing table should error")
	}
}

func TestTableNamesAndQueryCount(t *testing.T) {
	db := newEmpDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "dept" || names[1] != "emp" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestCaseInsensitiveNames(t *testing.T) {
	db := New()
	mustExec(db, "CREATE TABLE Person (Id INT, Name TEXT)")
	mustExec(db, "INSERT INTO person VALUES (1, 'x')")
	got := queryStrings(t, db, "SELECT PERSON.ID FROM PERSON WHERE person.name = 'x'")
	wantRows(t, got, "(1)")
}

func TestComparisonWithNulls(t *testing.T) {
	db := New()
	mustExec(db, "CREATE TABLE t (a INT)")
	mustExec(db, "INSERT INTO t VALUES (1), (NULL), (3)")
	got := queryStrings(t, db, "SELECT a FROM t WHERE a > 0")
	wantRows(t, got, "(1)", "(3)") // NULL row filtered out
	got = queryStrings(t, db, "SELECT a FROM t WHERE a IS NULL")
	wantRows(t, got, "(NULL)")
	got = queryStrings(t, db, "SELECT a FROM t WHERE a IS NOT NULL")
	wantRows(t, got, "(1)", "(3)")
}

func TestArithmeticInQueries(t *testing.T) {
	db := New()
	mustExec(db, "CREATE TABLE n (x INT)")
	mustExec(db, "INSERT INTO n VALUES (10), (7)")
	got := queryStrings(t, db, "SELECT x + 1, x - 1, x * 2, x / 2, x % 3 FROM n WHERE x = 10")
	wantRows(t, got, "(11, 9, 20, 5, 1)")
	if _, err := db.Query("SELECT x / 0 FROM n"); err == nil {
		t.Error("division by zero should surface an error")
	}
}

func TestExecErrors(t *testing.T) {
	db := New()
	if _, _, err := db.Exec("NOT SQL AT ALL"); err == nil {
		t.Error("parse error should propagate")
	}
	if _, _, err := db.Exec("SELECT * FROM missing"); err == nil {
		t.Error("query on a missing table should surface an error")
	}
}

func TestPlanQueryExposed(t *testing.T) {
	db := newEmpDB(t)
	q, err := parseQueryHelper("SELECT name FROM emp WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != value.Text("ann") {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(strings.ToLower(res.Schema.Columns[0].Name), "name") {
		t.Errorf("schema = %v", res.Schema)
	}
}

func parseQueryHelper(sql string) (*sqlparse.Query, error) {
	return sqlparse.ParseQuery(sql)
}

func TestOrderByAndLimit(t *testing.T) {
	db := newEmpDB(t)
	res, err := db.Query("SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != value.Text("dan") || res.Rows[1][0] != value.Text("cat") {
		t.Errorf("rows = %v", res.Rows)
	}
	// ORDER BY output alias and multiple keys.
	res, err = db.Query("SELECT dept, id FROM emp ORDER BY dept ASC, id DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1] != value.Int(2) { // dept 10, larger id first
		t.Errorf("rows = %v", res.Rows)
	}
	// ORDER BY across a set operation applies to the combined result.
	res, err = db.Query("SELECT id FROM dept UNION SELECT dept FROM emp ORDER BY id DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != value.Int(30) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Errors.
	if _, err := db.Query("SELECT * FROM emp ORDER BY zzz"); err == nil {
		t.Error("unknown order key should fail")
	}
	if _, err := db.Query("SELECT * FROM emp LIMIT 1.5"); err == nil {
		t.Error("fractional limit should fail")
	}
	if _, err := db.Query("SELECT * FROM emp e WHERE EXISTS (SELECT * FROM dept d WHERE d.id = e.dept ORDER BY d.id)"); err == nil {
		t.Error("ORDER BY in subquery should fail")
	}
}

// listenerLog records the change feed for listener tests.
type listenerLog struct {
	data   []string
	schema []string
}

func (l *listenerLog) DataBatch(changes []storage.TableChange) {
	for _, tc := range changes {
		l.data = append(l.data, tc.Table+":"+tc.Change.Kind.String())
	}
}
func (l *listenerLog) SchemaChanged(reason string) { l.schema = append(l.schema, reason) }

func TestChangeFeedAddRemoveListener(t *testing.T) {
	db := New()
	log := &listenerLog{}
	db.AddListener(log)
	mustExec(db, "CREATE TABLE t (a INT)")
	mustExec(db, "INSERT INTO t VALUES (1), (2)")
	mustExec(db, "DELETE FROM t WHERE a = 1")
	if want := []string{"t:insert", "t:insert", "t:delete"}; len(log.data) != 3 ||
		log.data[0] != want[0] || log.data[1] != want[1] || log.data[2] != want[2] {
		t.Fatalf("data feed = %v, want %v", log.data, want)
	}
	if len(log.schema) != 1 || log.schema[0] != "create table t" {
		t.Fatalf("schema feed = %v", log.schema)
	}
	db.RemoveListener(log)
	mustExec(db, "INSERT INTO t VALUES (3)")
	mustExec(db, "CREATE TABLE u (b INT)")
	if len(log.data) != 3 || len(log.schema) != 1 {
		t.Fatalf("removed listener still notified: data=%v schema=%v", log.data, log.schema)
	}
}
