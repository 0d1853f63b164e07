package conflict

import (
	"sort"
	"strings"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/oracle"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// nullDB holds NULLs in every constrained column. Under
// FD emp: id -> dept,salary and the exclusion emp.id = ban.id, the SQL
// denials (a comparison with NULL is unknown, never true) are violated by
// exactly: emp#2/emp#3 (dept unknown, salary 10 <> 20), emp#6/emp#7 (dept
// 1 <> 2), emp#8 against emp#0 and emp#1 (dept 1 <> 2; salary NULL does
// not matter), and ban#1 (id 3) against emp#6 and emp#7. A NULL salary
// (emp#0/emp#1), a NULL id (emp#4/emp#5) and a NULL ban id conflict with
// nothing.
func nullDB(t *testing.T) (*engine.DB, []constraint.Constraint) {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, dept INT, salary INT)")
	mustExec(db, "CREATE TABLE ban (id INT)")
	mustExec(db, `INSERT INTO emp VALUES
		(1, 1, 10), (1, 1, NULL),
		(2, NULL, 10), (2, 5, 20),
		(NULL, 1, 10), (NULL, 1, 20),
		(3, 1, 10), (3, 2, 10),
		(1, 2, NULL)`)
	mustExec(db, "INSERT INTO ban VALUES (NULL), (3)")
	excl, err := constraint.ParseDenial("emp x, ban y WHERE x.id = y.id")
	if err != nil {
		t.Fatal(err)
	}
	return db, []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"dept", "salary"}},
		excl,
	}
}

var nullDBEdges = []string{
	"{ban#1, emp#6}", "{ban#1, emp#7}",
	"{emp#0, emp#8}", "{emp#1, emp#8}",
	"{emp#2, emp#3}", "{emp#6, emp#7}",
}

// TestDetectFollowsDenialNullSemantics: the FD fast path, the generic
// denial path, incremental insert probes and the repair oracle's
// nested-loop evaluation of the denials must all find the same
// violations when constrained columns hold NULL.
func TestDetectFollowsDenialNullSemantics(t *testing.T) {
	db, cs := nullDB(t)
	want := strings.Join(nullDBEdges, " ")

	fast, _, _ := detect(t, db, cs...)
	if got := strings.Join(edgeStrings(fast), " "); got != want {
		t.Errorf("FD fast path: edges %s, want %s", got, want)
	}

	generic, _, _ := detect(t, db, denialForms(t, db, cs...)...)
	if got := strings.Join(edgeStrings(generic), " "); got != want {
		t.Errorf("generic denial path: edges %s, want %s", got, want)
	}

	// Every row probed as if just inserted, into an empty hypergraph:
	// each violation is found from both of its sides, and no more.
	h := NewHypergraph()
	inc, err := NewIncrementalDetector(db, h, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"emp", "ban"} {
		tb, err := db.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		err = tb.Scan(func(id storage.RowID, row value.Tuple) error {
			return inc.Apply(Delta{Table: rel, Change: storage.Change{Kind: storage.ChangeInsert, Row: id, Tuple: row}})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(edgeStrings(h), " "); got != want {
		t.Errorf("incremental probes: edges %s, want %s", got, want)
	}

	o := &oracle.Oracle{DB: db, Constraints: cs}
	viols, err := o.Violations()
	if err != nil {
		t.Fatal(err)
	}
	var ref []string
	for _, v := range viols {
		parts := make([]string, len(v))
		for i, r := range v {
			parts[i] = r.String()
		}
		ref = append(ref, "{"+strings.Join(parts, ", ")+"}")
	}
	sort.Strings(ref)
	if got := strings.Join(ref, " "); got != want {
		t.Errorf("oracle violations %s, want %s", got, want)
	}
}
