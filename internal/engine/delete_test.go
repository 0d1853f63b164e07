package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// deletePair holds two databases with identical contents, one with an
// index on emp(id) (DELETE probes it) and one without (DELETE scans).
type deletePair struct {
	indexed, plain *DB
	recI, recP     *feedRecorder
}

func newDeletePair(t *testing.T) *deletePair {
	t.Helper()
	p := &deletePair{indexed: New(), plain: New(), recI: &feedRecorder{}, recP: &feedRecorder{}}
	for _, db := range []*DB{p.indexed, p.plain} {
		mustExec(db, "CREATE TABLE emp (id INT, salary INT, name TEXT)")
		// Enough rows to span several slabs, with every id repeated.
		var vals []string
		for i := 0; i < 3*storage.SlabSize; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'n%d')", i%40, 100+i, i%7))
		}
		vals = append(vals, "(9007199254740992, 1, 'big')", "(9007199254740993, 2, 'big')")
		mustExec(db, "INSERT INTO emp VALUES "+strings.Join(vals, ", "))
	}
	mustExec(p.indexed, "CREATE INDEX emp_id ON emp (id)")
	// A rolled-back batch resurrects the rows it deleted, which puts them
	// at the end of their live index buckets: the indexed DELETE must
	// still emit ascending RowIDs.
	for _, db := range []*DB{p.indexed, p.plain} {
		_, err := db.ExecBatch([]string{"DELETE FROM emp WHERE id = 3", "INSERT INTO emp VALUES (1)"})
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("rollback setup: %v", err)
		}
	}
	p.indexed.AddListener(p.recI)
	p.plain.AddListener(p.recP)
	return p
}

// usesIndex reports whether where would take the index path on db.
func usesIndex(t *testing.T, db *DB, where string) bool {
	t.Helper()
	tb, err := db.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	st := mustParseDelete(t, "DELETE FROM emp WHERE "+where)
	pred, err := planScalar(st.Where, tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	_, ok := chooseIndex(tb, pred)
	return ok
}

// sameState asserts the two databases hold the same live rows at the same
// RowIDs and delivered the same change feed.
func (p *deletePair) sameState(t *testing.T, label string) {
	t.Helper()
	if !slices.Equal(feedIDs(p.recI.data), feedIDs(p.recP.data)) {
		t.Fatalf("%s: change feeds differ:\n indexed %v\n scan    %v", label, feedIDs(p.recI.data), feedIDs(p.recP.data))
	}
	ti, _ := p.indexed.Table("emp")
	tp, _ := p.plain.Table("emp")
	if ti.Cap() != tp.Cap() || ti.Len() != tp.Len() {
		t.Fatalf("%s: cap/len %d/%d vs %d/%d", label, ti.Cap(), ti.Len(), tp.Cap(), tp.Len())
	}
	for id := 0; id < ti.Cap(); id++ {
		a, okA := ti.Row(storage.RowID(id))
		b, okB := tp.Row(storage.RowID(id))
		if okA != okB || (okA && !value.TuplesEqual(a, b)) {
			t.Fatalf("%s: row %d differs: %v/%v vs %v/%v", label, id, a, okA, b, okB)
		}
	}
}

func feedIDs(feed []storage.TableChange) []string {
	out := make([]string, len(feed))
	for i, tc := range feed {
		out[i] = fmt.Sprintf("%s %s#%d%s", tc.Table, tc.Change.Kind, tc.Change.Row, value.TupleString(tc.Change.Tuple))
	}
	return out
}

// An indexed DELETE must delete the same RowIDs, in the same change-feed
// order, as the table scan it replaces — statement at a time and inside
// batches that commit or roll back.
func TestDeleteIndexEquivalence(t *testing.T) {
	cases := []struct {
		where   string
		indexed bool // takes the index path
		deletes bool // removes at least one row
		fails   bool
	}{
		{where: "id = 5", indexed: true, deletes: true},
		{where: "7 = id", indexed: true, deletes: true},
		{where: "id = 9 AND salary > 400", indexed: true, deletes: true},
		{where: "id = 3", indexed: true, deletes: true}, // the resurrected rows
		{where: "id = 11.0", indexed: true, deletes: true},
		{where: "id = 12.5", indexed: true},
		{where: "id = NULL"},
		{where: "salary = 150", deletes: true},
		{where: "name = 'n2' AND salary < 300", deletes: true},
		{where: "id = 13 AND id = 14", indexed: true},
		{where: "id = 15 AND id = 15.0", indexed: true, deletes: true},
		{where: "id = 9007199254740992.0", deletes: true}, // rounds 2^53+1 too
		{where: "id = 'x'", fails: true},
		{where: "id = 99", indexed: true},
	}
	p := newDeletePair(t)
	for _, c := range cases {
		if got := usesIndex(t, p.indexed, c.where); got != c.indexed {
			t.Fatalf("%s: index path = %v, want %v", c.where, got, c.indexed)
		}
		if usesIndex(t, p.plain, c.where) {
			t.Fatalf("%s: unindexed database took the index path", c.where)
		}
		before := len(p.recP.data)
		sql := "DELETE FROM emp WHERE " + c.where
		_, nI, errI := p.indexed.Exec(sql)
		_, nP, errP := p.plain.Exec(sql)
		if (errI != nil) != c.fails || (errP != nil) != c.fails {
			t.Fatalf("%s: errors %v / %v, want failure=%v", c.where, errI, errP, c.fails)
		}
		if nI != nP {
			t.Fatalf("%s: deleted %d via index, %d via scan", c.where, nI, nP)
		}
		if (nP > 0) != c.deletes || len(p.recP.data)-before != nP {
			t.Fatalf("%s: deleted %d rows, feed grew by %d", c.where, nP, len(p.recP.data)-before)
		}
		p.sameState(t, c.where)
	}
}

func TestDeleteIndexInBatches(t *testing.T) {
	p := newDeletePair(t)
	commit := []string{
		"DELETE FROM emp WHERE id = 4 AND salary > 300",
		"INSERT INTO emp VALUES (4, 1000, 'x'), (4, 1, 'y')",
		"DELETE FROM emp WHERE id = 4",
		"DELETE FROM emp WHERE 6 = id AND name = 'n1'",
	}
	rollback := []string{
		"DELETE FROM emp WHERE id = 8",
		"INSERT INTO emp VALUES (8, 5, 'z')",
		"DELETE FROM emp WHERE id = 8 AND salary > 200",
		"INSERT INTO emp VALUES (8)", // arity error: the batch rolls back
	}
	for _, db := range []*DB{p.indexed, p.plain} {
		if _, err := db.ExecBatch(rollback); err == nil {
			t.Fatal("rollback batch committed")
		}
	}
	if len(p.recI.data) != 0 || len(p.recP.data) != 0 {
		t.Fatalf("rolled-back batch delivered changes: %v / %v", p.recI.data, p.recP.data)
	}
	p.sameState(t, "rollback")
	var counts [2][]int
	for i, db := range []*DB{p.indexed, p.plain} {
		n, err := db.ExecBatch(commit)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = n
	}
	if !slices.Equal(counts[0], counts[1]) || counts[0][2] == 0 {
		t.Fatalf("affected %v via index, %v via scan", counts[0], counts[1])
	}
	p.sameState(t, "commit")
	// The rolled-back rows are deletable again, in ascending order.
	for _, db := range []*DB{p.indexed, p.plain} {
		mustExec(db, "DELETE FROM emp WHERE id = 8")
	}
	p.sameState(t, "after rollback")
}

// A cancelled context stops the index walk before any row is chosen.
func TestDeleteIndexHonorsContext(t *testing.T) {
	p := newDeletePair(t)
	tb, _ := p.indexed.Table("emp")
	pred, err := planScalar(mustParseDelete(t, "DELETE FROM emp WHERE id = 5").Where, tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ids, err := deleteTargets(ctx, tb, pred); !errors.Is(err, context.Canceled) || ids != nil {
		t.Fatalf("cancelled walk = %v, %v", ids, err)
	}
}

func mustParseDelete(t *testing.T, sql string) *sqlparse.Delete {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparse.Delete)
}
