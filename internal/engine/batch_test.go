package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hippo/internal/storage"
)

// feedRecorder captures the change feed a listener observes: each
// DataBatch call, and all of their changes in delivery order.
type feedRecorder struct {
	batches [][]storage.TableChange
	data    []storage.TableChange
	schema  []string
}

func (r *feedRecorder) DataBatch(changes []storage.TableChange) {
	r.batches = append(r.batches, slices.Clone(changes))
	r.data = append(r.data, changes...)
}

func (r *feedRecorder) SchemaChanged(reason string) { r.schema = append(r.schema, reason) }

func newBatchDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(db, "CREATE TABLE kv (k INT, v INT)")
	mustExec(db, "INSERT INTO kv VALUES (1, 10), (2, 20)")
	return db
}

func TestExecBatchSequentialSemantics(t *testing.T) {
	db := newBatchDB(t)
	// The DELETE must see the row the batch itself inserted.
	affected, err := db.ExecBatch([]string{
		"INSERT INTO kv VALUES (3, 30)",
		"DELETE FROM kv WHERE k = 3",
		"INSERT INTO kv VALUES (4, 40)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(affected) != "[1 1 1]" {
		t.Fatalf("affected = %v", affected)
	}
	res, err := db.Query("SELECT * FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows after batch = %d, want 3", len(res.Rows))
	}
}

func TestExecBatchCoalescesFeed(t *testing.T) {
	db := newBatchDB(t)
	rec := &feedRecorder{}
	db.AddListener(rec)
	defer db.RemoveListener(rec)
	if _, err := db.ExecBatch([]string{
		"INSERT INTO kv VALUES (5, 50)", // transient: deleted two statements later
		"INSERT INTO kv VALUES (6, 60)",
		"DELETE FROM kv WHERE k = 5",
		"DELETE FROM kv WHERE k = 1", // pre-batch row: must survive coalescing
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.data) != 2 {
		t.Fatalf("coalesced feed has %d events, want 2: %v", len(rec.data), rec.data)
	}
	if rec.data[0].Change.Kind != storage.ChangeInsert || rec.data[0].Table != "kv" {
		t.Fatalf("first surviving event = %+v, want insert of (6,60)", rec.data[0])
	}
	if rec.data[1].Change.Kind != storage.ChangeDelete {
		t.Fatalf("second surviving event = %+v, want delete of (1,10)", rec.data[1])
	}
}

// recordingLog is a commit log that keeps every batch it is asked to
// append and never fails.
type recordingLog struct{ batches [][]storage.TableChange }

func (l *recordingLog) AppendBatch(feed []storage.TableChange) error {
	l.batches = append(l.batches, slices.Clone(feed))
	return nil
}

func (l *recordingLog) AppendDDL(string) error { return nil }

// TestStatementFeedOneBatchPerCommit checks that a multi-row INSERT and a
// multi-row DELETE each reach a listener as one DataBatch call, and that an
// in-memory database delivers exactly the batches, in the same order, that
// the same statements deliver — and log — with a commit log attached.
func TestStatementFeedOneBatchPerCommit(t *testing.T) {
	stmts := []string{
		"INSERT INTO kv VALUES (3, 30), (4, 40), (5, 50)",
		"DELETE FROM kv WHERE v >= 20",
	}
	run := func(clog CommitLog) *feedRecorder {
		db := newBatchDB(t)
		if clog != nil {
			db.SetCommitLog(clog)
		}
		rec := &feedRecorder{}
		db.AddListener(rec)
		for _, q := range stmts {
			before := len(rec.batches)
			mustExec(db, q)
			if got := len(rec.batches) - before; got != 1 {
				t.Fatalf("%q reached the listener in %d calls, want 1", q, got)
			}
		}
		return rec
	}
	mem := run(nil)
	clog := &recordingLog{}
	logged := run(clog)
	if !reflect.DeepEqual(mem.batches, logged.batches) {
		t.Fatalf("in-memory feed %v differs from logged feed %v", mem.batches, logged.batches)
	}
	if !reflect.DeepEqual(clog.batches, logged.batches) {
		t.Fatalf("commit log holds %v, listener received %v", clog.batches, logged.batches)
	}
	kinds := func(b []storage.TableChange) (out []string) {
		for _, tc := range b {
			out = append(out, fmt.Sprintf("%s:%s:%d", tc.Table, tc.Change.Kind, tc.Change.Row))
		}
		return out
	}
	want := [][]string{
		{"kv:insert:2", "kv:insert:3", "kv:insert:4"},
		{"kv:delete:1", "kv:delete:2", "kv:delete:3", "kv:delete:4"},
	}
	for i, b := range mem.batches {
		if got := kinds(b); !slices.Equal(got, want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, got, want[i])
		}
	}
}

// TestEmptyCommitDeliversNoFeed: a statement that changes no row and a
// batch whose changes all cancel reach neither the listener nor the log.
func TestEmptyCommitDeliversNoFeed(t *testing.T) {
	db := newBatchDB(t)
	clog := &recordingLog{}
	db.SetCommitLog(clog)
	rec := &feedRecorder{}
	db.AddListener(rec)
	mustExec(db, "DELETE FROM kv WHERE k = 99")
	if _, err := db.ExecBatch([]string{
		"INSERT INTO kv VALUES (5, 50)",
		"DELETE FROM kv WHERE k = 5",
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != 0 || len(clog.batches) != 0 {
		t.Fatalf("empty commits delivered %v and logged %v", rec.batches, clog.batches)
	}
}

func TestExecBatchRollsBackOnError(t *testing.T) {
	db := newBatchDB(t)
	rec := &feedRecorder{}
	db.AddListener(rec)
	defer db.RemoveListener(rec)
	before, err := db.Query("SELECT * FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.ExecBatch([]string{
		"INSERT INTO kv VALUES (7, 70)",
		"DELETE FROM kv WHERE k = 2",
		"INSERT INTO kv VALUES (8)", // arity error: fails mid-batch
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("err = %v, want *BatchError at statement 2", err)
	}
	if len(rec.data) != 0 {
		t.Fatalf("rolled-back batch leaked %d feed events: %v", len(rec.data), rec.data)
	}
	after, err := db.Query("SELECT * FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("rows after failed batch = %d, want %d", len(after.Rows), len(before.Rows))
	}
	// The deleted-then-resurrected row is intact and re-indexed.
	res, err := db.Query("SELECT * FROM kv WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("row k=2 after rollback: %d rows", len(res.Rows))
	}
}

func TestExecBatchRejectsNonDML(t *testing.T) {
	db := newBatchDB(t)
	for i, sqls := range [][]string{
		{"INSERT INTO kv VALUES (9, 90)", "CREATE TABLE other (a INT)"},
		{"SELECT * FROM kv"},
		{"DROP TABLE kv"},
	} {
		_, err := db.ExecBatch(sqls)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("case %d: err = %v, want *BatchError", i, err)
		}
	}
	// Nothing from the rejected batches applied.
	res, err := db.Query("SELECT * FROM kv WHERE k = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("statement from a rejected batch was applied")
	}
}

func TestExecBatchParseErrorAbortsEarly(t *testing.T) {
	db := newBatchDB(t)
	_, err := db.ExecBatch([]string{"INSERT INTO kv VALUES (9, 90)", "NOT SQL"})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("err = %v, want *BatchError at statement 1", err)
	}
	res, err := db.Query("SELECT * FROM kv WHERE k = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("statement before the parse error was applied")
	}
}
