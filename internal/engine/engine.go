// Package engine implements the embedded RDBMS the Hippo system runs
// against. In the paper, Hippo is a frontend to PostgreSQL over JDBC; here
// the same role — evaluating SQL for envelope queries, membership checks,
// and the query-rewriting baseline — is played by this engine, which plans
// parsed SQL onto the relational algebra of internal/ra and executes it
// over internal/storage tables.
package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// ChangeListener receives the database's change feed: one DataBatch call
// per committed DML statement or batch, and one SchemaChanged call per DDL
// statement. Listeners maintain derived state — the Hippo core subscribes
// to keep the conflict hypergraph current without rescanning tables.
type ChangeListener interface {
	// DataBatch reports the row deltas one commit made, in mutation order
	// (a batch's feed is coalesced first). The write sequencer is held
	// during delivery: the listener may read tables but must not write
	// to them.
	DataBatch(changes []storage.TableChange)
	// SchemaChanged reports a structural change (CREATE/DROP TABLE) that
	// invalidates any table-shape-dependent derived state.
	SchemaChanged(reason string)
}

// DB is an in-memory SQL database: a catalog of tables plus a planner and
// executor. It is safe for concurrent use by multiple readers and writers:
// all writers (DML and DDL issued through the engine) are serialized by a
// global write sequencer, which also lets FreezeWrites establish a
// consistent cross-table cut for snapshotting.
type DB struct {
	// wseq serializes every engine-issued write (DML and DDL) across all
	// tables, including its change-feed delivery. Holding it guarantees no
	// write is in flight anywhere, so a snapshot taken under it is a
	// consistent cut whose deltas have all been delivered.
	wseq   sync.Mutex
	mu     sync.RWMutex
	tables map[string]*storage.Table

	// clog, when attached, durably records every commit before its change
	// feed is delivered; guarded by wseq (see SetCommitLog).
	clog CommitLog

	lmu       sync.RWMutex
	listeners []ChangeListener
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*storage.Table)}
}

// AddListener subscribes l to the change feed of every current and future
// table, plus schema-change notifications.
func (db *DB) AddListener(l ChangeListener) {
	db.lmu.Lock()
	db.listeners = append(db.listeners, l)
	db.lmu.Unlock()
}

// RemoveListener unsubscribes l from the change feed. Short-lived
// subscribers must call it so the database does not keep feeding (and
// retaining) them forever.
func (db *DB) RemoveListener(l ChangeListener) {
	db.lmu.Lock()
	defer db.lmu.Unlock()
	// Copy-on-write: notifyBatch iterates a snapshot of this slice outside
	// the lock, so never mutate it in place.
	out := make([]ChangeListener, 0, len(db.listeners))
	for _, x := range db.listeners {
		if x != l {
			out = append(out, x)
		}
	}
	db.listeners = out
}

// notifyBatch delivers one commit's change feed to every listener.
func (db *DB) notifyBatch(changes []storage.TableChange) {
	db.lmu.RLock()
	ls := db.listeners
	db.lmu.RUnlock()
	for _, l := range ls {
		l.DataBatch(changes)
	}
}

func (db *DB) notifySchema(reason string) {
	db.lmu.RLock()
	ls := db.listeners
	db.lmu.RUnlock()
	for _, l := range ls {
		l.SchemaChanged(reason)
	}
}

// Table returns the named table.
func (db *DB) Table(name string) (*storage.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q", name)
	}
	return t, nil
}

// Relation returns the named table as a storage.Relation, satisfying the
// planner's catalog interface (shared with Snapshot).
func (db *DB) Relation(name string) (storage.Relation, error) {
	return db.Table(name)
}

// FreezeWrites blocks every engine writer (DML and DDL) until the
// returned release function is called. While frozen, no write is in
// flight and every completed write's change-feed delta has been
// delivered, so the caller can drain derived state and snapshot tables
// at one consistent cut. The Hippo core uses it when publishing a query
// view.
func (db *DB) FreezeWrites() (release func()) {
	db.wseq.Lock()
	return db.wseq.Unlock
}

// TableNames returns the sorted names of all tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// CreateTable registers a new table built from the given schema. With a
// commit log attached, the registration is durably logged before it is
// announced; a log failure unregisters the table and reports the error.
func (db *DB) CreateTable(name string, s schema.Schema) (*storage.Table, error) {
	db.wseq.Lock()
	defer db.wseq.Unlock()
	key := strings.ToLower(name)
	db.mu.RLock()
	_, exists := db.tables[key]
	db.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t := storage.NewTable(key, s)
	// Durable before visible: the DDL record must be on disk before any
	// reader can resolve the table — otherwise a crash (or append failure)
	// would retract a table queries already observed. The existence check
	// above cannot race: the write sequencer serializes all DDL.
	if err := db.logDDL(createTableSQL(key, t.Schema())); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.tables[key] = t
	db.mu.Unlock()
	db.notifySchema("create table " + key)
	return t, nil
}

// Result is a materialized query result.
type Result struct {
	Schema schema.Schema
	Rows   []value.Tuple
}

// Columns returns the output column names.
func (r *Result) Columns() []string {
	out := make([]string, r.Schema.Len())
	for i, c := range r.Schema.Columns {
		out[i] = c.Name
	}
	return out
}

// Exec parses and executes any statement. For SELECT it returns the result
// and affected = number of rows returned; for DML, affected counts changed
// rows and the result is nil.
func (db *DB) Exec(sql string) (*Result, int, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec honoring ctx: an expired context is reported before
// any work is dispatched, SELECT evaluation is cancellable row by row, and
// long INSERT/DELETE statements abort between rows (a statement that
// already mutated rows when the context fires still completes or fails as
// a whole — per-statement atomicity is not affected).
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, int, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	return db.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement.
func (db *DB) ExecStmt(st sqlparse.Statement) (*Result, int, error) {
	return db.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement under ctx (see ExecContext
// for the cancellation contract).
func (db *DB) ExecStmtContext(ctx context.Context, st sqlparse.Statement) (*Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		cols := make([]schema.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = schema.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := db.CreateTable(s.Name, schema.New(cols...)); err != nil {
			return nil, 0, err
		}
		return nil, 0, nil
	case *sqlparse.CreateIndex:
		// Resolve the table under the write sequencer: resolving it first
		// would let a concurrent DROP TABLE log its record ahead of this
		// statement's, leaving a dangling CREATE INDEX in the log that
		// recovery could never replay.
		db.wseq.Lock()
		defer db.wseq.Unlock()
		t, err := db.Table(s.Table)
		if err != nil {
			return nil, 0, err
		}
		sch := t.Schema()
		cols := make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx, err := sch.Resolve("", name)
			if err != nil {
				return nil, 0, err
			}
			cols[i] = idx
		}
		if _, err := t.EnsureIndex(cols); err != nil {
			return nil, 0, err
		}
		// Index definitions replay from the log so access paths survive a
		// restart. A log failure leaves the in-memory index in place —
		// indexes are performance state, not data — but still surfaces.
		if err := db.logDDL(s.String()); err != nil {
			return nil, 0, err
		}
		return nil, 0, nil
	case *sqlparse.DropTable:
		db.wseq.Lock()
		defer db.wseq.Unlock()
		key := strings.ToLower(s.Name)
		db.mu.RLock()
		_, ok := db.tables[key]
		db.mu.RUnlock()
		if !ok {
			return nil, 0, fmt.Errorf("engine: no such table %q", s.Name)
		}
		// Durable before visible (see CreateTable): readers keep resolving
		// the table until the drop is on disk, so a failed or torn append
		// never retracts an observed catalog change.
		if err := db.logDDL("DROP TABLE " + key); err != nil {
			return nil, 0, err
		}
		db.mu.Lock()
		delete(db.tables, key)
		db.mu.Unlock()
		db.notifySchema("drop table " + key)
		return nil, 0, nil
	case *sqlparse.Insert:
		n, err := db.execLogged(func(feed *[]storage.TableChange) (int, error) {
			return db.execInsertFrozen(ctx, s, feed)
		})
		return nil, n, err
	case *sqlparse.Delete:
		n, err := db.execLogged(func(feed *[]storage.TableChange) (int, error) {
			return db.execDeleteFrozen(ctx, s, feed)
		})
		return nil, n, err
	case *sqlparse.Query:
		res, err := db.RunQueryContext(ctx, s)
		if err != nil {
			return nil, 0, err
		}
		return res, len(res.Rows), nil
	default:
		return nil, 0, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// Query parses and executes a SELECT.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under ctx: evaluation aborts within a bounded
// number of rows once the context is cancelled or its deadline passes.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.RunQueryContext(ctx, q)
}

// RunQuery plans and executes a parsed query.
func (db *DB) RunQuery(q *sqlparse.Query) (*Result, error) {
	return db.RunQueryContext(context.Background(), q)
}

// RunQueryContext plans and executes a parsed query under ctx.
func (db *DB) RunQueryContext(ctx context.Context, q *sqlparse.Query) (*Result, error) {
	plan, err := db.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return db.RunPlanContext(ctx, plan)
}

// RunPlan executes a relational algebra plan and materializes the result.
// Physical planning — the cost-based stage (pushdown, join ordering) and
// access-path selection — is applied as a rewrite here, so logical plans
// handed to the CQA pipeline stay within the SJUD operator set.
func (db *DB) RunPlan(plan ra.Node) (*Result, error) {
	return db.RunPlanContext(context.Background(), plan)
}

// RunPlanContext is RunPlan under ctx; leaf iterators observe
// cancellation within a bounded number of rows.
func (db *DB) RunPlanContext(ctx context.Context, plan ra.Node) (*Result, error) {
	rows, err := ra.Materialize(ctx, optimize(plan))
	if err != nil {
		return nil, err
	}
	return &Result{Schema: plan.Schema(), Rows: rows}, nil
}

// execInsertFrozen applies an INSERT while the caller holds the write
// sequencer. Its changes are captured into feed for the commit path to
// deliver or roll back (and, for a batch, coalesce). A cancelled
// ctx stops the statement between rows; the rows already inserted stand
// (single statements are not rolled back — batches are, by ApplyBatch).
func (db *DB) execInsertFrozen(ctx context.Context, s *sqlparse.Insert, feed *[]storage.TableChange) (int, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	sch := t.Schema()
	// Map the explicit column list (if any) to positions.
	positions := make([]int, 0, sch.Len())
	if len(s.Columns) == 0 {
		for i := 0; i < sch.Len(); i++ {
			positions = append(positions, i)
		}
	} else {
		for _, name := range s.Columns {
			idx, err := sch.Resolve("", name)
			if err != nil {
				return 0, err
			}
			positions = append(positions, idx)
		}
	}
	inserted := 0
	for _, rowExprs := range s.Rows {
		if inserted%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return inserted, err
			}
		}
		if len(rowExprs) != len(positions) {
			return inserted, fmt.Errorf("engine: INSERT expects %d values, got %d",
				len(positions), len(rowExprs))
		}
		row := make(value.Tuple, sch.Len()) // unset columns default to NULL
		for i, e := range rowExprs {
			expr, err := planScalar(e, schema.Schema{})
			if err != nil {
				return inserted, err
			}
			v, err := expr.Eval(nil)
			if err != nil {
				return inserted, err
			}
			row[positions[i]] = v
		}
		_, ch, err := t.Insert(row)
		if err != nil {
			return inserted, err
		}
		*feed = append(*feed, storage.TableChange{Table: t.Name(), Change: ch})
		inserted++
	}
	return inserted, nil
}

// cancelCheckRows is how many rows a DML loop processes between context
// checks (mirroring ra's leaf-iterator cadence).
const cancelCheckRows = 256

// execDeleteFrozen applies a DELETE while the caller holds the write
// sequencer; see execInsertFrozen for the feed and cancellation contract
// (the predicate pass aborts on a cancelled ctx before any row is
// deleted; the delete loop aborts between rows).
func (db *DB) execDeleteFrozen(ctx context.Context, s *sqlparse.Delete, feed *[]storage.TableChange) (int, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return 0, err
	}
	var pred ra.Expr
	if s.Where != nil {
		pred, err = planScalar(s.Where, t.Schema())
		if err != nil {
			return 0, err
		}
	}
	doomed, err := deleteTargets(ctx, t, pred)
	if err != nil {
		return 0, err
	}
	for i, id := range doomed {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		ch, err := t.Delete(id)
		if err != nil {
			return i, err
		}
		*feed = append(*feed, storage.TableChange{Table: t.Name(), Change: ch})
	}
	return len(doomed), nil
}

// deleteTargets returns the ascending RowIDs of t's live rows that pred
// accepts (all of them for a nil pred). When pred's constant equalities
// pin the columns of an existing index it walks that index bucket instead
// of the table; either way pred is evaluated in full on every candidate.
func deleteTargets(ctx context.Context, t *storage.Table, pred ra.Expr) ([]storage.RowID, error) {
	var doomed []storage.RowID
	checked := 0
	visit := func(id storage.RowID, row value.Tuple) error {
		if checked%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		checked++
		if pred == nil {
			doomed = append(doomed, id)
			return nil
		}
		pass, err := ra.EvalPredicate(pred, row)
		if err != nil {
			return err
		}
		if pass {
			doomed = append(doomed, id)
		}
		return nil
	}
	ch, ok := chooseIndex(t, pred)
	if !ok {
		if err := t.Scan(visit); err != nil {
			return nil, err
		}
		return doomed, nil
	}
	// A live bucket is in insertion order only until a resurrect appends
	// an older id; sort so the change feed and the log see scan order.
	ids := t.IndexLookup(ch.idx, ch.key)
	slices.Sort(ids)
	for _, id := range ids {
		row, live := t.Row(id)
		if !live {
			continue
		}
		if err := visit(id, row); err != nil {
			return nil, err
		}
	}
	return doomed, nil
}

// BatchError reports which statement stopped a batch; the batch was rolled
// back and no change became visible.
type BatchError struct {
	Index int // 0-based position of the failing statement
	Err   error
}

// Error formats the failure with its statement position.
func (e *BatchError) Error() string {
	return fmt.Sprintf("engine: batch statement %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch applies a sequence of parsed DML statements as one group
// commit: every statement runs under a single hold of the write sequencer,
// so no snapshot — and therefore no published query view — can observe a
// prefix of the batch. Statements see the effects of earlier statements in
// the batch, exactly as statement-at-a-time application would. The
// buffered change feed is coalesced before delivery (a row inserted and
// deleted within the batch never surfaces: no delta probe, no cache
// invalidation), and listeners receive the surviving changes in mutation
// order, still under the sequencer.
//
// A batch is all-or-nothing: if any statement fails — only INSERT and
// DELETE are admitted, and runtime errors roll back too — every already
// applied change is undone, no change-feed event is delivered, and the
// returned *BatchError names the failing statement. On success the
// per-statement affected-row counts are returned.
func (db *DB) ApplyBatch(stmts []sqlparse.Statement) ([]int, error) {
	return db.ApplyBatchContext(context.Background(), stmts)
}

// ApplyBatchContext is ApplyBatch under ctx. Cancellation is observed
// between (and within) statements and rolls the entire batch back through
// the normal failure path, so atomicity holds: a deadline can abort a
// batch, never truncate one.
func (db *DB) ApplyBatchContext(ctx context.Context, stmts []sqlparse.Statement) ([]int, error) {
	for i, st := range stmts {
		switch st.(type) {
		case *sqlparse.Insert, *sqlparse.Delete:
		default:
			return nil, &BatchError{Index: i, Err: fmt.Errorf(
				"engine: only INSERT and DELETE may appear in a batch, got %T", st)}
		}
	}
	db.wseq.Lock()
	feed := make([]storage.TableChange, 0, len(stmts))
	affected := make([]int, len(stmts))
	for i, st := range stmts {
		var n int
		err := ctx.Err()
		if err == nil {
			switch s := st.(type) {
			case *sqlparse.Insert:
				n, err = db.execInsertFrozen(ctx, s, &feed)
			case *sqlparse.Delete:
				n, err = db.execDeleteFrozen(ctx, s, &feed)
			}
		}
		if err != nil {
			if rbErr := db.rollbackFrozen(feed); rbErr != nil {
				// A failed undo step would silently desynchronize derived
				// state (hypergraph, caches) from the tables. Signal a
				// schema-grade change so every listener rebuilds from a
				// full rescan, then report both errors.
				db.notifySchema("batch rollback failure")
				err = fmt.Errorf("%w (rollback incomplete, derived state rebuilt: %v)", err, rbErr)
			}
			db.wseq.Unlock()
			return nil, &BatchError{Index: i, Err: err}
		}
		affected[i] = n
	}
	// Commit point: with a log attached, the batch must be durable before
	// any listener (and hence any published view) can observe it. A log
	// failure rolls the whole batch back — never a prefix on disk, never a
	// prefix in memory.
	err := db.commitLogged(feed, storage.CoalesceChanges(feed))
	db.wseq.Unlock()
	if err != nil {
		return nil, err
	}
	return affected, nil
}

// ExecBatch parses sqls and applies them with ApplyBatch. A parse error
// aborts before anything runs.
func (db *DB) ExecBatch(sqls []string) ([]int, error) {
	return db.ExecBatchContext(context.Background(), sqls)
}

// ExecBatchContext is ExecBatch under ctx (see ApplyBatchContext).
func (db *DB) ExecBatchContext(ctx context.Context, sqls []string) ([]int, error) {
	stmts := make([]sqlparse.Statement, len(sqls))
	for i, q := range sqls {
		st, err := sqlparse.Parse(q)
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
		stmts[i] = st
	}
	return db.ApplyBatchContext(ctx, stmts)
}

// rollbackFrozen undoes captured (never delivered) changes in reverse
// order: inserted rows are re-tombstoned, deleted rows resurrected. The
// caller holds the write sequencer, so no reader snapshot can interleave.
// Every step succeeds by invariant (batches contain no DDL and captured
// RowIDs are stable); if one ever fails, the first failure is returned so
// the caller can force derived state to rebuild rather than serve answers
// diverged from the tables.
func (db *DB) rollbackFrozen(feed []storage.TableChange) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := len(feed) - 1; i >= 0; i-- {
		tc := feed[i]
		t, err := db.Table(tc.Table)
		if err != nil {
			keep(err)
			continue
		}
		if tc.Change.Kind == storage.ChangeInsert {
			_, err = t.Delete(tc.Change.Row)
		} else {
			err = t.Resurrect(tc.Change.Row)
		}
		keep(err)
	}
	return firstErr
}

// TableSchema returns the schema of the named table, satisfying
// constraint.Catalog.
func (db *DB) TableSchema(name string) (schema.Schema, error) {
	t, err := db.Table(name)
	if err != nil {
		return schema.Schema{}, err
	}
	return t.Schema(), nil
}
