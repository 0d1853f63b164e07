package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/storage"
	"hippo/internal/value"
	"hippo/internal/wal"
)

// scriptOp is one atomic unit of the deterministic crash-grid workload:
// a single SQL statement, an atomic batch, a constraint declaration, or a
// checkpoint (durable runs only — the reference run skips it).
type scriptOp struct {
	kind  string // "sql", "batch", "constraint", "checkpoint"
	sqls  []string
	c     constraint.Constraint
	state bool // the op changes database state (checkpoints do not)
}

// crashScript covers every logged record kind, transient insert+delete
// pairs that coalesce out of the WAL, a mid-stream checkpoint, and
// post-checkpoint writes.
func crashScript() []scriptOp {
	return []scriptOp{
		{kind: "sql", sqls: []string{"CREATE TABLE emp (id INT, salary INT)"}, state: true},
		{kind: "constraint", c: constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}, state: true},
		{kind: "sql", sqls: []string{"INSERT INTO emp VALUES (1,100), (1,200), (2,150)"}, state: true},
		{kind: "batch", sqls: []string{
			"INSERT INTO emp VALUES (3,300)",
			"INSERT INTO emp VALUES (3,310)",
			"DELETE FROM emp WHERE id = 2",
		}, state: true},
		{kind: "sql", sqls: []string{"CREATE TABLE dept (d INT, dname TEXT)"}, state: true},
		{kind: "batch", sqls: []string{
			"INSERT INTO dept VALUES (1,'eng')",
			"INSERT INTO emp VALUES (4,400)", // transient: coalesced away
			"DELETE FROM emp WHERE id = 4",
			"INSERT INTO emp VALUES (2,175)",
		}, state: true},
		{kind: "checkpoint"},
		{kind: "sql", sqls: []string{"INSERT INTO emp VALUES (5,500)"}, state: true},
		{kind: "batch", sqls: []string{
			"DELETE FROM emp WHERE id = 1",
			"INSERT INTO emp VALUES (6,600)",
			"INSERT INTO emp VALUES (6,650)",
		}, state: true},
		{kind: "sql", sqls: []string{"CREATE INDEX emp_ix ON emp (id)"}, state: true},
		{kind: "sql", sqls: []string{"INSERT INTO emp VALUES (7,700)"}, state: true},
	}
}

// applyOp executes one op; durable selects whether checkpoint ops run.
func applyOp(sys *System, op scriptOp, durable bool) error {
	switch op.kind {
	case "sql":
		for _, q := range op.sqls {
			if _, _, err := sys.DB().Exec(q); err != nil {
				return err
			}
		}
		return nil
	case "batch":
		_, err := sys.DB().ExecBatch(op.sqls)
		return err
	case "constraint":
		return sys.AddConstraint(op.c)
	case "checkpoint":
		if durable {
			return sys.Checkpoint()
		}
		return nil
	default:
		return fmt.Errorf("unknown op kind %q", op.kind)
	}
}

// dbState captures everything recovery must reproduce: per-table live rows
// at their exact RowIDs, consistent answers, and the conflict hypergraph's
// component fingerprints. Slot-count (Cap) is deliberately excluded: a
// transient row at the very tail of a batch leaves an allocated tombstone
// in the reference run that the coalesced log never records — semantically
// invisible, since tombstones hold no tuple and no hypergraph vertex.
type dbState struct {
	tables  map[string][]string
	answers map[string][]string
	fps     []uint64
}

var crashQueries = []string{
	"SELECT * FROM emp",
	"SELECT * FROM emp WHERE salary > 150",
}

func captureState(t *testing.T, sys *System) dbState {
	t.Helper()
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := dbState{tables: map[string][]string{}, answers: map[string][]string{}}
	for _, name := range sys.DB().TableNames() {
		tab, err := sys.DB().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		tab.Scan(func(id storage.RowID, row value.Tuple) error {
			rows = append(rows, fmt.Sprintf("%d:%s", id, row.Key()))
			return nil
		})
		st.tables[name] = rows
	}
	for _, q := range crashQueries {
		if _, err := sys.DB().Table("emp"); err != nil {
			break // emp not created yet at this prefix
		}
		res, _, err := sys.ConsistentQuery(q, Options{})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		keys := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			keys = append(keys, r.Key())
		}
		sort.Strings(keys)
		st.answers[q] = keys
	}
	for _, c := range sys.Hypergraph().Components() {
		st.fps = append(st.fps, c.FP)
	}
	sort.Slice(st.fps, func(i, j int) bool { return st.fps[i] < st.fps[j] })
	return st
}

func statesEqual(a, b dbState) string {
	if len(a.tables) != len(b.tables) {
		return fmt.Sprintf("table count %d vs %d", len(a.tables), len(b.tables))
	}
	for name, rows := range a.tables {
		other, ok := b.tables[name]
		if !ok {
			return "missing table " + name
		}
		if fmt.Sprint(rows) != fmt.Sprint(other) {
			return fmt.Sprintf("table %s rows %v vs %v", name, rows, other)
		}
	}
	for q, keys := range a.answers {
		if fmt.Sprint(keys) != fmt.Sprint(b.answers[q]) {
			return fmt.Sprintf("answers to %q: %v vs %v", q, keys, b.answers[q])
		}
	}
	if fmt.Sprint(a.fps) != fmt.Sprint(b.fps) {
		return fmt.Sprintf("component fingerprints %v vs %v", a.fps, b.fps)
	}
	return ""
}

// TestRecoveryCrashPointGrid injects a crash at every byte position of the
// durable write stream — cutting records mid-length-prefix, mid-body, at
// boundaries, and inside checkpoint temporaries — and asserts that
// reopening always recovers exactly the state after the last fully
// committed operation: recovered tables (RowID-exact), conflict-component
// fingerprints, and consistent answers all equal the never-crashed
// reference run's prefix, and no partial batch ever survives.
func TestRecoveryCrashPointGrid(t *testing.T) {
	ops := crashScript()

	// Reference run: the same script applied in memory, state captured
	// after every op.
	ref := make([]dbState, 0, len(ops)+1)
	refSys := NewSystem(engine.New(), nil)
	ref = append(ref, captureState(t, refSys))
	for _, op := range ops {
		if err := applyOp(refSys, op, false); err != nil {
			t.Fatalf("reference op %+v: %v", op, err)
		}
		ref = append(ref, captureState(t, refSys))
	}

	// Probe run: learn the total durable write volume.
	probe := wal.NewCrashInjector(1 << 40)
	probeSys, err := OpenDurable(DurableOptions{
		Dir: t.TempDir(), NoSync: true, CheckpointBytes: -1, WrapSyncer: probe.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(probeSys, op, true); err != nil {
			t.Fatalf("probe op %+v: %v", op, err)
		}
	}
	probeSys.Close()
	total := probe.Written()
	if total < 512 {
		t.Fatalf("suspiciously small write volume %d", total)
	}

	step := int64(1)
	if testing.Short() {
		step = 17
	}
	for budget := int64(0); budget <= total; budget += step {
		ci := wal.NewCrashInjector(budget)
		dir := t.TempDir()
		applied := 0
		sys, err := OpenDurable(DurableOptions{
			Dir: dir, NoSync: true, CheckpointBytes: -1, WrapSyncer: ci.Wrap,
		})
		if err == nil {
			for _, op := range ops {
				if err := applyOp(sys, op, true); err != nil {
					break
				}
				if op.state {
					applied++
				}
			}
			sys.Close()
		} else if !errors.Is(err, wal.ErrInjectedCrash) {
			t.Fatalf("budget %d: open failed with %v", budget, err)
		}

		recovered, err := OpenDurable(DurableOptions{Dir: dir, NoSync: true, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		// applied counts state-changing ops; map to the reference index
		// (which includes non-state checkpoint ops in its prefix order).
		want := ref[refIndex(ops, applied)]
		if diff := statesEqual(want, captureState(t, recovered)); diff != "" {
			t.Fatalf("budget %d (applied %d): recovered state diverged: %s", budget, applied, diff)
		}
		recovered.Close()
	}
}

// refIndex maps a count of completed state-changing ops to the reference
// state index (reference states are captured after every op, including
// non-state ops).
func refIndex(ops []scriptOp, applied int) int {
	n := 0
	for i, op := range ops {
		if op.state {
			n++
		}
		if n == applied && applied > 0 {
			return i + 1
		}
	}
	if applied == 0 {
		return 0
	}
	return len(ops)
}

// TestRecoveryRolledBackBatchIsInvisible pins the rollback contract the
// WAL exposes: a batch that fails mid-way — after real inserts AND a real
// delete whose rollback path runs storage.Resurrect — must emit zero WAL
// records, zero change-feed deltas, and zero verdict-cache invalidations,
// and must not survive a restart.
func TestRecoveryRolledBackBatchIsInvisible(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(DurableOptions{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.DB()
	for _, q := range []string{
		"CREATE TABLE emp (id INT, salary INT)",
		"INSERT INTO emp VALUES (1,100), (1,200), (2,150)",
	} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddConstraint(constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}); err != nil {
		t.Fatal(err)
	}
	warm, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{Tier: TierForceProver})
	if err != nil {
		t.Fatal(err)
	}

	walBefore := sys.WALBytes()
	maintBefore := sys.Maintenance()
	cacheBefore := sys.CacheStats()

	_, err = db.ExecBatch([]string{
		"INSERT INTO emp VALUES (9,900)",
		"DELETE FROM emp WHERE id = 2", // rollback must Resurrect this row
		"INSERT INTO emp VALUES (1)",   // arity error fails the batch
	})
	var be *engine.BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("got %v, want BatchError at statement 2", err)
	}

	if got := sys.WALBytes(); got != walBefore {
		t.Fatalf("rolled-back batch wrote %d WAL bytes", got-walBefore)
	}
	res, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{Tier: TierForceProver})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(warm.Rows) {
		t.Fatalf("answers changed after rollback: %d vs %d", len(res.Rows), len(warm.Rows))
	}
	m := sys.Maintenance().Sub(maintBefore)
	if m.DeltasApplied != 0 {
		t.Fatalf("rolled-back batch leaked %d deltas into the hypergraph", m.DeltasApplied)
	}
	c := sys.CacheStats().Sub(cacheBefore)
	if c.Invalidated != 0 {
		t.Fatalf("rolled-back batch invalidated %d verdict-cache entries", c.Invalidated)
	}
	if c.Hits == 0 {
		t.Fatal("post-rollback query should have been served from the verdict cache")
	}
	// The resurrected row is still there, under its original RowID.
	tab, err := db.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	tab.Scan(func(id storage.RowID, row value.Tuple) error {
		if value.Equal(row[0], value.Int(2)) {
			found = true
		}
		return nil
	})
	if !found {
		t.Fatal("rollback did not resurrect the deleted row")
	}
	before := captureState(t, sys)
	sys.Close()

	// And none of it survives a restart.
	recovered, err := OpenDurable(DurableOptions{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if diff := statesEqual(before, captureState(t, recovered)); diff != "" {
		t.Fatalf("state diverged across restart: %s", diff)
	}
}

// TestDurableConcurrentConstraintAndWrites covers the one pair of WAL
// appends the engine's write sequencer does not order: AddConstraint logs
// under the system lock, not the sequencer, so its records interleave
// with concurrent DML and batch commits. After a clean Close and reopen,
// the recovered tables (RowID-exact), answers and conflict components
// must equal the pre-close state, and the recovered constraints the
// registered ones in registration order.
func TestDurableConcurrentConstraintAndWrites(t *testing.T) {
	const (
		writers   = 3
		perWriter = 30
	)
	dir := t.TempDir()
	sys, err := OpenDurable(DurableOptions{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.DB()
	for _, q := range []string{
		"CREATE TABLE emp (id INT, salary INT)",
		"CREATE TABLE dept (d INT, mgr INT)",
	} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	var constraints []constraint.Constraint
	for _, s := range []string{
		"emp: id -> salary",
		"dept: d -> mgr",
		"emp: salary -> id",
		"dept: mgr -> d",
	} {
		fd, err := constraint.ParseFD(s)
		if err != nil {
			t.Fatal(err)
		}
		constraints = append(constraints, fd)
	}
	for _, s := range []string{
		"emp a WHERE a.salary < 0",
		"emp a, dept b WHERE a.id = b.mgr AND a.salary > b.d",
		"dept a, dept b WHERE a.d = b.d AND a.mgr <> b.mgr",
	} {
		den, err := constraint.ParseDenial(s)
		if err != nil {
			t.Fatal(err)
		}
		constraints = append(constraints, den)
	}

	errs := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*1000 + i
				var err error
				switch i % 3 {
				case 0:
					_, _, err = db.Exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", id, i))
				case 1:
					_, err = db.ExecBatch([]string{
						fmt.Sprintf("INSERT INTO dept VALUES (%d, %d)", id, w),
						fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", id, -i),
						fmt.Sprintf("DELETE FROM emp WHERE id = %d", id-1),
					})
				default:
					_, _, err = db.Exec(fmt.Sprintf("DELETE FROM dept WHERE d = %d", id-1))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range constraints {
			if err := sys.AddConstraint(c); err != nil {
				errs <- fmt.Errorf("add %s: %w", c, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := captureState(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenDurable(DurableOptions{Dir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if diff := statesEqual(want, captureState(t, recovered)); diff != "" {
		t.Fatalf("recovered state differs: %s", diff)
	}
	got := recovered.Constraints()
	if len(got) != len(constraints) {
		t.Fatalf("recovered %d constraints, registered %d", len(got), len(constraints))
	}
	for i, c := range constraints {
		if got[i].String() != c.String() {
			t.Fatalf("constraint %d recovered as %s, registered %s", i, got[i], c)
		}
	}
}
