package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/wal"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaintainPendingOverflowFullRebuild pins the delta-queue overflow
// path: with a tiny queue cap and no query to drain it, a write burst
// must trip the overflow counter, schedule a full re-detection, and still
// serve exactly the right consistent answers afterwards.
func TestMaintainPendingOverflowFullRebuild(t *testing.T) {
	old := maxPendingDeltas
	maxPendingDeltas = 8
	defer func() { maxPendingDeltas = old }()

	s := newSystem(t)
	defer s.Close()
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	base := s.Maintenance()
	db := s.DB()
	for i := 0; i < 2*maxPendingDeltas; i++ {
		mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", 100+i, 10+i)) // conflict-free tail
	}
	mustExec(db, "INSERT INTO emp VALUES (2, 151)") // new conflict on id=2

	m := s.Maintenance()
	if m.PendingOverflows <= base.PendingOverflows {
		t.Fatalf("no overflow recorded past a cap of %d (%+v)", maxPendingDeltas, m)
	}

	// Mirror the final data on a fresh system: answers must agree even
	// though this system got there through the overflow -> full-rebuild
	// path rather than incremental folds.
	ref := newSystem(t)
	defer ref.Close()
	for i := 0; i < 2*maxPendingDeltas; i++ {
		mustExec(ref.DB(), fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", 100+i, 10+i))
	}
	mustExec(ref.DB(), "INSERT INTO emp VALUES (2, 151)")

	for _, q := range []string{"SELECT * FROM emp", "SELECT * FROM emp WHERE salary > 100"} {
		got, _, err := s.ConsistentQuery(q, Options{Tier: TierForceProver})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.ConsistentQuery(q, Options{Tier: TierForceProver})
		if err != nil {
			t.Fatal(err)
		}
		g, w := rowStrings(got.Rows), rowStrings(want.Rows)
		if strings.Join(g, " ") != strings.Join(w, " ") {
			t.Fatalf("%q after overflow: %v, want %v", q, g, w)
		}
	}
	if m2 := s.Maintenance(); m2.FullRebuilds <= base.FullRebuilds {
		t.Fatalf("overflow did not force a full rebuild (%d -> %d)", base.FullRebuilds, m2.FullRebuilds)
	}
}

// failTmpSyncer fails every write to checkpoint temporaries (".tmp"
// files), simulating a persistently broken checkpoint directory while the
// WAL itself stays healthy.
type failTmpSyncer struct{ under wal.Syncer }

var errBrokenCheckpointDir = errors.New("checkpoint directory is broken")

func (f failTmpSyncer) Write(p []byte) (int, error) { return 0, errBrokenCheckpointDir }
func (f failTmpSyncer) Sync() error                 { return errBrokenCheckpointDir }
func (f failTmpSyncer) Close() error                { return f.under.Close() }

// TestMaintainHealthSurfacesCheckpointFailure pins the observation
// channel ISSUE 10 adds: a background checkpoint failure must become
// visible through MaintenanceHealth WITHOUT issuing another write (the
// old TakeCheckpointError contract only surfaced it on the next Exec),
// while queries and commits keep serving.
func TestMaintainHealthSurfacesCheckpointFailure(t *testing.T) {
	sys, err := OpenDurable(DurableOptions{
		Dir: t.TempDir(), NoSync: true, CheckpointBytes: 1,
		WrapSyncer: func(name string, s wal.Syncer) wal.Syncer {
			if strings.HasSuffix(name, ".tmp") {
				return failTmpSyncer{under: s}
			}
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	db := sys.DB()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150)")
	if err := sys.AddConstraint(constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}); err != nil {
		t.Fatal(err)
	}
	// The writes exceeded CheckpointBytes=1, so the async checkpointer has
	// attempted (and failed) a checkpoint. Observe the sticky error with
	// no further writes: MaintenanceHealth peeks, it does not drain.
	waitUntil(t, "degraded maintenance health", func() bool {
		return sys.MaintenanceHealth() != nil
	})
	if err := sys.MaintenanceHealth(); !errors.Is(err, errBrokenCheckpointDir) {
		t.Fatalf("health = %v, want the checkpoint failure", err)
	}
	// Peeking twice still sees it; the system still serves.
	if err := sys.MaintenanceHealth(); err == nil {
		t.Fatal("MaintenanceHealth drained the sticky error")
	}
	res, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{Tier: TierForceProver})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("degraded system served %d answers, want 1", len(res.Rows))
	}
	// TakeCheckpointError (the Exec-path drain) still collects it.
	if err := sys.TakeCheckpointError(); !errors.Is(err, errBrokenCheckpointDir) {
		t.Fatalf("TakeCheckpointError = %v", err)
	}
}

// TestMaintainStressPublishUnderRace hammers view publication from both
// sides at once — a writer and concurrent consistent readers, each of
// which may be the one that publishes — then closes (twice: Close is
// idempotent) and gates on goroutine leaks. Run under -race in CI.
func TestMaintainStressPublishUnderRace(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	s := NewSystem(db, []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
	})
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}

	const steps = 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < steps; i++ {
			if i%7 == 3 {
				mustExec(db, fmt.Sprintf("DELETE FROM emp WHERE id = %d", i-2))
				continue
			}
			mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", i, i%5))
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // consistent readers race each other to publish
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// One more query drains the tail; then verify and shut down.
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingDeltas(); n != 0 {
		t.Fatalf("%d deltas still pending after a query published", n)
	}
	if err := s.MaintenanceHealth(); err != nil {
		t.Fatalf("stress left maintenance degraded: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after shutdown: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryReplayEquivalence pins the replay contract: a long
// multi-table WAL with mid-stream DDL recovers to the IDENTICAL state —
// RowID-exact tables, component fingerprints, consistent answers — as
// the system held before it closed.
func TestRecoveryReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(DurableOptions{Dir: dir, NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db := sys.DB()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "CREATE TABLE dept (d INT, dname TEXT)")
	if err := sys.AddConstraint(constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", i%20, i))
		if i%3 == 0 {
			mustExec(db, fmt.Sprintf("INSERT INTO dept VALUES (%d, 'd%d')", i, i))
		}
		if i%11 == 5 {
			mustExec(db, fmt.Sprintf("DELETE FROM emp WHERE id = %d AND salary = %d", (i-3)%20, i-3))
		}
		if i == 30 { // mid-stream DDL: later batches resolve against it
			mustExec(db, "CREATE TABLE audit (op TEXT)")
		}
		if i > 30 && i%4 == 1 {
			mustExec(db, fmt.Sprintf("INSERT INTO audit VALUES ('op%d')", i))
		}
	}
	mustExec(db, "CREATE INDEX emp_ix ON emp (id)")
	mustExec(db, "INSERT INTO emp VALUES (99, 9900)")
	before := captureState(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(DurableOptions{Dir: dir, NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	after := captureState(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if diff := statesEqual(before, after); diff != "" {
		t.Fatalf("replay diverged from pre-close state: %s", diff)
	}
}
