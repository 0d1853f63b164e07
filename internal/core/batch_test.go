package core

import (
	"fmt"
	"sort"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
)

// newBatchSys builds r (FD a → b, with one conflict) and the
// unconstrained s, analyzed and ready.
func newBatchSys(t *testing.T) *System {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT)")
	mustExec(db, "CREATE TABLE s (a INT, b INT)")
	mustExec(db, "INSERT INTO r VALUES (1, 1), (1, 2), (2, 5), (3, 7)")
	mustExec(db, "INSERT INTO s VALUES (9, 9)")
	fd := constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}}
	sys := NewSystem(db, []constraint.Constraint{fd})
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBatchTransientLeaksNothing is the coalescing-edge-case regression:
// a tuple inserted and deleted within one batch never became visible, so
// it must trigger no delta probe, and verdicts that depend on the tuple's
// absence must not change.
func TestBatchTransientLeaksNothing(t *testing.T) {
	sys := newBatchSys(t)
	const q = "SELECT * FROM r EXCEPT SELECT * FROM s"

	// Every candidate's verdict depends on its own membership in s
	// (negative atoms).
	first, err := runQ(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	maintBase := sys.Maintenance()

	// One real delta plus a transient pair: (2,5) enters and leaves s
	// within the batch. Statement-at-a-time this would flip the membership
	// of candidate (2,5)'s negative atom twice; as a batch it must be
	// invisible.
	if _, err := sys.DB().ExecBatch([]string{
		"INSERT INTO s VALUES (999, 999)",
		"INSERT INTO s VALUES (2, 5)",
		"DELETE FROM s WHERE a = 2",
	}); err != nil {
		t.Fatal(err)
	}

	again, err := runQ(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if tupleKey(first) != tupleKey(again) {
		t.Fatalf("answers changed after no-op-visible batch:\nbefore: %s\nafter:  %s",
			tupleKey(first), tupleKey(again))
	}
	m := sys.Maintenance().Sub(maintBase)
	if m.DeltasApplied != 1 {
		t.Errorf("deltas applied = %d, want 1 (only the real insert survives coalescing)", m.DeltasApplied)
	}

	// Contrast: the same transient pair statement-at-a-time is two real
	// deltas; the re-certified answers must still be unchanged.
	db := sys.DB()
	mustExec(db, "INSERT INTO s VALUES (2, 5)")
	mustExec(db, "DELETE FROM s WHERE a = 2")
	third, err := runQ(sys, q)
	if err != nil {
		t.Fatal(err)
	}
	if tupleKey(first) != tupleKey(third) {
		t.Fatalf("answers changed after transient statements:\n%s\nvs %s", tupleKey(first), tupleKey(third))
	}
	if m := sys.Maintenance().Sub(maintBase); m.DeltasApplied != 3 {
		t.Errorf("deltas applied = %d, want 3 (the batch's one plus two statements)", m.DeltasApplied)
	}
}

// TestBatchSameKeyReinsert covers the other coalescer edge: an update
// written as delete(old)+insert(new) with identical values lands on a new
// RowID, survives coalescing, and leaves hypergraph and answers exactly as
// statement-at-a-time application would.
func TestBatchSameKeyReinsert(t *testing.T) {
	seq := newBatchSys(t)
	bat := newBatchSys(t)
	stmts := []string{
		"DELETE FROM r WHERE a = 1 AND b = 2",
		"INSERT INTO r VALUES (1, 2)", // same values, new RowID
		"DELETE FROM r WHERE a = 3",
		"INSERT INTO r VALUES (3, 8)", // replaces (3,7) with a new value
	}
	for _, s := range stmts {
		mustExec(seq.DB(), s)
	}
	if _, err := bat.DB().ExecBatch(stmts); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT * FROM r",
		"SELECT * FROM r EXCEPT SELECT * FROM s",
		"SELECT * FROM r WHERE b > 1",
	} {
		a, err := runQ(seq, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runQ(bat, q)
		if err != nil {
			t.Fatal(err)
		}
		if tupleKey(a) != tupleKey(b) {
			t.Errorf("query %q: sequential %s vs batched %s", q, tupleKey(a), tupleKey(b))
		}
	}
	gs, gb := seq.GraphStats(), bat.GraphStats()
	if gs != gb {
		t.Errorf("hypergraph diverged: sequential %+v vs batched %+v", gs, gb)
	}
}

func runQ(sys *System, q string) (*engine.Result, error) {
	// The batch tests assert what certification sees after a batch, so
	// pin the prover tier (the rewrite tier certifies nothing).
	res, _, err := sys.ConsistentQuery(q, Options{Tier: TierForceProver})
	return res, err
}

func tupleKey(res *engine.Result) string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}
