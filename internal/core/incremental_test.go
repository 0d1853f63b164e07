package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
)

// edgeSet canonicalizes a hypergraph's live edges as sorted vertex-set
// strings (labels are excluded: when two constraints produce the same
// vertex set, which label wins depends on discovery order).
func edgeSet(h *conflict.Hypergraph) []string {
	edges := h.Edges()
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = e.String()
	}
	sort.Strings(out)
	return out
}

func diffStrings(a, b []string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("edge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("edge %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	return ""
}

// TestIncrementalMatchesFullDetect runs a randomized interleaved
// INSERT/DELETE workload and asserts, at every checkpoint, that the
// incrementally maintained hypergraph is edge- and vertex-identical to a
// fresh full Detect over the same data, and that consistent answers
// match a freshly analyzed system — without the incremental system ever
// rescanning (FullRebuilds stays at the initial analysis).
func TestIncrementalMatchesFullDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT, dept INT)")
	mustExec(db, "CREATE TABLE blocked (id INT)")

	excl, err := constraint.ParseDenial("emp AS e, blocked AS b WHERE e.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	cs := []constraint.Constraint{
		constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
		excl,
	}
	sys := NewSystem(db, cs)
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}

	// Small value domains force frequent conflict creation and removal.
	const steps, checkEvery = 400, 20
	query := "SELECT * FROM emp WHERE salary >= 1"
	for step := 1; step <= steps; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			mustExec(db, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d)",
				rng.Intn(16), rng.Intn(3), rng.Intn(5)))
		case 2:
			mustExec(db, fmt.Sprintf("INSERT INTO blocked VALUES (%d)", rng.Intn(16)))
		default:
			// Predicate deletes may remove several rows (or none) — each
			// removed row emits its own delta.
			if rng.Intn(2) == 0 {
				mustExec(db, fmt.Sprintf("DELETE FROM emp WHERE id = %d AND salary = %d",
					rng.Intn(16), rng.Intn(3)))
			} else {
				mustExec(db, fmt.Sprintf("DELETE FROM blocked WHERE id = %d", rng.Intn(16)))
			}
		}
		if step%checkEvery != 0 {
			continue
		}

		got, _, err := sys.ConsistentQuery(query, Options{})
		if err != nil {
			t.Fatalf("step %d: incremental query: %v", step, err)
		}
		if n := sys.PendingDeltas(); n != 0 {
			t.Fatalf("step %d: %d deltas left pending after query", step, n)
		}

		// Reference: a full Detect over the same data.
		fresh, _, _, err := conflict.NewDetector(db).Detect(cs)
		if err != nil {
			t.Fatalf("step %d: full detect: %v", step, err)
		}
		if d := diffStrings(edgeSet(sys.Hypergraph()), edgeSet(fresh)); d != "" {
			t.Fatalf("step %d: incremental hypergraph diverged: %s", step, d)
		}
		if a, b := sys.Hypergraph().NumConflictingVertices(), fresh.NumConflictingVertices(); a != b {
			t.Fatalf("step %d: conflicting vertices: incremental=%d full=%d", step, a, b)
		}

		// Reference answers from a freshly analyzed system (closed after
		// use so it stops receiving the change feed).
		ref := NewSystem(db, cs)
		want, _, err := ref.ConsistentQuery(query, Options{})
		ref.Close()
		if err != nil {
			t.Fatalf("step %d: reference query: %v", step, err)
		}
		gotRows, wantRows := rowStrings(got.Rows), rowStrings(want.Rows)
		if d := diffStrings(gotRows, wantRows); d != "" {
			t.Fatalf("step %d: answers diverged: %s", step, d)
		}
	}

	m := sys.Maintenance()
	if m.FullRebuilds != 1 {
		t.Errorf("incremental system ran %d full rebuilds, want 1 (the initial analysis)", m.FullRebuilds)
	}
	if m.DeltasApplied == 0 || m.EdgesAdded == 0 || m.EdgesRemoved == 0 {
		t.Errorf("expected nonzero maintenance activity, got %+v", m)
	}
}

// TestIncrementalDDLForcesRebuild checks that DDL (and constraint
// changes) still fall back to a full re-detection.
func TestIncrementalDDLForcesRebuild(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	mustExec(sys.DB(), "CREATE TABLE extra (id INT)")
	if _, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if m := sys.Maintenance(); m.FullRebuilds != 2 {
		t.Errorf("DDL should force a rebuild: got %d rebuilds, want 2", m.FullRebuilds)
	}

	sys.AddConstraint(constraint.FD{Rel: "emp", LHS: []string{"salary"}, RHS: []string{"id"}})
	if _, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if m := sys.Maintenance(); m.FullRebuilds != 3 {
		t.Errorf("constraint change should force a rebuild: got %d rebuilds, want 3", m.FullRebuilds)
	}
}

// TestIncrementalTransientInsertDelete exercises the queued
// insert-then-delete case: the insert's probe runs against a row already
// tombstoned by the later delete, and the delete's RemoveVertex must
// cancel the transient edges.
func TestIncrementalTransientInsertDelete(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	edgesBefore := sys.Hypergraph().NumEdges()
	// Conflicts with id=2 (salary 150), then vanishes before any query.
	mustExec(sys.DB(), "INSERT INTO emp VALUES (2, 999)")
	mustExec(sys.DB(), "DELETE FROM emp WHERE salary = 999")
	if _, _, err := sys.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Hypergraph().NumEdges(); got != edgesBefore {
		t.Errorf("transient insert+delete changed edge count: %d -> %d", edgesBefore, got)
	}
	if m := sys.Maintenance(); m.FullRebuilds != 1 {
		t.Errorf("transient DML should not force a rebuild: got %d rebuilds", m.FullRebuilds)
	}
}
