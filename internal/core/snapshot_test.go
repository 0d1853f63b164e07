package core

import (
	"strings"
	"testing"
)

// A pinned snapshot must keep serving the same answers while writers move
// the live database forward.
func TestSnapshotPinnedAcrossWrites(t *testing.T) {
	s := newSystem(t)
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	before, _, err := s.ConsistentQueryAt(sn, "SELECT * FROM emp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowStrings(before.Rows), " "); got != "(2, 150) (4, 50)" {
		t.Fatalf("pinned answers = %v", got)
	}

	// Make tuple (2,150) inconsistent and add a fresh consistent tuple.
	mustExec(s.DB(), "INSERT INTO emp VALUES (2, 999), (7, 70)")

	again, _, err := s.ConsistentQueryAt(sn, "SELECT * FROM emp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowStrings(again.Rows), " ") != strings.Join(rowStrings(before.Rows), " ") {
		t.Fatalf("pinned view drifted: %v vs %v", rowStrings(again.Rows), rowStrings(before.Rows))
	}

	// An unpinned query sees the new state.
	fresh, st, err := s.ConsistentQuery("SELECT * FROM emp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowStrings(fresh.Rows), " "); got != "(4, 50) (7, 70)" {
		t.Fatalf("fresh answers = %v", got)
	}
	if st.Epoch <= sn.Epoch() {
		t.Fatalf("fresh query epoch %d not beyond pinned epoch %d", st.Epoch, sn.Epoch())
	}

	// Plain SQL at the snapshot also sees the pinned state.
	res, err := sn.Query("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("snapshot SQL rows=%d, want 6", len(res.Rows))
	}
}

// Retired views are reclaimed by epoch: a pinned view is parked at the
// next publish and dropped only after its last unpin.
func TestEpochReclamation(t *testing.T) {
	s := newSystem(t)
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Replace the pinned view.
	mustExec(s.DB(), "INSERT INTO emp VALUES (8, 80)")
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	m := s.Maintenance()
	if m.ViewsPublished < 2 {
		t.Fatalf("views published = %d, want >= 2", m.ViewsPublished)
	}
	if m.ViewsReclaimed != 0 {
		t.Fatalf("pinned view reclaimed early (reclaimed=%d)", m.ViewsReclaimed)
	}
	sn.Close()
	sn.Close() // idempotent
	m = s.Maintenance()
	if m.ViewsReclaimed != 1 {
		t.Fatalf("views reclaimed after unpin = %d, want 1", m.ViewsReclaimed)
	}
	if m.SlabsReclaimed < 1 {
		t.Fatalf("slabs reclaimed = %d, want >= 1", m.SlabsReclaimed)
	}

	// An unpinned view replaced by a publish is reclaimed immediately.
	mustExec(s.DB(), "INSERT INTO emp VALUES (9, 90)")
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Maintenance().ViewsReclaimed; got != 2 {
		t.Fatalf("views reclaimed = %d, want 2", got)
	}
}

// Invalidate must survive concurrent-publication ordering: the next
// query after it always pays a full re-detection.
func TestInvalidateForcesFullRebuild(t *testing.T) {
	s := newSystem(t)
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	before := s.Maintenance().FullRebuilds
	s.Invalidate()
	if _, _, err := s.ConsistentQuery("SELECT * FROM emp", Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Maintenance().FullRebuilds; got != before+1 {
		t.Fatalf("full rebuilds %d -> %d, want exactly one more after Invalidate", before, got)
	}
}

// Repair enumeration reads the published snapshot without cloning it; it
// must leave the snapshot (and the live graph) untouched.
func TestEnumerationDoesNotMutateSnapshot(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	before := s.GraphStats()
	en, err := s.RepairEnumerator()
	if err != nil {
		t.Fatal(err)
	}
	edgesBefore := en.H.NumEdges()
	sets1, err := en.DeletionSets()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := en.ConsistentAnswers("SELECT * FROM emp"); err != nil {
		t.Fatal(err)
	}
	sets2, err := en.DeletionSets()
	if err != nil {
		t.Fatal(err)
	}
	if len(sets1) != len(sets2) {
		t.Fatalf("enumeration not repeatable: %d vs %d repairs", len(sets1), len(sets2))
	}
	if en.H.NumEdges() != edgesBefore {
		t.Fatalf("enumeration mutated the hypergraph snapshot: %d -> %d edges", edgesBefore, en.H.NumEdges())
	}
	if after := s.GraphStats(); after != before {
		t.Fatalf("enumeration mutated the live graph: %+v -> %+v", before, after)
	}
}
