package conflict

import (
	"slices"
	"testing"

	"hippo/internal/storage"
	"hippo/internal/value"
)

func hv(i int) Vertex { return Vertex{Rel: "t", Row: storage.RowID(i)} }

func TestHypergraphSnapshotCOW(t *testing.T) {
	h := NewHypergraph()
	for i := 0; i < 10; i++ {
		h.AddEdge([]Vertex{hv(2 * i), hv(2*i + 1)}, "c")
	}
	snap := h.Snapshot()
	if snap.NumEdges() != 10 {
		t.Fatalf("snapshot edges=%d, want 10", snap.NumEdges())
	}

	// Mutations after the snapshot must not show through.
	h.AddEdge([]Vertex{hv(100), hv(101)}, "c")
	h.RemoveVertex(hv(0))
	if h.NumEdges() != 10 {
		t.Fatalf("live edges=%d, want 10", h.NumEdges())
	}
	if snap.NumEdges() != 10 {
		t.Fatalf("snapshot edges changed to %d", snap.NumEdges())
	}
	g := snap.Graph()
	if !g.InConflict(hv(0)) {
		t.Fatal("snapshot lost vertex 0 after live RemoveVertex")
	}
	if g.InConflict(hv(100)) {
		t.Fatal("snapshot sees edge added after it was taken")
	}
	if h.InConflict(hv(0)) {
		t.Fatal("live graph kept vertex 0")
	}

	// Consecutive snapshots without mutations share state; a snapshot
	// after mutations does not.
	s2 := h.Snapshot()
	s3 := h.Snapshot()
	if s2.g.st != s3.g.st {
		t.Fatal("unchanged snapshots do not share state")
	}
	h.AddEdge([]Vertex{hv(200), hv(201)}, "c")
	if s4 := h.Snapshot(); s4.g.st == s2.g.st {
		t.Fatal("snapshot after mutation shares state with older snapshot")
	}
	if s2.NumEdges() != 10 {
		t.Fatalf("second snapshot edges=%d, want 10", s2.NumEdges())
	}
}

func TestHypergraphCloneIsCOW(t *testing.T) {
	h := NewHypergraph()
	h.AddEdge([]Vertex{hv(0), hv(1)}, "c")
	c := h.Clone()
	// Both sides can mutate independently.
	h.AddEdge([]Vertex{hv(2), hv(3)}, "c")
	c.RemoveVertex(hv(0))
	if h.NumEdges() != 2 {
		t.Fatalf("orig edges=%d, want 2", h.NumEdges())
	}
	if c.NumEdges() != 0 {
		t.Fatalf("clone edges=%d, want 0", c.NumEdges())
	}
}

// Tuple indexes over successive snapshots and over the live tables share
// one row index per table, yet each resolves its own cut: duplicates come
// back as ascending RowIDs and a row deleted later stays visible to the
// older snapshot only.
func TestTupleIndexLookupRowAcrossVersions(t *testing.T) {
	db := newDB(t)
	_, live, _ := detect(t, db, fdSalary())
	ann := value.Tuple{value.Int(1), value.Text("ann"), value.Int(100)}
	bob := value.Tuple{value.Int(2), value.Text("bob"), value.Int(150)}
	old := NewSnapshotTupleIndex(db.Snapshot().Tables())
	if ids, _ := old.Lookup("emp", ann); !slices.Equal(ids, []storage.RowID{0}) {
		t.Fatalf("old ann = %v", ids)
	}
	mustExec(db, "INSERT INTO emp VALUES (1, 'ann', 100), (1, 'ann', 100)")
	mustExec(db, "DELETE FROM emp WHERE id = 2")
	cur := NewSnapshotTupleIndex(db.Snapshot().Tables())
	annF := value.Tuple{value.Float(1), value.Text("ann"), value.Float(100)}
	for _, c := range []struct {
		label string
		ti    *TupleIndex
		probe value.Tuple
		want  []storage.RowID
	}{
		{"old ann", old, ann, []storage.RowID{0}},
		{"old bob", old, bob, []storage.RowID{2}},
		{"current ann", cur, ann, []storage.RowID{0, 6, 7}},
		{"current ann as floats", cur, annF, []storage.RowID{0, 6, 7}},
		{"current bob", cur, bob, nil},
		{"live ann", live, ann, []storage.RowID{0, 6, 7}},
		{"live bob", live, bob, nil},
	} {
		ids, err := c.ti.Lookup("EMP", c.probe)
		if err != nil || !slices.Equal(ids, c.want) {
			t.Fatalf("%s: Lookup = %v, %v; want %v", c.label, ids, err, c.want)
		}
	}
}
