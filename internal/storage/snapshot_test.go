package storage

import (
	"fmt"
	"testing"

	"hippo/internal/schema"
	"hippo/internal/value"
)

func snapTable(t *testing.T, n int) *Table {
	t.Helper()
	tb := NewTable("t", schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "v", Type: value.KindText},
	))
	for i := 0; i < n; i++ {
		if _, _, err := tb.Insert(value.Tuple{value.Int(int64(i)), value.Text(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tb
}

// A snapshot must be frozen: later inserts, deletes, and slab growth in
// the live table are invisible to it.
func TestSnapshotIsolation(t *testing.T) {
	const n = SlabSize + 37 // cross a slab boundary
	tb := snapTable(t, n)
	snap := tb.Snapshot()
	if snap.Len() != n || snap.Cap() != n {
		t.Fatalf("snapshot len=%d cap=%d, want %d", snap.Len(), snap.Cap(), n)
	}

	// Mutate the live table: delete an early row (first slab), delete a
	// late row (tail slab), append new rows past the snapshot.
	if _, err := tb.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Delete(RowID(n - 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < SlabSize; i++ {
		if _, _, err := tb.Insert(value.Tuple{value.Int(int64(n + i)), value.Text("new")}); err != nil {
			t.Fatal(err)
		}
	}

	// The snapshot still sees the original state.
	if snap.Len() != n {
		t.Fatalf("snapshot len changed to %d", snap.Len())
	}
	if _, ok := snap.Row(3); !ok {
		t.Fatal("snapshot lost row 3 after live delete")
	}
	if _, ok := snap.Row(RowID(n - 1)); !ok {
		t.Fatal("snapshot lost tail row after live delete")
	}
	if _, ok := snap.Row(RowID(n)); ok {
		t.Fatal("snapshot sees a row inserted after it was taken")
	}
	rows := snap.Rows()
	if len(rows) != n {
		t.Fatalf("snapshot Rows()=%d, want %d", len(rows), n)
	}
	// The live table sees the new state.
	if tb.Len() != n-2+SlabSize {
		t.Fatalf("live len=%d", tb.Len())
	}
	if _, ok := tb.Row(3); ok {
		t.Fatal("live table still has deleted row 3")
	}
}

// Snapshots of an unchanged table are shared, and copy-on-write touches
// only the dirty slabs.
func TestSnapshotSharing(t *testing.T) {
	const n = 3*SlabSize + 10
	tb := snapTable(t, n)
	s1 := tb.Snapshot()
	if s2 := tb.Snapshot(); s2 != s1 {
		t.Fatal("snapshot of unchanged table not shared")
	}
	// One delete in slab 1: only that slab should be copied.
	if _, err := tb.Delete(RowID(SlabSize + 5)); err != nil {
		t.Fatal(err)
	}
	s3 := tb.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not refreshed after mutation")
	}
	if got := s1.SharedSlabs(s3); got != s1.NumSlabs()-1 {
		t.Fatalf("shared slabs=%d, want %d (only the dirty slab copied)", got, s1.NumSlabs()-1)
	}
	if _, ok := s1.Row(RowID(SlabSize + 5)); !ok {
		t.Fatal("old snapshot lost the deleted row")
	}
	if _, ok := s3.Row(RowID(SlabSize + 5)); ok {
		t.Fatal("new snapshot still has the deleted row")
	}
}

// The snapshot's full-row lookups must resolve exactly the snapshot's
// rows, although the index behind them is shared with the live table.
func TestSnapshotFullRowIndex(t *testing.T) {
	tb := snapTable(t, 20)
	if _, err := tb.Delete(7); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	// Mutate after snapshotting; lookups must reflect the snapshot.
	if _, _, err := tb.Insert(value.Tuple{value.Int(99), value.Text("r99")}); err != nil {
		t.Fatal(err)
	}
	ids := snap.LookupRow(value.Tuple{value.Int(5), value.Text("r5")})
	if len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("lookup r5 = %v, want [5]", ids)
	}
	if ids := snap.LookupRow(value.Tuple{value.Int(7), value.Text("r7")}); len(ids) != 0 {
		t.Fatalf("deleted row resolvable in snapshot: %v", ids)
	}
	if ids := snap.LookupRow(value.Tuple{value.Int(99), value.Text("r99")}); len(ids) != 0 {
		t.Fatalf("post-snapshot row resolvable in snapshot: %v", ids)
	}
}

// Concurrent snapshot readers during live writes must be race-free (run
// under -race) and always observe their frozen state.
func TestSnapshotConcurrentReaders(t *testing.T) {
	tb := snapTable(t, SlabSize)
	snap := tb.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*SlabSize; i++ {
			tb.Insert(value.Tuple{value.Int(int64(1000 + i)), value.Text("w")})
			if i%3 == 0 {
				tb.Delete(RowID(i % SlabSize))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if snap.Len() != SlabSize {
			t.Errorf("snapshot len drifted: %d", snap.Len())
			break
		}
		if rows := snap.Rows(); len(rows) != SlabSize {
			t.Errorf("snapshot rows drifted: %d", len(rows))
			break
		}
	}
	<-done
}
