package storage

import (
	"fmt"
	"testing"

	"hippo/internal/schema"
	"hippo/internal/value"
)

func ins(table string, id RowID, vals ...value.Value) TableChange {
	return TableChange{Table: table, Change: Change{Kind: ChangeInsert, Row: id, Tuple: value.Tuple(vals)}}
}

func del(table string, id RowID, vals ...value.Value) TableChange {
	return TableChange{Table: table, Change: Change{Kind: ChangeDelete, Row: id, Tuple: value.Tuple(vals)}}
}

func feedString(feed []TableChange) string {
	s := ""
	for _, tc := range feed {
		s += fmt.Sprintf("%s:%s:%d ", tc.Table, tc.Change.Kind, tc.Change.Row)
	}
	return s
}

func TestCoalesceChanges(t *testing.T) {
	one := value.Int(1)
	cases := []struct {
		name string
		in   []TableChange
		want []TableChange
	}{
		{name: "empty", in: nil, want: nil},
		{
			name: "passthrough",
			in:   []TableChange{ins("t", 0, one), del("t", 7, one), ins("t", 1, one)},
			want: []TableChange{ins("t", 0, one), del("t", 7, one), ins("t", 1, one)},
		},
		{
			name: "insert-then-delete cancels",
			in:   []TableChange{ins("t", 5, one), del("t", 5, one)},
			want: nil,
		},
		{
			name: "cancel keeps surrounding order",
			in:   []TableChange{ins("t", 1, one), ins("t", 2, one), del("t", 2, one), del("t", 0, one)},
			want: []TableChange{ins("t", 1, one), del("t", 0, one)},
		},
		{
			// An "update" written as delete(old)+insert(new) on the same key:
			// distinct RowIDs, so both survive — last writer wins naturally.
			name: "same-key re-insert passes through",
			in:   []TableChange{del("t", 3, one), ins("t", 9, one)},
			want: []TableChange{del("t", 3, one), ins("t", 9, one)},
		},
		{
			// Repeated update chain: insert(9) superseded within the batch,
			// only the pre-batch delete and the final insert remain.
			name: "update chain dedupes to last writer",
			in: []TableChange{
				del("t", 3, one), ins("t", 9, one), del("t", 9, one), ins("t", 10, one),
			},
			want: []TableChange{del("t", 3, one), ins("t", 10, one)},
		},
		{
			name: "delete of pre-batch row never cancels",
			in:   []TableChange{del("t", 4, one), ins("t", 8, one), del("t", 8, one)},
			want: []TableChange{del("t", 4, one)},
		},
		{
			// Same RowID on different tables must not collide.
			name: "tables are independent",
			in:   []TableChange{ins("a", 5, one), del("b", 5, one)},
			want: []TableChange{ins("a", 5, one), del("b", 5, one)},
		},
		{
			// RowIDs straddling a slab boundary coalesce like any others.
			name: "slab-boundary rows",
			in: []TableChange{
				ins("t", SlabSize-1, one), ins("t", SlabSize, one), ins("t", SlabSize+1, one),
				del("t", SlabSize, one), del("t", SlabSize-1, one),
			},
			want: []TableChange{ins("t", SlabSize+1, one)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CoalesceChanges(tc.in)
			if feedString(got) != feedString(tc.want) {
				t.Fatalf("coalesce mismatch:\n got: %s\nwant: %s", feedString(got), feedString(tc.want))
			}
		})
	}
}

// TestCaptureAndResurrect drives the rollback primitives across a slab
// boundary while a snapshot pins the pre-batch state: the returned changes
// describe the writes, resurrected rows come back with index entries
// intact, and the pinned snapshot stays frozen throughout.
func TestCaptureAndResurrect(t *testing.T) {
	tb := NewTable("t", schema.New(
		schema.Column{Name: "k", Type: value.KindInt},
	))
	// Fill one slab exactly, so the next insert opens a new slab.
	for i := 0; i < SlabSize; i++ {
		if _, _, err := tb.Insert(value.Tuple{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.EnsureIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()

	// Captured writes: delete a row in the sealed slab, insert into a new one.
	chDel, err := tb.Delete(RowID(SlabSize - 1))
	if err != nil {
		t.Fatal(err)
	}
	id, chIns, err := tb.Insert(value.Tuple{value.Int(999)})
	if err != nil {
		t.Fatal(err)
	}
	if id != RowID(SlabSize) {
		t.Fatalf("insert landed at row %d, want %d", id, SlabSize)
	}
	if chDel.Kind != ChangeDelete || chIns.Kind != ChangeInsert {
		t.Fatalf("captured kinds: %v %v", chDel.Kind, chIns.Kind)
	}

	// Roll back in reverse: re-delete the insert, resurrect the delete.
	if _, err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := tb.Resurrect(chDel.Row); err != nil {
		t.Fatal(err)
	}
	if err := tb.Resurrect(chDel.Row); err == nil {
		t.Fatal("resurrecting a live row should fail")
	}
	if tb.Len() != SlabSize {
		t.Fatalf("live rows after rollback: %d, want %d", tb.Len(), SlabSize)
	}
	if _, ok := tb.Row(chDel.Row); !ok {
		t.Fatalf("row %d missing after resurrect", chDel.Row)
	}
	idx, ok := tb.Index([]int{0})
	if !ok {
		t.Fatal("index vanished")
	}
	if got := tb.IndexLookup(idx, value.Tuple{value.Int(int64(SlabSize - 1))}); len(got) != 1 || got[0] != chDel.Row {
		t.Fatalf("index lookup after resurrect: %v", got)
	}
	if got := tb.IndexLookup(idx, value.Tuple{value.Int(999)}); len(got) != 0 {
		t.Fatalf("rolled-back insert still indexed: %v", got)
	}
	// The pinned snapshot never saw any of it.
	if snap.Len() != SlabSize {
		t.Fatalf("snapshot live rows: %d, want %d", snap.Len(), SlabSize)
	}
	if _, ok := snap.Row(RowID(SlabSize)); ok {
		t.Fatal("snapshot sees a row inserted after it was taken")
	}
}
