package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"hippo/internal/schema"
	"hippo/internal/value"
)

func empTable(t *testing.T) *Table {
	t.Helper()
	s := schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindText},
		schema.Column{Name: "salary", Type: value.KindFloat},
	)
	return NewTable("emp", s)
}

func TestInsertAndRow(t *testing.T) {
	tb := empTable(t)
	id, _, err := tb.Insert(value.Tuple{value.Int(1), value.Text("ann"), value.Int(100)})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("first RowID = %d", id)
	}
	row, ok := tb.Row(id)
	if !ok {
		t.Fatal("row not found")
	}
	// Int(100) coerced to FLOAT column.
	if row[2].K != value.KindFloat || row[2].F != 100 {
		t.Errorf("salary not coerced: %v", row[2])
	}
	if tb.Len() != 1 || tb.Cap() != 1 {
		t.Errorf("Len/Cap = %d/%d", tb.Len(), tb.Cap())
	}
	if tb.Name() != "emp" {
		t.Errorf("Name = %q", tb.Name())
	}
	if tb.Schema().Columns[0].Qualifier != "emp" {
		t.Error("schema not qualified by table name")
	}
}

func TestInsertErrors(t *testing.T) {
	tb := empTable(t)
	if _, _, err := tb.Insert(value.Tuple{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, _, err := tb.Insert(value.Tuple{value.Text("x"), value.Text("y"), value.Float(1)}); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestDeleteTombstones(t *testing.T) {
	tb := empTable(t)
	id0, _, _ := tb.Insert(value.Tuple{value.Int(1), value.Text("a"), value.Float(1)})
	id1, _, _ := tb.Insert(value.Tuple{value.Int(2), value.Text("b"), value.Float(2)})
	if _, err := tb.Delete(id0); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Row(id0); ok {
		t.Error("deleted row still visible")
	}
	if row, ok := tb.Row(id1); !ok || row[0] != value.Int(2) {
		t.Error("surviving row renumbered or lost")
	}
	if tb.Len() != 1 || tb.Cap() != 2 {
		t.Errorf("Len/Cap = %d/%d after delete", tb.Len(), tb.Cap())
	}
	if _, err := tb.Delete(id0); err == nil {
		t.Error("double delete should fail")
	}
	if _, err := tb.Delete(99); err == nil {
		t.Error("out-of-range delete should fail")
	}
}

func TestScan(t *testing.T) {
	tb := empTable(t)
	for i := 0; i < 5; i++ {
		tb.Insert(value.Tuple{value.Int(int64(i)), value.Text("x"), value.Float(0)})
	}
	tb.Delete(2)
	var seen []RowID
	err := tb.Scan(func(id RowID, row value.Tuple) error {
		seen = append(seen, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []RowID{0, 1, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("scan order %v, want %v", seen, want)
		}
	}
	sentinel := errors.New("stop")
	err = tb.Scan(func(id RowID, row value.Tuple) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Error("scan should propagate fn error")
	}
	if rows := tb.Rows(); len(rows) != 4 {
		t.Errorf("Rows() = %d rows", len(rows))
	}
}

func TestIndexLookup(t *testing.T) {
	tb := empTable(t)
	tb.Insert(value.Tuple{value.Int(1), value.Text("ann"), value.Float(10)})
	tb.Insert(value.Tuple{value.Int(1), value.Text("bob"), value.Float(20)})
	tb.Insert(value.Tuple{value.Int(2), value.Text("cat"), value.Float(30)})

	idx, err := tb.EnsureIndex([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	ids := idx.Lookup(value.Tuple{value.Int(1)})
	if len(ids) != 2 {
		t.Errorf("Lookup(1) = %v", ids)
	}
	if got := idx.Lookup(value.Tuple{value.Int(99)}); len(got) != 0 {
		t.Errorf("Lookup(99) = %v", got)
	}
	if idx.Distinct() != 2 {
		t.Errorf("Distinct = %d", idx.Distinct())
	}

	// Index maintained on insert and delete.
	id3, _, _ := tb.Insert(value.Tuple{value.Int(1), value.Text("dee"), value.Float(40)})
	if len(idx.Lookup(value.Tuple{value.Int(1)})) != 3 {
		t.Error("index not maintained on insert")
	}
	tb.Delete(id3)
	if len(idx.Lookup(value.Tuple{value.Int(1)})) != 2 {
		t.Error("index not maintained on delete")
	}

	// Full-row index via empty column list.
	full, err := tb.EnsureIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tb.Row(0)
	if got := full.LookupRow(row); len(got) != 1 || got[0] != 0 {
		t.Errorf("full-row lookup = %v", got)
	}

	// EnsureIndex is idempotent.
	idx2, _ := tb.EnsureIndex([]int{0})
	if idx2 != idx {
		t.Error("EnsureIndex should return the existing index")
	}
	if _, err := tb.EnsureIndex([]int{9}); err == nil {
		t.Error("out-of-range index column should fail")
	}
}

func TestIndexGroups(t *testing.T) {
	tb := empTable(t)
	for i := 0; i < 6; i++ {
		tb.Insert(value.Tuple{value.Int(int64(i % 2)), value.Text("x"), value.Float(0)})
	}
	idx, _ := tb.EnsureIndex([]int{0})
	total := 0
	err := idx.Groups(func(ids []RowID) error {
		total += len(ids)
		if len(ids) != 3 {
			t.Errorf("group size %d, want 3", len(ids))
		}
		return nil
	})
	if err != nil || total != 6 {
		t.Errorf("Groups total=%d err=%v", total, err)
	}
	sentinel := errors.New("stop")
	if err := idx.Groups(func([]RowID) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Error("Groups should propagate error")
	}
}

// Property: after a random sequence of inserts, index lookups agree with a
// linear scan.
func TestIndexAgreesWithScanProperty(t *testing.T) {
	prop := func(keys []int64) bool {
		if len(keys) > 200 {
			keys = keys[:200]
		}
		tb := NewTable("t", schema.New(schema.Column{Name: "k", Type: value.KindInt}))
		for _, k := range keys {
			if _, _, err := tb.Insert(value.Tuple{value.Int(k % 10)}); err != nil {
				return false
			}
		}
		idx, err := tb.EnsureIndex([]int{0})
		if err != nil {
			return false
		}
		for probe := int64(0); probe < 10; probe++ {
			want := 0
			tb.Scan(func(id RowID, row value.Tuple) error {
				if row[0].I == probe || row[0].I == probe-10 {
					want++
				}
				return nil
			})
			got := len(idx.Lookup(value.Tuple{value.Int(probe)})) +
				len(idx.Lookup(value.Tuple{value.Int(probe - 10)}))
			if probe == 0 {
				got = len(idx.Lookup(value.Tuple{value.Int(0)}))
				want = 0
				tb.Scan(func(id RowID, row value.Tuple) error {
					if row[0].I == 0 {
						want++
					}
					return nil
				})
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
