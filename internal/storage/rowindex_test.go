package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hippo/internal/schema"
	"hippo/internal/value"
)

func row(id int64, v string) value.Tuple { return value.Tuple{value.Int(id), value.Text(v)} }

// scanMatches is the reference answer for LookupRow: a full scan.
func scanMatches(r Relation, want value.Tuple) []RowID {
	var ids []RowID
	r.Scan(func(id RowID, got value.Tuple) error {
		if got.Key() == want.Key() {
			ids = append(ids, id)
		}
		return nil
	})
	return ids
}

func checkLookupRow(t *testing.T, label string, r Relation, probe value.Tuple) {
	t.Helper()
	got, want := r.LookupRow(probe), scanMatches(r, probe)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: LookupRow%s = %v, scan finds %v", label, value.TupleString(probe), got, want)
	}
}

// A snapshot taken before the row index exists must, when it first
// probes, see its own cut even though the index is built from a later
// table state.
func TestLookupRowSnapshotBeforeBuild(t *testing.T) {
	tb := snapTable(t, SlabSize+10)
	old := tb.Snapshot()
	if _, err := tb.Delete(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := tb.Insert(row(int64(i), fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if ids := old.LookupRow(row(3, "r3")); !slices.Equal(ids, []RowID{3}) {
		t.Fatalf("old snapshot lookup r3 = %v, want [3]", ids)
	}
	if ids := old.LookupRow(row(1, "r1")); !slices.Equal(ids, []RowID{1}) {
		t.Fatalf("old snapshot sees a later duplicate: %v", ids)
	}
	// Writes after the build extend the shared index.
	if _, _, err := tb.Insert(row(1, "r1")); err != nil {
		t.Fatal(err)
	}
	cur := tb.Snapshot()
	n := SlabSize + 10
	if ids := cur.LookupRow(row(1, "r1")); !slices.Equal(ids, []RowID{1, RowID(n + 1), RowID(n + 5)}) {
		t.Fatalf("current snapshot lookup r1 = %v", ids)
	}
	if ids := cur.LookupRow(row(3, "r3")); !slices.Equal(ids, []RowID{RowID(n + 3)}) {
		t.Fatalf("current snapshot lookup r3 = %v", ids)
	}
	for _, r := range []Relation{old, cur, tb} {
		for i := int64(0); i < 6; i++ {
			checkLookupRow(t, r.Name(), r, row(i, fmt.Sprintf("r%d", i)))
		}
	}
}

// A rolled-back batch re-tombstones its inserts and resurrects its
// deletes. Snapshots on either side of the rollback, and the live table,
// must agree with a scan whether the index was built before or during the
// batch.
func TestLookupRowBatchRollback(t *testing.T) {
	for _, buildFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("buildFirst=%v", buildFirst), func(t *testing.T) {
			tb := snapTable(t, 10)
			if buildFirst {
				tb.LookupRow(row(0, "r0"))
			}
			before := tb.Snapshot()
			// The batch: delete row 4, insert a duplicate of row 2 and a
			// new row.
			if _, err := tb.Delete(4); err != nil {
				t.Fatal(err)
			}
			dup, _, err := tb.Insert(row(2, "r2"))
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := tb.Insert(row(50, "new"))
			if err != nil {
				t.Fatal(err)
			}
			during := tb.Snapshot()
			// Rollback in reverse order.
			for _, id := range []RowID{fresh, dup} {
				if _, err := tb.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := tb.Resurrect(4); err != nil {
				t.Fatal(err)
			}
			after := tb.Snapshot()

			if ids := during.LookupRow(row(2, "r2")); !slices.Equal(ids, []RowID{2, dup}) {
				t.Fatalf("mid-batch r2 = %v, want [2 %d]", ids, dup)
			}
			if ids := during.LookupRow(row(4, "r4")); len(ids) != 0 {
				t.Fatalf("mid-batch sees deleted r4: %v", ids)
			}
			if ids := after.LookupRow(row(4, "r4")); !slices.Equal(ids, []RowID{4}) {
				t.Fatalf("resurrected r4 = %v, want [4]", ids)
			}
			if ids := after.LookupRow(row(50, "new")); len(ids) != 0 {
				t.Fatalf("rolled-back insert visible: %v", ids)
			}
			probes := []value.Tuple{row(2, "r2"), row(4, "r4"), row(50, "new"), row(9, "r9")}
			for _, r := range []Relation{before, during, after, tb} {
				for _, p := range probes {
					checkLookupRow(t, r.Name(), r, p)
				}
			}
		})
	}
}

// Recovery rebuilds tables through RestoreTable and ReplayInsert, which
// recreate tombstone slots holding no row. Lookups must skip them and find
// replayed rows at their logged RowIDs.
func TestLookupRowReplayAndRestore(t *testing.T) {
	sch := schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "v", Type: value.KindText},
	)
	tb, err := RestoreTable("t", sch,
		[]value.Tuple{row(0, "a"), nil, row(2, "b"), row(0, "a")},
		[]bool{false, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if ids := tb.LookupRow(row(0, "a")); !slices.Equal(ids, []RowID{0, 3}) {
		t.Fatalf("restored duplicates = %v, want [0 3]", ids)
	}
	restored := tb.Snapshot()
	// Slots 4 and 5 were coalesced out of the logged batch; 6 is live.
	if err := tb.ReplayInsert(6, row(0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tb.ReplayDelete(0); err != nil {
		t.Fatal(err)
	}
	if ids := tb.LookupRow(row(0, "a")); !slices.Equal(ids, []RowID{3, 6}) {
		t.Fatalf("after replay = %v, want [3 6]", ids)
	}
	if ids := restored.LookupRow(row(0, "a")); !slices.Equal(ids, []RowID{0, 3}) {
		t.Fatalf("restored snapshot after replay = %v, want [0 3]", ids)
	}
	for _, r := range []Relation{restored, tb.Snapshot(), tb} {
		for _, p := range []value.Tuple{row(0, "a"), row(2, "b"), {value.Null(), value.Null()}} {
			checkLookupRow(t, r.Name(), r, p)
		}
	}
}

// Duplicate rows come back as ascending RowIDs, also when the probe
// differs in representation but not in key (INT vs FLOAT).
func TestLookupRowDuplicates(t *testing.T) {
	tb := snapTable(t, 0)
	for i := 0; i < 3*SlabSize; i++ {
		v := row(int64(i%7), "x")
		if i%5 == 0 {
			v = row(1, "dup")
		}
		if _, _, err := tb.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	probe := value.Tuple{value.Float(1), value.Text("dup")}
	want := scanMatches(tb, probe)
	if len(want) < 100 {
		t.Fatalf("setup: %d duplicates", len(want))
	}
	for _, r := range []Relation{tb, tb.Snapshot()} {
		ids := r.LookupRow(probe)
		if !slices.Equal(ids, want) || !slices.IsSorted(ids) {
			t.Fatalf("duplicates = %v, want %v", ids, want)
		}
	}
	if _, err := tb.Delete(want[1]); err != nil {
		t.Fatal(err)
	}
	checkLookupRow(t, "after delete", tb.Snapshot(), probe)
	if err := tb.Resurrect(want[1]); err != nil {
		t.Fatal(err)
	}
	if ids := tb.Snapshot().LookupRow(probe); !slices.Equal(ids, want) {
		t.Fatalf("after resurrect = %v, want %v", ids, want)
	}
	snap := tb.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { snap.LookupRow(probe) }); allocs != 0 {
		t.Fatalf("unfiltered snapshot lookup allocates %.0f times", allocs)
	}
}

// The live table answers from its current state at every step.
func TestLookupRowLiveVisibility(t *testing.T) {
	tb := snapTable(t, 4)
	if ids := tb.LookupRow(row(2, "r2")); !slices.Equal(ids, []RowID{2}) {
		t.Fatalf("live r2 = %v", ids)
	}
	if _, err := tb.Delete(2); err != nil {
		t.Fatal(err)
	}
	if ids := tb.LookupRow(row(2, "r2")); len(ids) != 0 {
		t.Fatalf("live table sees deleted row: %v", ids)
	}
	id, _, err := tb.Insert(row(2, "r2"))
	if err != nil {
		t.Fatal(err)
	}
	if ids := tb.LookupRow(row(2, "r2")); !slices.Equal(ids, []RowID{id}) {
		t.Fatalf("live r2 after re-insert = %v, want [%d]", ids, id)
	}
	if ids := tb.LookupRow(row(2, "r2")[:1]); len(ids) != 0 {
		t.Fatalf("arity mismatch matched %v", ids)
	}
	if ids := tb.LookupRow(row(2, "r3")); len(ids) != 0 {
		t.Fatalf("absent row matched %v", ids)
	}
}

// One writer and several snapshot readers: every reader's lookups match a
// scan of its own snapshot. Run under -race.
func TestLookupRowConcurrentReaders(t *testing.T) {
	tb := snapTable(t, SlabSize)
	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 2*SlabSize; i++ {
			id, _, err := tb.Insert(row(int64(i%16), fmt.Sprintf("r%d", i%16)))
			if err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if _, err := tb.Delete(id - 7); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := tb.Snapshot()
				probe := row(int64((i+r)%16), fmt.Sprintf("r%d", (i+r)%16))
				got, want := snap.LookupRow(probe), scanMatches(snap, probe)
				if !slices.Equal(got, want) {
					t.Errorf("reader %d: LookupRow = %v, scan %v", r, got, want)
					return
				}
				tb.LookupRow(probe)
			}
		}(r)
	}
	wg.Wait()
}
