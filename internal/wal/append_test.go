package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// committerFeed encodes (committer, seq) into one batch record so
// recovery can reconstruct exactly which appends a crash preserved.
func committerFeed(committer, seq int) []storage.TableChange {
	return []storage.TableChange{{
		Table: fmt.Sprintf("c%d", committer),
		Change: storage.Change{Kind: storage.ChangeInsert, Row: storage.RowID(seq),
			Tuple: value.Tuple{value.Int(int64(seq))}},
	}}
}

// TestAppendSyncsBeforeReturn pins the commit contract of every append
// kind: the call costs exactly one fsync (zero under NoSync) and, once it
// returns, the record is in the segment — a copy of the directory taken
// right then (the live store still holds the lock) recovers it in order.
// Appends after Close fail with errStoreClosed.
func TestAppendSyncsBeforeReturn(t *testing.T) {
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"name"}}
	appends := []struct {
		name string
		kind RecordKind
		run  func(*Store) error
	}{
		{"AppendDDL", RecordDDL, func(st *Store) error { return st.AppendDDL("CREATE TABLE emp (id INT, name TEXT)") }},
		{"AppendBatch", RecordBatch, func(st *Store) error { return st.AppendBatch(committerFeed(0, 7)) }},
		{"AppendConstraint", RecordConstraint, func(st *Store) error { return st.AppendConstraint(fd) }},
	}
	for _, noSync := range []bool{false, true} {
		wantSyncs := 1
		if noSync {
			wantSyncs = 0
		}
		dir := t.TempDir()
		syncs := 0
		st, _ := mustOpen(t, dir, Options{NoSync: noSync, WrapSyncer: func(_ string, s Syncer) Syncer {
			return &countingSyncer{under: s, syncs: &syncs}
		}})
		for i, a := range appends {
			before := syncs
			if err := a.run(st); err != nil {
				t.Fatalf("NoSync=%v %s: %v", noSync, a.name, err)
			}
			if n := syncs - before; n != wantSyncs {
				t.Fatalf("NoSync=%v %s cost %d fsyncs, want %d", noSync, a.name, n, wantSyncs)
			}
			rec := reopenCopy(t, dir)
			if len(rec.Records) != i+1 || rec.Records[i].Kind != a.kind {
				t.Fatalf("NoSync=%v %s: reopen found %d records, want %d ending in a %v record",
					noSync, a.name, len(rec.Records), i+1, a.kind)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendDDL("DROP TABLE emp"); !errors.Is(err, errStoreClosed) {
			t.Fatalf("append after Close: got %v, want %v", err, errStoreClosed)
		}
	}
}

// reopenCopy copies every file of dir except its LOCK into a fresh
// directory and opens that copy, so a test can check what recovery would
// find while the store on dir is still open.
func reopenCopy(t *testing.T, dir string) *Recovered {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec, err := Open(cp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	return rec
}

// TestRecoveryConcurrentAppendCrashWindow sweeps crash budgets across a
// concurrently-committed log and asserts the durability contract at each
// cut: after reopening, the recovered records are EXACTLY the acked-OK
// appends — nothing reported durable is lost, and nothing reported failed
// resurrects — and each committer's records survive in its own commit
// order.
func TestRecoveryConcurrentAppendCrashWindow(t *testing.T) {
	const committers = 4
	const perCommitter = 12

	// Probe: learn the total write volume of the workload.
	probe := NewCrashInjector(1 << 40)
	{
		st, _ := mustOpen(t, t.TempDir(), Options{WrapSyncer: probe.Wrap})
		runConcurrentCrashWorkload(st, committers, perCommitter)
		st.Close()
	}
	total := probe.Written()
	if total < 256 {
		t.Fatalf("suspiciously small write volume %d", total)
	}

	step := total / 23 // ~23 cut points incl. mid-record positions
	if step < 1 {
		step = 1
	}
	for budget := int64(0); budget <= total; budget += step {
		ci := NewCrashInjector(budget)
		dir := t.TempDir()
		acked := map[int][]int{}
		st, _, err := Open(dir, Options{WrapSyncer: ci.Wrap})
		if err == nil {
			acked = runConcurrentCrashWorkload(st, committers, perCommitter)
			st.Close()
		} else if !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("budget %d: open failed with %v", budget, err)
		}

		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		recovered := make(map[int][]int) // committer -> recovered seqs in log order
		for _, r := range rec.Records {
			var c, row int
			if _, err := fmt.Sscanf(r.Batch[0].Table, "c%d", &c); err != nil {
				t.Fatalf("budget %d: unexpected table %q", budget, r.Batch[0].Table)
			}
			row = int(r.Batch[0].Change.Row)
			recovered[c] = append(recovered[c], row)
		}
		for c := 0; c < committers; c++ {
			want := acked[c]
			got := recovered[c]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("budget %d: committer %d recovered %v, acked-durable %v", budget, c, got, want)
			}
		}
	}
}

// runConcurrentCrashWorkload runs concurrent committers against the store,
// each stopping at its first error, and returns the seqs acked durable
// per committer (each is a prefix by construction, since a committer
// appends sequentially).
func runConcurrentCrashWorkload(st *Store, committers, perCommitter int) map[int][]int {
	acked := make(map[int][]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; seq < perCommitter; seq++ {
				// Any error (the injected crash or the sticky failure it
				// leaves behind) stops this committer; only acked-nil
				// appends count as durable.
				if err := st.AppendBatch(committerFeed(c, seq)); err != nil {
					return
				}
				mu.Lock()
				acked[c] = append(acked[c], seq)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return acked
}
