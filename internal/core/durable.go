package core

import (
	"fmt"
	"time"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/schema"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
	"hippo/internal/wal"
)

// Durable mode: the system's writes flow through a write-ahead log and
// periodic checkpoints under a directory, and OpenDurable reconstructs the
// exact pre-crash state — tables with their RowID layout (the hypergraph's
// vertex identity), declared indexes, and constraints — before the first
// query view is published.
//
// Recovery protocol, in order:
//
//  1. the newest intact checkpoint restores the slot-exact tables,
//     index definitions, and constraint set;
//  2. the WAL tail (segments at or after the checkpoint sequence) replays
//     committed batches at their original RowIDs and re-executes DDL;
//     a torn trailing record — a crash mid-append — is truncated away,
//     while genuine corruption aborts with wal.ErrCorrupt;
//  3. one full conflict detection rebuilds the hypergraph, components,
//     and tuple indexes from the restored tables (derived state is never
//     logged — it is recomputed, so it cannot diverge from the data);
//  4. the commit log is attached and the first view is published.
//
// Because batches are logged coalesced and fsynced while the engine still
// holds the write sequencer, a crash at any byte of the log recovers to a
// committed-batch boundary: no batch prefix ever survives.

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Dir is the durability directory (created if absent).
	Dir string
	// NoSync skips per-commit fsync: commits survive process crashes but
	// not OS crashes.
	NoSync bool
	// CheckpointBytes is the live-segment size past which MaybeCheckpoint
	// rotates the log and writes a checkpoint. 0 selects
	// DefaultCheckpointBytes; negative disables automatic checkpoints.
	CheckpointBytes int64
	// WrapSyncer injects a fault wrapper around every durable file write
	// (crash testing); see wal.Options.WrapSyncer.
	WrapSyncer func(name string, s wal.Syncer) wal.Syncer
}

// DefaultCheckpointBytes is the automatic checkpoint threshold when
// DurableOptions.CheckpointBytes is zero.
const DefaultCheckpointBytes int64 = 8 << 20

// OpenDurable opens (or creates) a durable system rooted at o.Dir,
// recovering any existing state. The returned system behaves exactly like
// an in-memory one, except that every committed write is on disk before it
// becomes visible and Checkpoint/MaybeCheckpoint manage the log's length.
func OpenDurable(o DurableOptions) (*System, error) {
	st, rec, err := wal.Open(o.Dir, wal.Options{NoSync: o.NoSync, WrapSyncer: o.WrapSyncer})
	if err != nil {
		return nil, err
	}
	db := engine.New()
	var cs []constraint.Constraint
	if rec.Checkpoint != nil {
		cs = append(cs, rec.Checkpoint.Constraints...)
		for _, ts := range rec.Checkpoint.Tables {
			t, err := restoreTable(ts)
			if err != nil {
				st.Close()
				return nil, err
			}
			if err := db.AdoptTable(t); err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	if err := replayRecords(db, &cs, rec.Records); err != nil {
		st.Close()
		return nil, err
	}
	sys := NewSystem(db, cs)
	sys.store = st
	sys.ckptBytes = o.CheckpointBytes
	if sys.ckptBytes == 0 {
		sys.ckptBytes = DefaultCheckpointBytes
	}
	sys.ckptCh = make(chan struct{}, 1)
	sys.ckptStop = make(chan struct{})
	sys.ckptDone = make(chan struct{})
	go sys.checkpointLoop()
	db.SetCommitLog(st)
	// Rebuild all derived state and publish the first view only after the
	// data is fully restored, so no query can observe a partial recovery.
	// A failure here is a constraint-semantics error — e.g. a logged
	// constraint whose table a later logged DROP removed — never an I/O
	// problem. Tolerate it exactly like the in-memory engine does: the
	// data is fully recovered, plain SQL and DML serve normally, and the
	// error resurfaces from every consistent query until the schema or
	// constraint set is repaired. Failing Open here would brick the
	// directory over a semantic condition the user can fix online.
	// (A failed Analyze leaves the system marked for full re-detection,
	// so nothing else needs resetting here.)
	_, _ = sys.Analyze()
	return sys, nil
}

// restoreTable rebuilds one table from its checkpointed state.
func restoreTable(ts wal.TableState) (*storage.Table, error) {
	cols := make([]schema.Column, len(ts.Columns))
	for i, c := range ts.Columns {
		cols[i] = schema.Column{Name: c.Name, Type: c.Type}
	}
	t, err := storage.RestoreTable(ts.Name, schema.New(cols...), ts.Rows, ts.Dead)
	if err != nil {
		return nil, err
	}
	for _, ixCols := range ts.Indexes {
		if _, err := t.EnsureIndex(ixCols); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// replayRecords replays the committed WAL tail sequentially, in commit
// order: DDL and constraint records change the catalog the records after
// them resolve against, and each table's changes re-land in the order
// that fixed their RowIDs (the hypergraph's vertex identity).
func replayRecords(db *engine.DB, cs *[]constraint.Constraint, recs []wal.Record) error {
	for i, r := range recs {
		if err := applyRecord(db, cs, r); err != nil {
			return fmt.Errorf("core: replaying WAL record %d (%s): %w", i, r.Kind, err)
		}
	}
	return nil
}

// applyRecord replays one WAL record into the recovering database. No
// listener or commit log is attached yet, so nothing is re-logged and no
// derived state is touched; data changes re-land at their original RowIDs.
func applyRecord(db *engine.DB, cs *[]constraint.Constraint, r wal.Record) error {
	switch r.Kind {
	case wal.RecordDDL:
		st, err := sqlparse.Parse(r.Stmt)
		if err != nil {
			return err
		}
		_, _, err = db.ExecStmt(st)
		return err
	case wal.RecordBatch:
		for _, tc := range r.Batch {
			t, err := db.Table(tc.Table)
			if err != nil {
				return err
			}
			if tc.Change.Kind == storage.ChangeInsert {
				err = t.ReplayInsert(tc.Change.Row, tc.Change.Tuple)
			} else {
				err = t.ReplayDelete(tc.Change.Row)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case wal.RecordConstraint:
		*cs = append(*cs, r.Constraint)
		return nil
	default:
		return fmt.Errorf("core: unknown WAL record kind %d", r.Kind)
	}
}

// Durable reports whether the system persists through a WAL store.
func (s *System) Durable() bool { return s.store != nil }

// WALBytes reports the live WAL segment's size (0 for in-memory systems);
// benchmarks and tooling use it to reason about checkpoint pressure.
func (s *System) WALBytes() int64 {
	if s.store == nil {
		return 0
	}
	return s.store.SegmentBytes()
}

// Checkpoint serializes the full database state — tables at their exact
// slot layout, index definitions, constraints — rotates the WAL, and
// durably installs the checkpoint, bounding recovery time by the length of
// the post-rotation log. The cut is taken under the engine write freeze
// via the same Snapshot machinery query views use, so writers stall only
// for the O(slabs) snapshot, not for the serialization.
func (s *System) Checkpoint() error { return s.checkpoint(0) }

// checkpoint runs the checkpoint protocol; a positive min re-checks the
// live-segment size under the checkpoint lock and skips the work if a
// concurrent committer's checkpoint already rotated the log below it.
func (s *System) checkpoint(min int64) error {
	if s.store == nil {
		return fmt.Errorf("core: system is not durable (opened without a directory)")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if min > 0 && s.store.SegmentBytes() < min {
		return nil
	}
	// Pay the next segment's creation and fsyncs before stalling anyone:
	// Rotate inside the freeze is then just a pointer swap.
	if err := s.store.PrepareRotation(); err != nil {
		return err
	}
	s.mu.Lock()
	release := s.db.FreezeWrites()
	snap := s.db.SnapshotFrozen()
	cs := make([]constraint.Constraint, len(s.constraints))
	copy(cs, s.constraints)
	idxDefs := liveIndexDefsFrozen(s.db, snap.TableNames())
	seq, err := s.store.Rotate()
	release()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	ck := &wal.Checkpoint{Seq: seq, Constraints: cs}
	for _, name := range snap.TableNames() {
		ts, err := tableState(snap, name, idxDefs[name])
		if err != nil {
			return err
		}
		ck.Tables = append(ck.Tables, ts)
	}
	return s.store.WriteCheckpoint(ck)
}

// MaybeCheckpoint runs Checkpoint when the live WAL segment has outgrown
// the configured threshold; it is a no-op for in-memory systems and when
// automatic checkpoints are disabled. The background checkpointer calls
// it after every committed write; it remains exported for callers that
// want to force the threshold check synchronously.
func (s *System) MaybeCheckpoint() error {
	if s.store == nil || s.ckptBytes <= 0 || s.store.SegmentBytes() < s.ckptBytes {
		return nil
	}
	return s.checkpoint(s.ckptBytes)
}

// checkpointPollInterval is the automatic checkpointer's fallback poll
// cadence, backstopping any nudge lost to the channel's single-slot
// buffer (the send is non-blocking by design — writers never wait).
const checkpointPollInterval = time.Second

// checkpointLoop is the automatic checkpointer: it runs MaybeCheckpoint
// whenever a committed write nudges it (and on a slow poll as a
// backstop), entirely off the write path — commit latency never includes
// a checkpoint. A failure parks in ckptFail for the next
// TakeCheckpointError; on shutdown it takes one final threshold check so
// a burst of writes right before Close still bounds the log.
func (s *System) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(checkpointPollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			s.noteCheckpointErr(s.MaybeCheckpoint())
			return
		case <-s.ckptCh:
		case <-t.C:
		}
		s.noteCheckpointErr(s.MaybeCheckpoint())
	}
}

// nudgeCheckpointer wakes the automatic checkpointer without blocking:
// callers hold the engine write sequencer, so a full channel just means a
// wake-up is already pending.
func (s *System) nudgeCheckpointer() {
	if s.ckptCh == nil {
		return
	}
	select {
	case s.ckptCh <- struct{}{}:
	default:
	}
}

// noteCheckpointErr parks a failed automatic checkpoint until collected.
func (s *System) noteCheckpointErr(err error) {
	if err != nil {
		s.ckptFail.Store(&errBox{err: err})
	}
}

// TakeCheckpointError returns and clears the most recent automatic-
// checkpoint failure (nil if none since the last call). The write that
// triggered the failed checkpoint committed; only log compaction failed.
// The hippo wrapper surfaces this from Exec/ExecBatch, and Close drains
// it so an uncollected failure is never silently dropped.
func (s *System) TakeCheckpointError() error {
	if b := s.ckptFail.Swap(nil); b != nil {
		return b.err
	}
	return nil
}

// MaintenanceHealth reports — without consuming — a failed automatic
// checkpoint parked for TakeCheckpointError (nil when healthy, and always
// for in-memory systems). It is the serving tier's degradation probe
// (/health, /v1/stats): a read-mostly deployment learns that checkpointing
// is broken even if no write ever comes by to drain the error.
func (s *System) MaintenanceHealth() error {
	if b := s.ckptFail.Load(); b != nil {
		return b.err
	}
	return nil
}

// liveIndexDefsFrozen captures each table's declared index column sets.
// The caller holds the engine write freeze; table snapshots own no
// indexes (their full-row lookups probe the live table's row index, which
// is not declared and never checkpointed), so these are read from the
// live tables at the same cut.
func liveIndexDefsFrozen(db *engine.DB, names []string) map[string][][]int {
	defs := make(map[string][][]int, len(names))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			continue // racing DROP cannot happen under the freeze; be safe
		}
		for _, ix := range t.Indexes() {
			defs[name] = append(defs[name], ix.Columns())
		}
	}
	return defs
}

// tableState serializes one table snapshot into checkpoint form.
func tableState(snap *engine.Snapshot, name string, idxDefs [][]int) (wal.TableState, error) {
	t, err := snap.Table(name)
	if err != nil {
		return wal.TableState{}, err
	}
	sch := t.Schema()
	ts := wal.TableState{Name: name, Indexes: idxDefs}
	ts.Columns = make([]wal.ColumnState, sch.Len())
	for i, c := range sch.Columns {
		ts.Columns[i] = wal.ColumnState{Name: c.Name, Type: c.Type}
	}
	n := t.Cap()
	ts.Rows = make([]value.Tuple, n)
	ts.Dead = make([]bool, n)
	for id := 0; id < n; id++ {
		row, ok := t.Row(storage.RowID(id))
		if !ok {
			ts.Dead[id] = true
			continue
		}
		ts.Rows[id] = row
	}
	return ts, nil
}
