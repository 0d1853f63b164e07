package storage

import (
	"fmt"

	"hippo/internal/schema"
	"hippo/internal/value"
)

// WAL-recovery entry points. RowIDs are the conflict hypergraph's vertex
// identity, so recovery must reproduce them bit-for-bit: a checkpoint
// restores the exact slot layout (including tombstones), and replaying a
// logged batch re-applies each change at its original RowID. Recovery
// runs before any listener is attached, and the post-replay full conflict
// detection rebuilds every derived structure from the restored tables.

// ReplayInsert re-applies a logged insert at its original RowID. The id
// must be at or past the table's allocation cursor; intervening slots —
// rows that were inserted and deleted within the same logged batch and
// coalesced out of the record — are recreated as tombstones so later
// RowIDs keep their positions. The tuple is stored as logged (it was
// coerced before the original insert); only arity is validated.
func (t *Table) ReplayInsert(id RowID, row value.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < t.nrows {
		return fmt.Errorf("storage: table %s: replay insert at row %d behind cursor %d",
			t.name, id, t.nrows)
	}
	if len(row) != t.schema.Len() {
		return fmt.Errorf("storage: table %s: replay insert arity %d, want %d",
			t.name, len(row), t.schema.Len())
	}
	for t.nrows < int(id) {
		t.appendSlotLocked(nil, true)
	}
	t.appendSlotLocked(row, false)
	t.version++
	for _, idx := range t.indexes {
		idx.add(row, id)
	}
	t.indexRowLocked(row, id)
	return nil
}

// ReplayDelete re-applies a logged delete at its original RowID.
func (t *Table) ReplayDelete(id RowID) error {
	_, err := t.Delete(id)
	return err
}

// appendSlotLocked appends one slot (live row or tombstone) at the
// allocation cursor. The caller holds t.mu and bumps version itself.
func (t *Table) appendSlotLocked(row value.Tuple, dead bool) {
	si := t.nrows >> slabShift
	if si == len(t.slabs) {
		t.slabs = append(t.slabs, newSlab())
	}
	s := t.writableSlab(si)
	s.rows = append(s.rows, row)
	s.dead = append(s.dead, dead)
	t.nrows++
	if !dead {
		t.live++
	}
}

// RestoreTable reconstructs a table from a checkpointed slot layout: one
// entry per allocated RowID, with dead marking tombstones (whose row entry
// is ignored). Live rows are stored as given — checkpoints hold
// already-coerced values.
func RestoreTable(name string, s schema.Schema, rows []value.Tuple, dead []bool) (*Table, error) {
	if len(rows) != len(dead) {
		return nil, fmt.Errorf("storage: restore %s: %d rows vs %d liveness slots",
			name, len(rows), len(dead))
	}
	t := NewTable(name, s)
	for i, row := range rows {
		if dead[i] {
			t.appendSlotLocked(nil, true)
			continue
		}
		if len(row) != t.schema.Len() {
			return nil, fmt.Errorf("storage: restore %s: row %d arity %d, want %d",
				name, i, len(row), t.schema.Len())
		}
		t.appendSlotLocked(row, false)
	}
	t.version++
	return t, nil
}
