package storage

import (
	"sync"
	"sync/atomic"

	"hippo/internal/schema"
	"hippo/internal/value"
)

// TableSnapshot is an immutable point-in-time view of a table: the slab
// set, row count, and liveness bitmap as of Snapshot time. It implements
// Relation, so plans, the tuple index, and the repair enumerator can read
// it exactly like a live table — but without any locking, because nothing
// ever mutates it (writers clone sealed slabs instead).
type TableSnapshot struct {
	table   *Table // source of the shared row index
	name    string
	schema  schema.Schema
	slabs   []*slab
	nrows   int
	live    int
	version uint64

	// stats holds the planner's cardinality estimates, built lazily and
	// shared by every reader of this table version, so the sampling cost
	// is paid at most once per version.
	statsOnce sync.Once
	stats     atomic.Pointer[TableStats]
}

// Name returns the table name.
func (s *TableSnapshot) Name() string { return s.name }

// Schema returns the table schema (qualified by the table name).
func (s *TableSnapshot) Schema() schema.Schema { return s.schema }

// Len returns the number of live rows in the snapshot.
func (s *TableSnapshot) Len() int { return s.live }

// Cap returns the total number of row slots, including tombstones.
func (s *TableSnapshot) Cap() int { return s.nrows }

// Version returns the table version the snapshot was taken at.
func (s *TableSnapshot) Version() uint64 { return s.version }

// NumSlabs returns the number of slabs the snapshot references.
func (s *TableSnapshot) NumSlabs() int { return len(s.slabs) }

// SharedSlabs counts the slabs this snapshot shares (by identity) with a
// newer snapshot of the same table — the ones copy-on-write did NOT have
// to duplicate. The epoch reclaimer uses the complement to account for
// retired slabs.
func (s *TableSnapshot) SharedSlabs(next *TableSnapshot) int {
	if next == nil {
		return 0
	}
	shared := 0
	set := make(map[*slab]bool, len(next.slabs))
	for _, sl := range next.slabs {
		set[sl] = true
	}
	for _, sl := range s.slabs {
		if set[sl] {
			shared++
		}
	}
	return shared
}

// Row returns the row with the given id, or ok=false if the id is out of
// range or tombstoned in this snapshot.
func (s *TableSnapshot) Row(id RowID) (value.Tuple, bool) {
	if int(id) < 0 || int(id) >= s.nrows {
		return nil, false
	}
	sl := s.slabs[int(id)>>slabShift]
	off := int(id) & slabMask
	if sl.dead[off] {
		return nil, false
	}
	return sl.rows[off], true
}

// Scan calls fn for every live row in RowID order. Sealed slabs can never
// grow or change, so the snapshot's slab contents are exactly the rows
// present at Snapshot time.
func (s *TableSnapshot) Scan(fn func(id RowID, row value.Tuple) error) error {
	for si, sl := range s.slabs {
		base := si << slabShift
		for off, row := range sl.rows {
			if sl.dead[off] {
				continue
			}
			if err := fn(RowID(base+off), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows materializes all live rows in RowID order.
func (s *TableSnapshot) Rows() []value.Tuple {
	out := make([]value.Tuple, 0, s.live)
	s.Scan(func(_ RowID, row value.Tuple) error {
		out = append(out, row)
		return nil
	})
	return out
}

// Cursor returns a streaming iterator over the snapshot's live rows in
// RowID order. The slab set is immutable, so the walk is lock-free and
// zero-copy.
func (s *TableSnapshot) Cursor() Cursor { return &slabCursor{slabs: s.slabs} }

// Stats returns the snapshot's cardinality estimates, computing them on
// first use (safe for concurrent callers). Snapshots of an unchanged
// table are shared, so the sampling cost is paid at most once per table
// version — and only when a planner actually asks.
func (s *TableSnapshot) Stats() TableStats {
	s.statsOnce.Do(func() {
		st := computeStats(s.Cursor(), s.schema.Len(), s.live)
		s.stats.Store(&st)
	})
	return *s.stats.Load()
}

// Indexes returns nil: a snapshot owns no indexes, so plans over it scan.
// Full-row membership goes through LookupRow instead.
func (s *TableSnapshot) Indexes() []*Index { return nil }

// IndexLookup returns nil: a snapshot owns no indexes (see Indexes), so no
// index can name its rows.
func (s *TableSnapshot) IndexLookup(*Index, value.Tuple) []RowID { return nil }
