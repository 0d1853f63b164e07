package storage

import (
	"sync"

	"hippo/internal/value"
)

// rowIndexParts is the number of independently locked partitions of a
// row index. Readers of different partitions never touch the same reader
// count, so concurrent membership probes do not contend.
const rowIndexParts = 256

// rowIndex maps value.HashTuple of every row a table has stored to the
// RowIDs holding it, in ascending order. It is append-only: a tombstoned
// row keeps its entry (slabs keep the row too), so every snapshot of the
// table can share the one index and filter ids by its own liveness. A hash
// match is confirmed with value.SameKey, which is what makes the probe
// exact despite collisions.
type rowIndex struct {
	parts [rowIndexParts]rowIndexPart
}

type rowIndexPart struct {
	mu      sync.RWMutex
	buckets map[uint64][]RowID
	_       [32]byte // keep each partition's lock on its own cache line
}

// buildRowIndex indexes every stored row of slabs, tombstoned ones
// included (a batch rollback may resurrect them). Tombstone slots recreated
// by recovery hold no row and are skipped: nothing can resurrect them.
func buildRowIndex(slabs []*slab, nrows int) *rowIndex {
	ix := &rowIndex{}
	for i := range ix.parts {
		ix.parts[i].buckets = make(map[uint64][]RowID, nrows/rowIndexParts)
	}
	for si, s := range slabs {
		base := si << slabShift
		for off, row := range s.rows {
			if row != nil {
				h := value.HashTuple(row)
				p := &ix.parts[h>>56]
				p.buckets[h] = append(p.buckets[h], RowID(base+off))
			}
		}
	}
	return ix
}

// add appends id, which is above every id already indexed.
func (ix *rowIndex) add(row value.Tuple, id RowID) {
	h := value.HashTuple(row)
	p := &ix.parts[h>>56]
	p.mu.Lock()
	p.buckets[h] = append(p.buckets[h], id)
	p.mu.Unlock()
}

// lookup returns the RowIDs of slabs[:nrows] that are live and hold
// exactly row, ascending. The caller guarantees slabs are stable for the
// duration (a snapshot's sealed slabs, or a live table under its read
// lock). When every id in the hash bucket qualifies — the common case — the
// bucket itself is returned, capacity-clipped so an append cannot reach
// the shared array; the result must not be mutated.
func (ix *rowIndex) lookup(row value.Tuple, slabs []*slab, nrows int) []RowID {
	h := value.HashTuple(row)
	p := &ix.parts[h>>56]
	p.mu.RLock()
	ids := p.buckets[h]
	p.mu.RUnlock()
	// Elements below len(ids) are never rewritten: writers only append
	// past it, and a growing append copies to a new array.
	var out []RowID
	filtered := false
	for i, id := range ids {
		ok := int(id) < nrows
		if ok {
			s := slabs[int(id)>>slabShift]
			off := int(id) & slabMask
			ok = !s.dead[off] && value.SameKey(s.rows[off], row)
		}
		switch {
		case ok && filtered:
			out = append(out, id)
		case !ok && !filtered:
			out, filtered = ids[:i:i], true
		}
	}
	if !filtered {
		return ids[:len(ids):len(ids)]
	}
	return out
}

// rowIndex returns the table's row index, building it on first use. The
// build holds t.mu, so no insert can slip between the scan and the index
// going live; afterwards insert and ReplayInsert keep it current.
func (t *Table) rowIndex() *rowIndex {
	if ix := t.rowIdx.Load(); ix != nil {
		return ix
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.rowIdx.Load(); ix != nil {
		return ix
	}
	ix := buildRowIndex(t.slabs, t.nrows)
	t.rowIdx.Store(ix)
	return ix
}

// indexRowLocked records a newly stored row in the row index, if one has
// been built. The caller holds t.mu.
func (t *Table) indexRowLocked(row value.Tuple, id RowID) {
	if ix := t.rowIdx.Load(); ix != nil {
		ix.add(row, id)
	}
}

// LookupRow returns the live RowIDs holding exactly row (under value.Key
// equality), ascending. The returned slice must not be mutated.
func (t *Table) LookupRow(row value.Tuple) []RowID {
	ix := t.rowIndex()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return ix.lookup(row, t.slabs, t.nrows)
}

// LookupRow returns the RowIDs live in the snapshot that hold exactly row
// (under value.Key equality), ascending. It probes the row index shared
// with the live table and every other snapshot of it; ids at or past the
// snapshot's row count, or tombstoned in its slabs, are filtered out. The
// returned slice must not be mutated.
func (s *TableSnapshot) LookupRow(row value.Tuple) []RowID {
	return s.table.rowIndex().lookup(row, s.slabs, s.nrows)
}
