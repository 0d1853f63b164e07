// Package storage implements the in-memory storage layer of the embedded
// RDBMS: append-only tables with tombstoned deletion, stable row
// identifiers, and hash indexes over arbitrary column subsets.
//
// Row identifiers (RowID) are stable for the lifetime of a table and are
// the vertex identity used by the conflict hypergraph, so deletion must
// never renumber rows — deleted rows leave a tombstone instead.
//
// Rows live in fixed-size slabs. A TableSnapshot captures the current
// slab set; writers copy-on-write only the slabs a snapshot still
// references, so snapshots are O(slabs) to take and readers of a snapshot
// need no locking at all.
package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"hippo/internal/schema"
	"hippo/internal/value"
)

// RowID identifies a row within its table. IDs are assigned densely in
// insertion order and never reused.
type RowID int

// ChangeKind discriminates the two DML deltas a table write can make.
type ChangeKind uint8

const (
	// ChangeInsert reports a newly inserted row.
	ChangeInsert ChangeKind = iota
	// ChangeDelete reports a tombstoned row.
	ChangeDelete
)

// String names the change kind.
func (k ChangeKind) String() string {
	if k == ChangeDelete {
		return "delete"
	}
	return "insert"
}

// Change is one DML delta: the affected RowID plus the stored tuple (the
// inserted values, or the values the deleted row held). Subscribers use it
// to maintain derived structures — notably the conflict hypergraph —
// without rescanning the table.
type Change struct {
	Kind  ChangeKind
	Row   RowID
	Tuple value.Tuple // stored (coerced) values; must not be mutated
}

// TableChange qualifies a change with the table it was made on. It is the
// unit the engine buffers while a statement or batch runs (a batch's
// buffer goes through CoalesceChanges) and delivers on commit.
type TableChange struct {
	Table  string
	Change Change
}

// CoalesceChanges collapses the buffered change feed of one atomic batch:
// a row inserted and deleted within the same batch never became visible to
// any published view, so both events vanish — no delta probe, no cache
// invalidation, no listener work for it. Because RowIDs are never reused,
// a RowID sees at most one insert and one delete, so cancellation is the
// only rewrite; chains like delete(old)+insert(new) on the same key are
// distinct RowIDs and pass through, which is exactly last-writer-wins for
// an update expressed as delete+insert. Surviving events keep their
// original relative order. The input slice is returned unchanged when
// nothing cancels.
func CoalesceChanges(feed []TableChange) []TableChange {
	type key struct {
		table string
		row   RowID
	}
	var (
		inserted map[key]int // feed index of a batch-local insert
		drop     []bool
		dropped  int
	)
	for i, tc := range feed {
		k := key{tc.Table, tc.Change.Row}
		switch tc.Change.Kind {
		case ChangeInsert:
			if inserted == nil {
				inserted = make(map[key]int)
			}
			inserted[k] = i
		case ChangeDelete:
			j, ok := inserted[k]
			if !ok {
				continue // deletes a pre-batch row; keep
			}
			if drop == nil {
				drop = make([]bool, len(feed))
			}
			drop[i], drop[j] = true, true
			dropped += 2
			delete(inserted, k)
		}
	}
	if dropped == 0 {
		return feed
	}
	out := make([]TableChange, 0, len(feed)-dropped)
	for i, tc := range feed {
		if !drop[i] {
			out = append(out, tc)
		}
	}
	return out
}

// Relation is the read surface shared by live tables and immutable
// snapshots. Plans, the tuple index, and the repair enumerator read
// through it so the same code serves both the live database and a pinned
// point-in-time view.
type Relation interface {
	// Name returns the relation name.
	Name() string
	// Schema returns the relation schema (qualified by the relation name).
	Schema() schema.Schema
	// Len returns the number of live rows.
	Len() int
	// Row returns the row with the given id, or ok=false if the id is out
	// of range or tombstoned.
	Row(id RowID) (value.Tuple, bool)
	// Rows materializes all live rows in RowID order.
	Rows() []value.Tuple
	// Scan calls fn for every live row in RowID order.
	Scan(fn func(id RowID, row value.Tuple) error) error
	// Indexes returns the indexes available for access-path selection
	// (none for a snapshot).
	Indexes() []*Index
	// IndexLookup resolves key in ix, one of Indexes(), under this
	// relation's synchronization. The returned slice must not be mutated.
	IndexLookup(ix *Index, key value.Tuple) []RowID
	// LookupRow returns the live RowIDs holding exactly the given full
	// row (under value.Key equality), ascending. It backs tuple-membership
	// checks. The returned slice must not be mutated.
	LookupRow(row value.Tuple) []RowID
	// Cursor returns a streaming iterator over all live rows in RowID
	// order. Live tables serve it from their cached snapshot, so an
	// in-flight cursor observes a consistent cut even while writers
	// proceed.
	Cursor() Cursor
	// Stats returns cardinality estimates for cost-based planning: an
	// exact live-row count plus sampled per-column distinct counts,
	// cached per table version.
	Stats() TableStats
}

const (
	slabShift = 8
	// SlabSize is the number of row slots per slab.
	SlabSize = 1 << slabShift
	slabMask = SlabSize - 1
)

// slab is one fixed-capacity run of row slots. A slab referenced by a
// snapshot is sealed; writers clone a sealed slab before mutating it, so
// the snapshot's view stays frozen without copying the whole table.
type slab struct {
	rows   []value.Tuple // ≤ SlabSize entries
	dead   []bool        // parallel to rows
	sealed bool          // referenced by a snapshot; clone before writing
}

func newSlab() *slab {
	return &slab{
		rows: make([]value.Tuple, 0, SlabSize),
		dead: make([]bool, 0, SlabSize),
	}
}

// clone copies the slab's slices (tuples themselves are immutable and
// shared). The copy starts unsealed.
func (s *slab) clone() *slab {
	cp := &slab{
		rows: make([]value.Tuple, len(s.rows), SlabSize),
		dead: make([]bool, len(s.dead), SlabSize),
	}
	copy(cp.rows, s.rows)
	copy(cp.dead, s.dead)
	return cp
}

// Table is an in-memory relation instance. Concurrent readers are always
// safe; a single writer may run concurrently with readers (reads are
// seqcst through t.mu), and writers are serialized with each other by the
// engine's write sequencer. A table emits no events: Insert and Delete
// return the change they made, and the engine collects those changes into
// its change feed.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  schema.Schema
	slabs   []*slab
	nrows   int // total row slots ever allocated (RowIDs range [0, nrows))
	live    int
	version uint64 // bumped on every mutation; snapshots are cached per version
	snap    *TableSnapshot
	indexes map[string]*Index
	// rowIdx is the full-row hash index, built by the first LookupRow
	// (on the table or any snapshot of it) and extended by every insert
	// after that. Snapshots share it; see rowindex.go.
	rowIdx atomic.Pointer[rowIndex]
}

// NewTable creates an empty table with the given name and schema. Column
// qualifiers in the stored schema are set to the table name.
func NewTable(name string, s schema.Schema) *Table {
	return &Table{
		name:    name,
		schema:  s.WithQualifier(name),
		indexes: make(map[string]*Index),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (qualified by the table name).
func (t *Table) Schema() schema.Schema { return t.schema }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Cap returns the total number of row slots ever allocated, including
// tombstones. RowIDs range over [0, Cap).
func (t *Table) Cap() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

// Version returns the mutation counter; it changes exactly when the table
// contents change.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// writableSlab returns the slab holding slot si, cloning it first if it is
// sealed by a snapshot. Caller holds t.mu.
func (t *Table) writableSlab(si int) *slab {
	s := t.slabs[si]
	if s.sealed {
		s = s.clone()
		t.slabs[si] = s
	}
	return s
}

// Insert appends a row after validating arity and coercing values to the
// column types. It returns the new row's RowID and the change it made.
func (t *Table) Insert(row value.Tuple) (RowID, Change, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != t.schema.Len() {
		return -1, Change{}, fmt.Errorf("storage: table %s expects %d values, got %d",
			t.name, t.schema.Len(), len(row))
	}
	stored := make(value.Tuple, len(row))
	for i, v := range row {
		cv, err := value.Coerce(v, t.schema.Columns[i].Type)
		if err != nil {
			return -1, Change{}, fmt.Errorf("storage: table %s column %s: %v",
				t.name, t.schema.Columns[i].Name, err)
		}
		stored[i] = cv
	}
	id := RowID(t.nrows)
	t.appendSlotLocked(stored, false)
	t.version++
	for _, idx := range t.indexes {
		idx.add(stored, id)
	}
	t.indexRowLocked(stored, id)
	return id, Change{Kind: ChangeInsert, Row: id, Tuple: stored}, nil
}

// Delete tombstones a row and returns the change it made. Deleting an
// already-dead or out-of-range row is an error.
func (t *Table) Delete(id RowID) (Change, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < 0 || int(id) >= t.nrows {
		return Change{}, fmt.Errorf("storage: table %s has no row %d", t.name, id)
	}
	si, off := int(id)>>slabShift, int(id)&slabMask
	if t.slabs[si].dead[off] {
		return Change{}, fmt.Errorf("storage: table %s row %d already deleted", t.name, id)
	}
	s := t.writableSlab(si)
	s.dead[off] = true
	t.live--
	t.version++
	gone := s.rows[off]
	for _, idx := range t.indexes {
		idx.remove(gone, id)
	}
	return Change{Kind: ChangeDelete, Row: id, Tuple: gone}, nil
}

// Resurrect clears the tombstone of a deleted row, restoring it under its
// original RowID with its index entries. The engine's rollback uses it to
// undo a captured (never delivered) delete, so to every listener the row
// was simply never touched.
func (t *Table) Resurrect(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < 0 || int(id) >= t.nrows {
		return fmt.Errorf("storage: table %s has no row %d", t.name, id)
	}
	si, off := int(id)>>slabShift, int(id)&slabMask
	if !t.slabs[si].dead[off] {
		return fmt.Errorf("storage: table %s row %d is not deleted", t.name, id)
	}
	s := t.writableSlab(si)
	s.dead[off] = false
	t.live++
	t.version++
	row := s.rows[off]
	for _, idx := range t.indexes {
		idx.add(row, id)
	}
	return nil
}

// Row returns the row with the given id, or ok=false if the id is out of
// range or tombstoned. The returned tuple must not be mutated.
func (t *Table) Row(id RowID) (value.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) < 0 || int(id) >= t.nrows {
		return nil, false
	}
	s := t.slabs[int(id)>>slabShift]
	off := int(id) & slabMask
	if s.dead[off] {
		return nil, false
	}
	return s.rows[off], true
}

// Scan calls fn for every live row in RowID order. Returning a non-nil
// error from fn stops the scan and propagates the error. The read lock is
// held across fn; fn must not write to the table.
func (t *Table) Scan(fn func(id RowID, row value.Tuple) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for si, s := range t.slabs {
		base := si << slabShift
		for off, row := range s.rows {
			if s.dead[off] {
				continue
			}
			if err := fn(RowID(base+off), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows materializes all live rows in RowID order. The returned tuples are
// the stored ones and must not be mutated.
func (t *Table) Rows() []value.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]value.Tuple, 0, t.live)
	for _, s := range t.slabs {
		for off, row := range s.rows {
			if !s.dead[off] {
				out = append(out, row)
			}
		}
	}
	return out
}

// Cursor returns a streaming iterator over the live rows. It is served
// from the table's cached snapshot: the walk needs no locking and stays
// consistent while writers proceed (they clone sealed slabs).
func (t *Table) Cursor() Cursor { return t.Snapshot().Cursor() }

// Stats returns planner cardinality estimates, computed lazily and cached
// per table version via the snapshot.
func (t *Table) Stats() TableStats { return t.Snapshot().Stats() }

// Snapshot returns an immutable point-in-time view of the table. Taking a
// snapshot seals the current slabs — writers clone a sealed slab before
// touching it — and costs O(slabs). Snapshots of an unchanged table are
// shared: the same *TableSnapshot is returned until the next mutation.
func (t *Table) Snapshot() *TableSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap != nil && t.snap.version == t.version {
		return t.snap
	}
	for _, s := range t.slabs {
		s.sealed = true
	}
	t.snap = &TableSnapshot{
		table:   t,
		name:    t.name,
		schema:  t.schema,
		slabs:   slices.Clone(t.slabs),
		nrows:   t.nrows,
		live:    t.live,
		version: t.version,
	}
	return t.snap
}

// indexKey canonicalizes a column set for index lookup.
func indexKey(cols []int) string {
	sorted := slices.Clone(cols)
	slices.Sort(sorted)
	var b strings.Builder
	for i, c := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// fullRowCols returns the column list indexing the entire row.
func fullRowCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// EnsureIndex builds (or returns an existing) hash index over the given
// column positions. An empty column list indexes the full row.
func (t *Table) EnsureIndex(cols []int) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(cols) == 0 {
		cols = fullRowCols(t.schema.Len())
	}
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return nil, fmt.Errorf("storage: table %s: index column %d out of range", t.name, c)
		}
	}
	// Canonicalize to sorted order so that equal column sets requested in
	// different orders share one index and agree on key layout.
	cols = slices.Clone(cols)
	slices.Sort(cols)
	key := indexKey(cols)
	if idx, ok := t.indexes[key]; ok {
		return idx, nil
	}
	idx := newIndex(cols)
	for si, s := range t.slabs {
		base := si << slabShift
		for off, row := range s.rows {
			if !s.dead[off] {
				idx.add(row, RowID(base+off))
			}
		}
	}
	t.indexes[key] = idx
	return idx, nil
}

// IndexLookup returns the RowIDs whose indexed columns equal key,
// synchronized against concurrent writers. The returned slice is a copy
// and stays valid after the call.
func (t *Table) IndexLookup(ix *Index, key value.Tuple) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(ix.Lookup(key))
}

// Index is a hash index over a subset of a table's columns, mapping the
// encoded key of the indexed columns to the RowIDs holding it. Only live
// tables own indexes; writers mutate them in place, so read them through
// the table's locked accessors (or under external synchronization).
// Snapshots own none: full-row membership goes through LookupRow.
type Index struct {
	cols    []int
	buckets map[string][]RowID
}

func newIndex(cols []int) *Index {
	c := make([]int, len(cols))
	copy(c, cols)
	return &Index{cols: c, buckets: make(map[string][]RowID)}
}

// Columns returns the indexed column positions.
func (ix *Index) Columns() []int { return ix.cols }

func (ix *Index) add(row value.Tuple, id RowID) {
	k := value.KeyOf(row, ix.cols)
	ix.buckets[k] = append(ix.buckets[k], id)
}

func (ix *Index) remove(row value.Tuple, id RowID) {
	k := value.KeyOf(row, ix.cols)
	ids := ix.buckets[k]
	for i, x := range ids {
		if x == id {
			ix.buckets[k] = append(ids[:i], ids[i+1:]...)
			if len(ix.buckets[k]) == 0 {
				delete(ix.buckets, k)
			}
			return
		}
	}
}

// Lookup returns the RowIDs whose indexed columns equal the given key
// values (in index column order). The returned slice must not be mutated.
func (ix *Index) Lookup(key value.Tuple) []RowID {
	return ix.buckets[key.Key()]
}

// LookupRow returns the RowIDs matching the indexed columns of a full row.
func (ix *Index) LookupRow(row value.Tuple) []RowID {
	return ix.buckets[value.KeyOf(row, ix.cols)]
}

// Groups iterates over all distinct keys in the index, calling fn with the
// RowIDs sharing each key. Iteration order is unspecified.
func (ix *Index) Groups(fn func(ids []RowID) error) error {
	for _, ids := range ix.buckets {
		if err := fn(ids); err != nil {
			return err
		}
	}
	return nil
}

// Distinct returns the number of distinct keys in the index.
func (ix *Index) Distinct() int { return len(ix.buckets) }

// Index returns the existing index over exactly the given column set (any
// order), without building one.
func (t *Table) Index(cols []int) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[indexKey(cols)]
	return idx, ok
}

// Indexes returns all indexes on the table, in unspecified order.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, 0, len(t.indexes))
	for _, idx := range t.indexes {
		out = append(out, idx)
	}
	return out
}
