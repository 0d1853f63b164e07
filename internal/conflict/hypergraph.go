// Package conflict implements Hippo's conflict detection stage and the
// conflict hypergraph it produces: vertices are database tuples, and each
// hyperedge is a minimal set of tuples that jointly violate a denial
// constraint. Repairs of the database are exactly the maximal independent
// sets of this hypergraph, so all consistency reasoning downstream (the
// Prover) works on the hypergraph alone — which has polynomial size — and
// never materializes repairs.
package conflict

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hippo/internal/storage"
	"hippo/internal/value"
)

// Vertex identifies one tuple of the database: a relation name plus the
// tuple's stable RowID within it.
type Vertex struct {
	Rel string
	Row storage.RowID
}

// String renders the vertex as rel#row.
func (v Vertex) String() string { return fmt.Sprintf("%s#%d", v.Rel, v.Row) }

// Edge is a hyperedge: a canonical (sorted, deduplicated) set of vertices
// that together violate a constraint. Label records which constraint.
type Edge struct {
	Verts []Vertex
	Label string
}

// newEdge canonicalizes the vertex set.
func newEdge(verts []Vertex, label string) Edge {
	vs := slices.Clone(verts)
	slices.SortFunc(vs, func(a, b Vertex) int {
		if c := strings.Compare(a.Rel, b.Rel); c != 0 {
			return c
		}
		return cmp.Compare(a.Row, b.Row)
	})
	// Deduplicate (an atom combination may bind the same tuple twice).
	return Edge{Verts: slices.Compact(vs), Label: label}
}

// key returns a canonical identity string for deduplication.
func (e Edge) key() string {
	var b strings.Builder
	for _, v := range e.Verts {
		fmt.Fprintf(&b, "%s#%d;", v.Rel, v.Row)
	}
	return b.String()
}

// Size returns the number of vertices in the edge.
func (e Edge) Size() int { return len(e.Verts) }

// String renders the edge as {a#1, b#2}.
func (e Edge) String() string {
	parts := make([]string, len(e.Verts))
	for i, v := range e.Verts {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// hgState is the hypergraph's internal representation. Snapshots share it
// copy-on-write: once a state is referenced by a snapshot, the next
// mutation through any owning Hypergraph clones the state first, so the
// snapshot's view never changes.
type hgState struct {
	edges     []Edge // slot per edge ever added; dead slots stay in place
	dead      []bool
	liveEdges int
	byVertex  map[Vertex][]int // vertex -> live slots into edges
	keys      map[string]int   // canonical edge key -> live slot

	// Connected-component labeling, maintained eagerly by every edge
	// mutation (see components.go).
	compOf   map[Vertex]uint64   // conflicting vertex -> component id
	comps    map[uint64]compInfo // component id -> fingerprint and sizes
	nextComp uint64              // id allocator: 1, 2, 3, … per mutation lineage
}

func newHGState() *hgState {
	return &hgState{
		byVertex: make(map[Vertex][]int),
		keys:     make(map[string]int),
		compOf:   make(map[Vertex]uint64),
		comps:    make(map[uint64]compInfo),
	}
}

// clone deep-copies the mutable containers. Edge vertex slices are
// immutable after canonicalization and stay shared.
func (st *hgState) clone() *hgState {
	cp := &hgState{
		edges:     slices.Clone(st.edges),
		dead:      slices.Clone(st.dead),
		liveEdges: st.liveEdges,
		byVertex:  make(map[Vertex][]int, len(st.byVertex)),
		keys:      make(map[string]int, len(st.keys)),
		compOf:    make(map[Vertex]uint64, len(st.compOf)),
		comps:     make(map[uint64]compInfo, len(st.comps)),
		nextComp:  st.nextComp,
	}
	for v, slots := range st.byVertex {
		cp.byVertex[v] = slices.Clone(slots)
	}
	for k, i := range st.keys {
		cp.keys[k] = i
	}
	for v, id := range st.compOf {
		cp.compOf[v] = id
	}
	for id, ci := range st.comps {
		cp.comps[id] = ci
	}
	return cp
}

// Hypergraph is the conflict hypergraph. Detection builds it once; DML
// deltas then add and remove edges incrementally. Concurrent readers are
// safe only while no writer is active (the core serializes writers);
// lock-free concurrent reading is what Snapshot is for.
type Hypergraph struct {
	st *hgState
	// shared marks st as referenced by a snapshot (or a COW clone);
	// mutators copy the state before writing.
	shared bool
}

// NewHypergraph returns an empty hypergraph.
func NewHypergraph() *Hypergraph {
	return &Hypergraph{st: newHGState()}
}

// ensureOwned makes the state private to this handle before a mutation.
func (h *Hypergraph) ensureOwned() {
	if h.shared {
		h.st = h.st.clone()
		h.shared = false
	}
}

// Snapshot freezes the current state and returns an immutable view of it.
// The snapshot costs O(1); the next mutation of h pays one state copy
// (copy-on-write), and snapshots taken between mutations share state.
func (h *Hypergraph) Snapshot() *HypergraphSnapshot {
	h.shared = true
	return &HypergraphSnapshot{g: &Hypergraph{st: h.st, shared: true}}
}

// AddEdge inserts a hyperedge built from verts, deduplicating identical
// vertex sets. It reports whether the edge was new.
func (h *Hypergraph) AddEdge(verts []Vertex, label string) bool {
	e := newEdge(verts, label)
	if len(e.Verts) == 0 {
		return false
	}
	k := e.key()
	if _, ok := h.st.keys[k]; ok {
		return false
	}
	h.ensureOwned()
	st := h.st
	idx := len(st.edges)
	st.keys[k] = idx
	st.edges = append(st.edges, e)
	st.dead = append(st.dead, false)
	st.liveEdges++
	for _, v := range e.Verts {
		st.byVertex[v] = append(st.byVertex[v], idx)
	}
	h.compEdgeAdded(e)
	return true
}

// RemoveEdge deletes the hyperedge with exactly the given vertex set,
// reporting whether such an edge existed.
func (h *Hypergraph) RemoveEdge(verts []Vertex) bool {
	e := newEdge(verts, "")
	idx, ok := h.st.keys[e.key()]
	if !ok {
		return false
	}
	h.ensureOwned()
	h.removeSlot(idx)
	h.maybeCompact()
	return true
}

// RemoveVertex deletes every hyperedge containing v — exactly the
// maintenance a tuple deletion requires, since each violation the tuple
// participated in disappears with it. It returns the number of edges
// removed.
func (h *Hypergraph) RemoveVertex(v Vertex) int {
	slots := h.st.byVertex[v]
	if len(slots) == 0 {
		return 0
	}
	h.ensureOwned()
	// Copy: removeSlot mutates byVertex[v].
	cp := slices.Clone(h.st.byVertex[v])
	for _, idx := range cp {
		h.removeSlot(idx)
	}
	h.maybeCompact()
	return len(cp)
}

// removeSlot tombstones one edge slot and eagerly unlinks it from every
// incident vertex, keeping Degree/InConflict O(1) reads. The caller must
// have ensured ownership.
func (h *Hypergraph) removeSlot(idx int) {
	st := h.st
	if st.dead[idx] {
		return
	}
	st.dead[idx] = true
	st.liveEdges--
	e := st.edges[idx]
	delete(st.keys, e.key())
	for _, v := range e.Verts {
		slots := st.byVertex[v]
		for i, s := range slots {
			if s == idx {
				slots[i] = slots[len(slots)-1]
				slots = slots[:len(slots)-1]
				break
			}
		}
		if len(slots) == 0 {
			delete(st.byVertex, v)
		} else {
			st.byVertex[v] = slots
		}
	}
	h.compEdgeRemoved(e)
}

// maybeCompact reclaims tombstoned edge slots once they outnumber live
// ones, keeping long-running incremental maintenance at O(live edges)
// memory and scan cost instead of O(edges ever added). Slot indexes are
// reassigned, so it must only run between reader sections (the core holds
// its write lock across all mutations); published snapshots are
// unaffected, since they share a frozen state copy.
func (h *Hypergraph) maybeCompact() {
	st := h.st
	dead := len(st.edges) - st.liveEdges
	if dead < 64 || dead*2 < len(st.edges) {
		return
	}
	edges := make([]Edge, 0, st.liveEdges)
	for i, e := range st.edges {
		if !st.dead[i] {
			edges = append(edges, e)
		}
	}
	st.edges = edges
	st.dead = make([]bool, len(edges))
	st.byVertex = make(map[Vertex][]int, len(st.byVertex))
	st.keys = make(map[string]int, len(edges))
	for i, e := range edges {
		st.keys[e.key()] = i
		for _, v := range e.Verts {
			st.byVertex[v] = append(st.byVertex[v], i)
		}
	}
}

// Clone returns an independent copy of the hypergraph. The copy shares
// state copy-on-write: it is O(1) to take, and whichever handle mutates
// first pays the one-time state copy.
func (h *Hypergraph) Clone() *Hypergraph {
	h.shared = true
	return &Hypergraph{st: h.st, shared: true}
}

// NumEdges returns the number of live hyperedges.
func (h *Hypergraph) NumEdges() int { return h.st.liveEdges }

// NumConflictingVertices returns the number of distinct tuples involved in
// at least one conflict.
func (h *Hypergraph) NumConflictingVertices() int { return len(h.st.byVertex) }

// Edges returns all live hyperedges. The returned slice is freshly
// allocated; the edges themselves must not be mutated.
func (h *Hypergraph) Edges() []Edge {
	st := h.st
	out := make([]Edge, 0, st.liveEdges)
	for i, e := range st.edges {
		if !st.dead[i] {
			out = append(out, e)
		}
	}
	return out
}

// EdgesContaining returns the hyperedges that contain v. The returned
// slice is freshly allocated.
func (h *Hypergraph) EdgesContaining(v Vertex) []Edge {
	st := h.st
	idxs := st.byVertex[v]
	out := make([]Edge, len(idxs))
	for i, idx := range idxs {
		out[i] = st.edges[idx]
	}
	return out
}

// Degree returns the number of hyperedges containing v.
func (h *Hypergraph) Degree(v Vertex) int { return len(h.st.byVertex[v]) }

// InConflict reports whether v participates in any hyperedge.
func (h *Hypergraph) InConflict(v Vertex) bool { return len(h.st.byVertex[v]) > 0 }

// VertexSet is a mutable set of vertices used during independence checks.
type VertexSet map[Vertex]bool

// NewVertexSet builds a set from vertices.
func NewVertexSet(vs ...Vertex) VertexSet {
	s := make(VertexSet, len(vs))
	for _, v := range vs {
		s[v] = true
	}
	return s
}

// Clone copies the set.
func (s VertexSet) Clone() VertexSet {
	out := make(VertexSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// IndependentWith reports whether s ∪ {extra...} stays independent, only
// re-checking edges incident to the added vertices. The caller guarantees
// s itself is independent.
func (h *Hypergraph) IndependentWith(s VertexSet, extra ...Vertex) bool {
	for _, v := range extra {
		s[v] = true
	}
	defer func() {
		for _, v := range extra {
			delete(s, v)
		}
	}()
	// Only edges through a new vertex can have become complete.
	for _, v := range extra {
		if h.hasEdgeWithinVia(s, v) {
			return false
		}
	}
	return true
}

// hasEdgeWithinVia reports whether some hyperedge through v lies entirely
// inside s.
func (h *Hypergraph) hasEdgeWithinVia(s VertexSet, v Vertex) bool {
	st := h.st
	for _, idx := range st.byVertex[v] {
		inside := true
		for _, u := range st.edges[idx].Verts {
			if !s[u] {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

// Stats summarizes the hypergraph for reporting.
type Stats struct {
	Edges               int
	ConflictingVertices int
	MaxDegree           int
	MaxEdgeSize         int
	Components          int // connected components
	MaxComponent        int // vertices in the largest component
}

// Stats computes summary statistics.
func (h *Hypergraph) Stats() Stats {
	st := h.st
	out := Stats{
		Edges:               st.liveEdges,
		ConflictingVertices: len(st.byVertex),
		Components:          len(st.comps),
	}
	for _, ci := range st.comps {
		if ci.verts > out.MaxComponent {
			out.MaxComponent = ci.verts
		}
	}
	for _, idxs := range st.byVertex {
		if len(idxs) > out.MaxDegree {
			out.MaxDegree = len(idxs)
		}
	}
	for i, e := range st.edges {
		if !st.dead[i] && len(e.Verts) > out.MaxEdgeSize {
			out.MaxEdgeSize = len(e.Verts)
		}
	}
	return out
}

// HypergraphSnapshot is an immutable published view of a hypergraph.
// Readers (provers, repair enumerators) use it lock-free, concurrently
// with incremental maintenance of the live graph: the first mutation
// after Snapshot copies the state, so the snapshot never changes.
type HypergraphSnapshot struct {
	g *Hypergraph
}

// Graph returns the snapshot's hypergraph handle for read-only use (the
// prover and repair enumerator take *Hypergraph). The handle must not be
// mutated; mutations would not corrupt other snapshots or the live graph
// (copy-on-write), but they race with concurrent readers of this one.
func (s *HypergraphSnapshot) Graph() *Hypergraph { return s.g }

// Stats summarizes the snapshot.
func (s *HypergraphSnapshot) Stats() Stats { return s.g.Stats() }

// NumEdges returns the number of live hyperedges in the snapshot.
func (s *HypergraphSnapshot) NumEdges() int { return s.g.NumEdges() }

// Edges returns all live hyperedges of the snapshot.
func (s *HypergraphSnapshot) Edges() []Edge { return s.g.Edges() }

// TupleIndex resolves tuple values to vertices (and back) through each
// relation's full-row lookup. It backs the optimized prover's membership
// checks and maps formula atoms onto hypergraph vertices. Over live tables
// lookups see the current rows; over a database snapshot they see the
// snapshot's cut. Either way the work is a probe of the table's shared row
// index: building a TupleIndex costs nothing per row.
type TupleIndex struct {
	tables map[string]storage.Relation
}

// NewTupleIndex builds a tuple index over the given live tables.
func NewTupleIndex(tables map[string]*storage.Table) *TupleIndex {
	ti := &TupleIndex{tables: make(map[string]storage.Relation, len(tables))}
	for name, t := range tables {
		ti.tables[strings.ToLower(name)] = t
	}
	return ti
}

// NewSnapshotTupleIndex builds a tuple index over a database snapshot's
// tables.
func NewSnapshotTupleIndex(tables map[string]*storage.TableSnapshot) *TupleIndex {
	ti := &TupleIndex{tables: make(map[string]storage.Relation, len(tables))}
	for name, t := range tables {
		ti.tables[strings.ToLower(name)] = t
	}
	return ti
}

// Lookup returns the live RowIDs of rel holding exactly tuple t, in
// ascending order. The returned slice is read-only: it may be the row
// index bucket itself, shared by every caller.
func (ti *TupleIndex) Lookup(rel string, t value.Tuple) ([]storage.RowID, error) {
	r, ok := ti.tables[strings.ToLower(rel)]
	if !ok {
		return nil, fmt.Errorf("conflict: relation %q is not indexed", rel)
	}
	return r.LookupRow(t), nil
}

// Row returns the tuple stored at a vertex.
func (ti *TupleIndex) Row(v Vertex) (value.Tuple, bool) {
	r, ok := ti.tables[strings.ToLower(v.Rel)]
	if !ok {
		return nil, false
	}
	return r.Row(v.Row)
}
