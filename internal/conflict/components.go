package conflict

import "hash/fnv"

// Connected-component maintenance.
//
// Repairs factor over the connected components of the conflict hypergraph:
// a repair is a maximal independent set, and independence decomposes over
// components (no hyperedge crosses a component boundary), so the repairs
// of the database are exactly the cross product of the per-component
// repairs. Certification cost is therefore exponential only in the largest
// component — never in the whole conflict set.
//
// Components are labeled eagerly at mutation time (AddEdge / removeSlot
// run under the core's write lock, so there is no concurrency here):
// adding an edge merges the components of its endpoints, removing one may
// split its component, and a vertex that loses its last incident edge
// leaves the component map entirely (reclamation). Each structural change
// recomputes the affected component by a breadth-first walk — components
// are small by the paper's locality premise, so this stays cheap — and the
// component's fingerprint is rebuilt as the XOR of its edges' hashes, so
// two components with the same edge set always agree on the fingerprint
// regardless of mutation history. The serving path reads only component
// ids (the prover groups its search by them); the fingerprints stay for
// inspection and for the verdict-cache package's remaining readers.

// ComponentRef identifies one connected component of the hypergraph: a
// stable id plus a fingerprint of its exact edge set. The id survives
// mutations only while the component's edge set is untouched (an edge
// addition that keeps the component's identity still changes the
// fingerprint); a merge or split assigns fresh ids to every changed part.
type ComponentRef struct {
	ID uint64
	FP uint64
}

// Component describes one connected component for inspection.
type Component struct {
	ComponentRef
	Verts int
	Edges int
}

// compInfo is the per-component record kept in hgState.
type compInfo struct {
	fp    uint64
	verts int
	edges int
}

// ComponentOf returns the component containing v, or ok=false when v is
// conflict-free (in no hyperedge).
func (h *Hypergraph) ComponentOf(v Vertex) (ComponentRef, bool) {
	id, ok := h.st.compOf[v]
	if !ok {
		return ComponentRef{}, false
	}
	return ComponentRef{ID: id, FP: h.st.comps[id].fp}, true
}

// Component returns the component with the given id.
func (h *Hypergraph) Component(id uint64) (Component, bool) {
	ci, ok := h.st.comps[id]
	if !ok {
		return Component{}, false
	}
	return Component{ComponentRef: ComponentRef{ID: id, FP: ci.fp}, Verts: ci.verts, Edges: ci.edges}, true
}

// Components lists every connected component (in map order).
func (h *Hypergraph) Components() []Component {
	out := make([]Component, 0, len(h.st.comps))
	for id, ci := range h.st.comps {
		out = append(out, Component{ComponentRef: ComponentRef{ID: id, FP: ci.fp}, Verts: ci.verts, Edges: ci.edges})
	}
	return out
}

// NumComponents returns the number of connected components.
func (h *Hypergraph) NumComponents() int { return len(h.st.comps) }

// ComponentOf returns the component containing v in the snapshot.
func (s *HypergraphSnapshot) ComponentOf(v Vertex) (ComponentRef, bool) { return s.g.ComponentOf(v) }

// Components lists the snapshot's connected components.
func (s *HypergraphSnapshot) Components() []Component { return s.g.Components() }

// NumComponents returns the snapshot's component count.
func (s *HypergraphSnapshot) NumComponents() int { return s.g.NumComponents() }

// edgeHash maps an edge's canonical key to a 64-bit value suitable for
// XOR-combining into a component fingerprint. FNV-1a alone distributes
// poorly under XOR of related keys, so the result is passed through a
// splitmix64 finalizer.
func edgeHash(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	z := f.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// compWalk collects the connected component containing start: its vertex
// set and live edge slots, walking the byVertex adjacency.
func (st *hgState) compWalk(start Vertex) ([]Vertex, map[int]struct{}) {
	verts := []Vertex{start}
	seen := map[Vertex]bool{start: true}
	slots := make(map[int]struct{})
	for i := 0; i < len(verts); i++ {
		for _, idx := range st.byVertex[verts[i]] {
			if _, ok := slots[idx]; ok {
				continue
			}
			slots[idx] = struct{}{}
			for _, u := range st.edges[idx].Verts {
				if !seen[u] {
					seen[u] = true
					verts = append(verts, u)
				}
			}
		}
	}
	return verts, slots
}

// setComponent (re)labels one freshly walked component.
func (st *hgState) setComponent(id uint64, verts []Vertex, slots map[int]struct{}) {
	var fp uint64
	for idx := range slots {
		fp ^= edgeHash(st.edges[idx].key())
	}
	for _, v := range verts {
		st.compOf[v] = id
	}
	st.comps[id] = compInfo{fp: fp, verts: len(verts), edges: len(slots)}
}

// compEdgeAdded maintains component labels after e was linked into the
// graph. The caller owns the state.
func (h *Hypergraph) compEdgeAdded(e Edge) {
	st := h.st
	oldIDs := make(map[uint64]struct{})
	for _, v := range e.Verts {
		if id, ok := st.compOf[v]; ok {
			oldIDs[id] = struct{}{}
		}
	}
	// A component that merely grows keeps its id (the fingerprint still
	// changes); a merge of several gets a fresh id.
	var keep uint64
	if len(oldIDs) == 1 {
		for id := range oldIDs {
			keep = id
		}
	} else {
		st.nextComp++
		keep = st.nextComp
	}
	for id := range oldIDs {
		if id != keep {
			delete(st.comps, id)
		}
	}
	verts, slots := st.compWalk(e.Verts[0])
	st.setComponent(keep, verts, slots)
}

// compEdgeRemoved maintains component labels after e was unlinked. Every
// surviving part of the old component contains at least one vertex of e
// (any old path into the component that used e reaches one of e's
// endpoints first), so walking from e's vertices finds all parts. The
// first part keeps the old id; further parts — a genuine split — get fresh
// ids; vertices with no remaining edges are reclaimed.
func (h *Hypergraph) compEdgeRemoved(e Edge) {
	st := h.st
	old, ok := st.compOf[e.Verts[0]]
	if !ok {
		return
	}
	delete(st.comps, old)
	relabeled := make(map[Vertex]bool)
	first := true
	for _, v := range e.Verts {
		if len(st.byVertex[v]) == 0 {
			delete(st.compOf, v) // conflict-free again: reclaim
			continue
		}
		if relabeled[v] {
			continue
		}
		verts, slots := st.compWalk(v)
		for _, u := range verts {
			relabeled[u] = true
		}
		id := old
		if !first {
			st.nextComp++
			id = st.nextComp
		}
		first = false
		st.setComponent(id, verts, slots)
	}
}
