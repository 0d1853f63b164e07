// Package repair enumerates database repairs explicitly. A repair is a
// maximal subset of the database satisfying all denial constraints —
// equivalently, a maximal independent set of the conflict hypergraph, or
// the complement of a minimal hitting set of its hyperedges.
//
// Enumeration is exponential in the number of conflicting tuples, which is
// exactly why Hippo avoids it; this package exists as the ground-truth
// oracle for tests and for the paper's motivating comparisons on small
// instances (experiment E1).
package repair

import (
	"fmt"
	"sort"
	"strings"

	"hippo/internal/conflict"
	"hippo/internal/engine"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// DefaultLimit bounds how many repairs the enumerator will produce before
// giving up, as a guard against exponential blowup.
const DefaultLimit = 100000

// Source is the read-only database surface enumeration needs. Both the
// live *engine.DB and an *engine.Snapshot satisfy it; the core hands the
// enumerator a pinned snapshot plus the matching hypergraph snapshot, so
// enumeration is read-only end to end and needs no defensive copies.
type Source interface {
	TableNames() []string
	Relation(name string) (storage.Relation, error)
}

// Enumerator lists the repairs of a database with respect to a conflict
// hypergraph. It only reads DB and H.
type Enumerator struct {
	DB Source
	H  *conflict.Hypergraph
	// Limit caps the number of repairs (DefaultLimit when zero).
	Limit int
}

// DeletionSets returns the tuple sets whose removal yields each repair:
// all minimal hitting sets of the hyperedge collection. The database
// itself is not touched.
//
// Because no hyperedge crosses a connected component of the conflict
// hypergraph, the minimal hitting sets factor: they are exactly the
// unions of one minimal hitting set per component. Enumeration therefore
// runs per component — exponential only in the largest component — and
// the global sets are the cross product.
func (e *Enumerator) DeletionSets() ([][]conflict.Vertex, error) {
	limit := e.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	perComp, err := e.componentDeletionSets(limit)
	if err != nil {
		return nil, err
	}
	// Cross product across components.
	out := [][]conflict.Vertex{{}}
	for _, sets := range perComp {
		if len(out)*len(sets) > limit {
			return nil, errTooMany(limit)
		}
		next := make([][]conflict.Vertex, 0, len(out)*len(sets))
		for _, acc := range out {
			for _, set := range sets {
				merged := make([]conflict.Vertex, 0, len(acc)+len(set))
				merged = append(merged, acc...)
				merged = append(merged, set...)
				next = append(next, merged)
			}
		}
		out = next
	}
	for _, set := range out {
		sortVerts(set)
	}
	return out, nil
}

// componentDeletionSets enumerates the minimal hitting sets of each
// connected component's edges separately.
func (e *Enumerator) componentDeletionSets(limit int) ([][][]conflict.Vertex, error) {
	byComp := make(map[uint64][]conflict.Edge)
	var order []uint64
	for _, edge := range e.H.Edges() {
		ref, ok := e.H.ComponentOf(edge.Verts[0])
		if !ok {
			return nil, fmt.Errorf("repair: edge %v has no component", edge)
		}
		if _, seen := byComp[ref.ID]; !seen {
			order = append(order, ref.ID)
		}
		byComp[ref.ID] = append(byComp[ref.ID], edge)
	}
	out := make([][][]conflict.Vertex, 0, len(order))
	for _, id := range order {
		sets, err := minimalHittingSets(byComp[id], limit)
		if err != nil {
			return nil, err
		}
		out = append(out, sets)
	}
	return out, nil
}

func errTooMany(limit int) error {
	return fmt.Errorf("repair: more than %d repairs; raise Limit or shrink the instance", limit)
}

// minimalHittingSets enumerates all minimal hitting sets of one edge
// collection by branching on the vertices of the first unhit edge.
func minimalHittingSets(edges []conflict.Edge, limit int) ([][]conflict.Vertex, error) {
	var (
		out     [][]conflict.Vertex
		seen    = map[string]bool{}
		deleted = conflict.VertexSet{}
	)
	var rec func() error
	rec = func() error {
		// Find the first edge not yet hit by a deletion.
		var alive *conflict.Edge
		for i := range edges {
			hit := false
			for _, v := range edges[i].Verts {
				if deleted[v] {
					hit = true
					break
				}
			}
			if !hit {
				alive = &edges[i]
				break
			}
		}
		if alive == nil {
			set := make([]conflict.Vertex, 0, len(deleted))
			for v := range deleted {
				set = append(set, v)
			}
			if !minimalHittingSet(edges, deleted) {
				return nil
			}
			sortVerts(set)
			key := vertsKey(set)
			if seen[key] {
				return nil
			}
			seen[key] = true
			out = append(out, set)
			if len(out) > limit {
				return errTooMany(limit)
			}
			return nil
		}
		for _, v := range alive.Verts {
			if deleted[v] {
				continue
			}
			deleted[v] = true
			err := rec()
			delete(deleted, v)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	return out, nil
}

// minimalHittingSet verifies every deleted vertex is necessary: it is the
// only deleted vertex of at least one edge.
func minimalHittingSet(edges []conflict.Edge, deleted conflict.VertexSet) bool {
	needed := make(map[conflict.Vertex]bool, len(deleted))
	for _, e := range edges {
		var only *conflict.Vertex
		count := 0
		for i, v := range e.Verts {
			if deleted[v] {
				count++
				only = &e.Verts[i]
			}
		}
		if count == 1 {
			needed[*only] = true
		}
	}
	return len(needed) == len(deleted)
}

// Count returns the number of repairs: the product of the per-component
// minimal-hitting-set counts, without materializing the cross product.
func (e *Enumerator) Count() (int, error) {
	limit := e.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	perComp, err := e.componentDeletionSets(limit)
	if err != nil {
		return 0, err
	}
	n := 1
	for _, sets := range perComp {
		if n*len(sets) > limit {
			return 0, errTooMany(limit)
		}
		n *= len(sets)
	}
	return n, nil
}

// Materialize builds each repair as a standalone database (same schemas,
// surviving rows only).
func (e *Enumerator) Materialize() ([]*engine.DB, error) {
	sets, err := e.DeletionSets()
	if err != nil {
		return nil, err
	}
	out := make([]*engine.DB, 0, len(sets))
	for _, del := range sets {
		db, err := cloneWithout(e.DB, del)
		if err != nil {
			return nil, err
		}
		out = append(out, db)
	}
	return out, nil
}

// cloneWithout copies every table of src, skipping the rows named in del.
func cloneWithout(src Source, del []conflict.Vertex) (*engine.DB, error) {
	drop := make(map[conflict.Vertex]bool, len(del))
	for _, v := range del {
		drop[v] = true
	}
	dst := engine.New()
	for _, name := range src.TableNames() {
		t, err := src.Relation(name)
		if err != nil {
			return nil, err
		}
		nt, err := dst.CreateTable(name, t.Schema())
		if err != nil {
			return nil, err
		}
		err = t.Scan(func(id storage.RowID, row value.Tuple) error {
			if drop[conflict.Vertex{Rel: name, Row: id}] {
				return nil
			}
			_, _, err := nt.Insert(row)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ConsistentAnswers computes the exact consistent answers to a SQL query
// by evaluating it in every repair and intersecting the results. This is
// the oracle the Hippo prover is validated against.
func (e *Enumerator) ConsistentAnswers(sql string) ([]value.Tuple, error) {
	repairs, err := e.Materialize()
	if err != nil {
		return nil, err
	}
	var intersection map[string]value.Tuple
	for _, r := range repairs {
		res, err := r.Query(sql)
		if err != nil {
			return nil, err
		}
		cur := make(map[string]value.Tuple, len(res.Rows))
		for _, row := range res.Rows {
			cur[row.Key()] = row
		}
		if intersection == nil {
			intersection = cur
			continue
		}
		for k := range intersection {
			if _, ok := cur[k]; !ok {
				delete(intersection, k)
			}
		}
	}
	out := make([]value.Tuple, 0, len(intersection))
	for _, row := range intersection {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return value.CompareTuples(out[i], out[j]) < 0 })
	return out, nil
}

// PossibleAnswers evaluates the query in every repair and unions the
// results ("possible" semantics), used by envelope soundness tests.
func (e *Enumerator) PossibleAnswers(sql string) ([]value.Tuple, error) {
	repairs, err := e.Materialize()
	if err != nil {
		return nil, err
	}
	union := map[string]value.Tuple{}
	for _, r := range repairs {
		res, err := r.Query(sql)
		if err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			union[row.Key()] = row
		}
	}
	out := make([]value.Tuple, 0, len(union))
	for _, row := range union {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return value.CompareTuples(out[i], out[j]) < 0 })
	return out, nil
}

func sortVerts(vs []conflict.Vertex) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Rel != vs[j].Rel {
			return vs[i].Rel < vs[j].Rel
		}
		return vs[i].Row < vs[j].Row
	})
}

func vertsKey(vs []conflict.Vertex) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, ";")
}
