package conflict

import (
	"strings"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/storage"
)

// Delta is one DML change routed from the engine to the conflict stage: a
// single-row insert or delete on a named table.
type Delta struct {
	Table  string
	Change storage.Change
}

// IncrementalStats counts hypergraph maintenance work across deltas.
type IncrementalStats struct {
	DeltasApplied int64 // deltas folded into the hypergraph
	EdgesAdded    int64 // hyperedges added by insert probes
	EdgesRemoved  int64 // hyperedges removed by delete deltas
	Combinations  int64 // tuple combinations examined by insert probes
}

// Add accumulates o into s.
func (s *IncrementalStats) Add(o IncrementalStats) {
	s.DeltasApplied += o.DeltasApplied
	s.EdgesAdded += o.EdgesAdded
	s.EdgesRemoved += o.EdgesRemoved
	s.Combinations += o.Combinations
}

// Sub returns the counter-wise difference s - o (e.g. work done since a
// snapshot o was taken).
func (s IncrementalStats) Sub(o IncrementalStats) IncrementalStats {
	return IncrementalStats{
		DeltasApplied: s.DeltasApplied - o.DeltasApplied,
		EdgesAdded:    s.EdgesAdded - o.EdgesAdded,
		EdgesRemoved:  s.EdgesRemoved - o.EdgesRemoved,
		Combinations:  s.Combinations - o.Combinations,
	}
}

// IncrementalDetector maintains a fully detected conflict hypergraph under
// DML deltas, without rescanning tables:
//
//   - a delete removes every hyperedge containing the dead tuple
//     (RemoveVertex) — each violation it participated in vanishes with it;
//   - an insert probes, for every constraint atom the new tuple can bind,
//     the per-constraint hash indexes for violating combinations that
//     involve the new tuple, adding exactly those hyperedges.
//
// Deltas must be applied in statement order; the hypergraph then converges
// to what a fresh full Detect would build (transient edges created by an
// insert that is later deleted are removed again by the delete's
// RemoveVertex). DDL and constraint changes are outside its scope — the
// core falls back to a full rebuild for those.
type IncrementalDetector struct {
	h *Hypergraph
	// probes per (lowercased) relation name: the work an insert into that
	// relation triggers.
	probes map[string][]probe
	stats  IncrementalStats
}

// probe is one compiled insert-reaction: either an FD fast-path lookup or
// a denial program with the changed relation's atom pinned first.
type probe struct {
	fd   *fdPlan
	prog *denialProgram
}

// NewIncrementalDetector compiles delta probes for the constraint set over
// db's current schema, maintaining h (which must be the result of a full
// Detect over the same database and constraints). It ensures the same
// per-constraint hash indexes full detection uses, so probes are O(group)
// rather than O(table).
func NewIncrementalDetector(db *engine.DB, h *Hypergraph, constraints []constraint.Constraint) (*IncrementalDetector, error) {
	inc := &IncrementalDetector{h: h, probes: make(map[string][]probe)}
	for _, c := range constraints {
		if fd, ok := c.(constraint.FD); ok {
			p, err := planFD(db, fd)
			if err != nil {
				return nil, err
			}
			inc.probes[p.rel] = append(inc.probes[p.rel], probe{fd: p})
			continue
		}
		den, err := c.Denial(db)
		if err != nil {
			return nil, err
		}
		// One pinned program per atom position: an insert into the atom's
		// relation enumerates only combinations binding the new row there.
		for pos, atom := range den.Atoms {
			order := make([]int, 0, len(den.Atoms))
			order = append(order, pos)
			for i := range den.Atoms {
				if i != pos {
					order = append(order, i)
				}
			}
			prog, err := compileDenial(db, den, order)
			if err != nil {
				return nil, err
			}
			rel := strings.ToLower(atom.Rel)
			inc.probes[rel] = append(inc.probes[rel], probe{prog: prog})
		}
	}
	return inc, nil
}

// Stats returns the maintenance counters accumulated so far.
func (inc *IncrementalDetector) Stats() IncrementalStats { return inc.stats }

// Apply folds one delta into the hypergraph.
func (inc *IncrementalDetector) Apply(d Delta) error {
	rel := strings.ToLower(d.Table)
	inc.stats.DeltasApplied++
	if d.Change.Kind == storage.ChangeDelete {
		inc.stats.EdgesRemoved += int64(inc.h.RemoveVertex(Vertex{Rel: rel, Row: d.Change.Row}))
		return nil
	}
	before := inc.h.NumEdges()
	pin := &pinnedRow{ID: d.Change.Row, Row: d.Change.Tuple}
	var probeStats DetectStats
	for _, p := range inc.probes[rel] {
		if p.fd != nil {
			probeFD(inc.h, p.fd, pin, &probeStats)
			continue
		}
		if err := p.prog.enumerate(inc.h, &probeStats, pin); err != nil {
			return err
		}
	}
	inc.stats.Combinations += probeStats.Combinations
	inc.stats.EdgesAdded += int64(inc.h.NumEdges() - before)
	return nil
}

// probeFD adds the FD-violation edges the pinned row introduces: every
// live row sharing its LHS group but disagreeing on the RHS, under the
// same NULL semantics as detectFD.
func probeFD(h *Hypergraph, p *fdPlan, pin *pinnedRow, stats *DetectStats) {
	if anyNull(pin.Row, p.lhs) {
		return
	}
	for _, id := range p.idx.LookupRow(pin.Row) {
		if id == pin.ID {
			continue
		}
		row, ok := p.table.Row(id)
		if !ok {
			continue
		}
		stats.Combinations++
		if fdViolates(pin.Row, row, p.rhs) {
			h.AddEdge([]Vertex{{Rel: p.rel, Row: pin.ID}, {Rel: p.rel, Row: id}}, p.label)
		}
	}
}
