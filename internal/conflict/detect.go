package conflict

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// DetectStats reports what conflict detection did.
type DetectStats struct {
	Constraints  int           // constraints processed
	Combinations int64         // candidate tuple combinations examined
	Elapsed      time.Duration // wall-clock detection time
}

// Detector finds all minimal constraint violations in a database and
// assembles the conflict hypergraph.
type Detector struct {
	db *engine.DB
}

// NewDetector creates a detector over db.
func NewDetector(db *engine.DB) *Detector { return &Detector{db: db} }

// Detect evaluates every constraint and returns the conflict hypergraph
// plus a tuple index over every table of the database.
func (d *Detector) Detect(constraints []constraint.Constraint) (*Hypergraph, *TupleIndex, DetectStats, error) {
	start := time.Now()
	h := NewHypergraph()
	stats := DetectStats{Constraints: len(constraints)}
	// Index every table, not just the constrained ones: the prover's
	// membership checks may touch any relation the query mentions.
	tables := make(map[string]*storage.Table)
	for _, name := range d.db.TableNames() {
		t, err := d.db.Table(name)
		if err != nil {
			return nil, nil, stats, err
		}
		tables[name] = t
	}

	for _, c := range constraints {
		den, err := c.Denial(d.db)
		if err != nil {
			return nil, nil, stats, err
		}
		for _, a := range den.Atoms {
			if _, ok := tables[strings.ToLower(a.Rel)]; !ok {
				return nil, nil, stats, fmt.Errorf("conflict: constraint %s references unknown relation %q", c, a.Rel)
			}
		}
		if fd, ok := c.(constraint.FD); ok {
			if err := d.detectFD(h, fd, &stats); err != nil {
				return nil, nil, stats, err
			}
			continue
		}
		prog, err := compileDenial(d.db, den, nil)
		if err != nil {
			return nil, nil, stats, err
		}
		if err := prog.enumerate(h, &stats, nil); err != nil {
			return nil, nil, stats, err
		}
	}

	stats.Elapsed = time.Since(start)
	return h, NewTupleIndex(tables), stats, nil
}

// fdPlan resolves an FD's column lists against its table and ensures the
// LHS hash index exists. Both the full detector and the incremental
// detector probe violations through it.
type fdPlan struct {
	table *storage.Table
	lhs   []int
	rhs   []int
	idx   *storage.Index
	rel   string
	label string
}

func planFD(db *engine.DB, fd constraint.FD) (*fdPlan, error) {
	t, err := db.Table(fd.Rel)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	lhs, err := resolveCols(sch, fd.LHS)
	if err != nil {
		return nil, fmt.Errorf("conflict: %s: %v", fd, err)
	}
	rhs, err := resolveCols(sch, fd.RHS)
	if err != nil {
		return nil, fmt.Errorf("conflict: %s: %v", fd, err)
	}
	idx, err := t.EnsureIndex(lhs)
	if err != nil {
		return nil, err
	}
	return &fdPlan{
		table: t, lhs: lhs, rhs: rhs, idx: idx,
		rel: strings.ToLower(fd.Rel), label: fd.String(),
	}, nil
}

// detectFD finds FD violations by hash-grouping on the LHS: within each
// LHS group, every pair of rows disagreeing on the RHS is a conflict edge.
// It follows the denial's SQL semantics (fdViolates): a group keyed by a
// NULL is no group, and NULL disagrees with nothing.
func (d *Detector) detectFD(h *Hypergraph, fd constraint.FD, stats *DetectStats) error {
	p, err := planFD(d.db, fd)
	if err != nil {
		return err
	}
	return p.idx.Groups(func(ids []storage.RowID) error {
		if len(ids) < 2 {
			return nil
		}
		rows := make([]value.Tuple, 0, len(ids))
		live := make([]storage.RowID, 0, len(ids))
		nullRHS := false
		for _, id := range ids {
			row, ok := p.table.Row(id)
			if !ok {
				continue
			}
			if anyNull(row, p.lhs) {
				return nil // every row of the group shares the NULL key
			}
			nullRHS = nullRHS || anyNull(row, p.rhs)
			rows = append(rows, row)
			live = append(live, id)
		}
		if nullRHS {
			// "Disagrees" is no partition once a NULL is involved: compare
			// every pair.
			for i := range rows {
				for j := i + 1; j < len(rows); j++ {
					stats.Combinations++
					if fdViolates(rows[i], rows[j], p.rhs) {
						h.AddEdge([]Vertex{{Rel: p.rel, Row: live[i]}, {Rel: p.rel, Row: live[j]}}, p.label)
					}
				}
			}
			return nil
		}
		// Partition the group by RHS value; rows in different partitions
		// conflict pairwise.
		parts := make(map[string][]storage.RowID)
		for i, row := range rows {
			k := value.KeyOf(row, p.rhs)
			parts[k] = append(parts[k], live[i])
		}
		if len(parts) < 2 {
			return nil
		}
		keys := make([]string, 0, len(parts))
		for k := range parts {
			keys = append(keys, k)
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				for _, a := range parts[keys[i]] {
					for _, b := range parts[keys[j]] {
						stats.Combinations++
						h.AddEdge([]Vertex{{Rel: p.rel, Row: a}, {Rel: p.rel, Row: b}}, p.label)
					}
				}
			}
		}
		return nil
	})
}

// fdViolates reports whether two rows with equal, non-NULL LHS values
// violate the FD under its denial's SQL semantics: the condition
// "rhs1 <> rhs1' OR …" is true only if some RHS column holds two non-NULL
// unequal values, since a comparison with NULL is unknown.
func fdViolates(a, b value.Tuple, rhs []int) bool {
	for _, c := range rhs {
		if !a[c].IsNull() && !b[c].IsNull() && value.Compare(a[c], b[c]) != 0 {
			return true
		}
	}
	return false
}

// anyNull reports whether row holds NULL in any of the given columns.
func anyNull(row value.Tuple, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

// boundAtom is one denial atom bound to its table, with the column range it
// occupies in the combined row.
type boundAtom struct {
	rel    string
	table  *storage.Table
	offset int // first column index in the combined schema
	arity  int
	// eqOwn/eqSrc describe equality links to earlier atoms usable for
	// index lookups: own column i must equal combined column eqSrc[i].
	eqOwn []int
	eqSrc []int
	index *storage.Index // index over eqOwn, nil when no links
	// residual conjuncts that become fully bound at this atom
	residual ra.Expr
}

// denialProgram is a compiled enumeration plan for one denial constraint:
// atoms in a fixed order with index links to earlier atoms and residual
// predicates, ready for backtracking enumeration. Compiling the same
// denial under different atom orders lets the incremental detector pin
// any atom position to a freshly inserted row and enumerate only the
// combinations involving it.
type denialProgram struct {
	atoms []*boundAtom
	label string
}

// pinnedRow restricts a program's first atom to a single row instead of a
// table scan — the incremental probe for an insert delta. The tuple is
// carried explicitly so a queued insert can be probed even after the row
// was tombstoned by a later queued delete (the delete delta then removes
// the transient edges again).
type pinnedRow struct {
	ID  storage.RowID
	Row value.Tuple
}

// compileDenial builds the enumeration program for den with atoms taken in
// the given order (a permutation of atom positions; nil means natural
// order). The condition is planned against the reordered combined schema,
// and equality conjuncts linking an atom to earlier atoms become hash
// index lookups.
func compileDenial(db *engine.DB, den constraint.Denial, order []int) (*denialProgram, error) {
	if order == nil {
		order = make([]int, len(den.Atoms))
		for i := range order {
			order[i] = i
		}
	}
	atoms := make([]*boundAtom, len(order))
	combined := schema.Schema{}
	for i, pos := range order {
		a := den.Atoms[pos]
		t, err := db.Table(a.Rel)
		if err != nil {
			return nil, err
		}
		sch := t.Schema().WithQualifier(strings.ToLower(a.Name()))
		atoms[i] = &boundAtom{
			rel:    strings.ToLower(a.Rel),
			table:  t,
			offset: combined.Len(),
			arity:  sch.Len(),
		}
		combined = combined.Concat(sch)
	}
	var cond ra.Expr
	if den.Where != nil {
		var err error
		cond, err = engine.PlanScalar(den.Where, combined)
		if err != nil {
			return nil, fmt.Errorf("conflict: constraint %s: %v", den.Label, err)
		}
	}

	// Distribute conjuncts: an equality between an atom's own column and an
	// earlier atom's column becomes an index link; every other conjunct is
	// evaluated as soon as its last referenced atom is bound.
	atomOf := func(col int) int {
		for i := len(atoms) - 1; i >= 0; i-- {
			if col >= atoms[i].offset {
				return i
			}
		}
		return 0
	}
	for _, c := range ra.Conjuncts(cond) {
		cols := ra.ColumnsUsed(c)
		last := 0
		for _, col := range cols {
			if a := atomOf(col); a > last {
				last = a
			}
		}
		if cmp, ok := c.(ra.Cmp); ok && cmp.Op == ra.EQ && last > 0 {
			lc, lok := cmp.L.(ra.Col)
			rc, rok := cmp.R.(ra.Col)
			if lok && rok {
				li, ri := atomOf(lc.Index), atomOf(rc.Index)
				a := atoms[last]
				var own, src int = -1, -1
				switch {
				case li == last && ri < last:
					own, src = lc.Index-a.offset, rc.Index
				case ri == last && li < last:
					own, src = rc.Index-a.offset, lc.Index
				}
				// A column may back only one index link; further equalities
				// on it stay as residual conjuncts.
				if own >= 0 && !slices.Contains(a.eqOwn, own) {
					a.eqOwn = append(a.eqOwn, own)
					a.eqSrc = append(a.eqSrc, src)
					continue
				}
			}
		}
		atoms[last].residual = ra.Conjoin(atoms[last].residual, c)
	}
	for _, a := range atoms {
		if len(a.eqOwn) == 0 {
			continue
		}
		idx, err := a.table.EnsureIndex(a.eqOwn)
		if err != nil {
			return nil, err
		}
		a.index = idx
		// The index canonicalizes column order; remap eqSrc to match so
		// lookup keys are built in index layout.
		srcByOwn := make(map[int]int, len(a.eqOwn))
		for k, own := range a.eqOwn {
			srcByOwn[own] = a.eqSrc[k]
		}
		a.eqOwn = idx.Columns()
		remapped := make([]int, len(a.eqOwn))
		for k, own := range a.eqOwn {
			remapped[k] = srcByOwn[own]
		}
		a.eqSrc = remapped
	}

	label := den.Label
	if label == "" {
		label = den.String()
	}
	return &denialProgram{atoms: atoms, label: label}, nil
}

// enumerate runs the index-accelerated backtracking join, adding one
// hyperedge per violating tuple combination to h. With a non-nil
// pin, the first atom binds only the pinned row, so only combinations
// involving that row are visited.
func (p *denialProgram) enumerate(h *Hypergraph, stats *DetectStats, pin *pinnedRow) error {
	atoms := p.atoms
	var combinedLen int
	for _, a := range atoms {
		combinedLen += a.arity
	}
	row := make(value.Tuple, 0, combinedLen)
	verts := make([]Vertex, 0, len(atoms))

	var walk func(i int) error
	walk = func(i int) error {
		if i == len(atoms) {
			h.AddEdge(verts, p.label)
			return nil
		}
		a := atoms[i]
		tryRow := func(id storage.RowID, r value.Tuple) error {
			stats.Combinations++
			row = append(row, r...)
			verts = append(verts, Vertex{Rel: a.rel, Row: id})
			defer func() {
				row = row[:len(row)-len(r)]
				verts = verts[:len(verts)-1]
			}()
			if a.residual != nil {
				pass, err := ra.EvalPredicate(a.residual, row)
				if err != nil {
					return err
				}
				if !pass {
					return nil
				}
			}
			return walk(i + 1)
		}
		if i == 0 && pin != nil {
			return tryRow(pin.ID, pin.Row)
		}
		if a.index != nil {
			key := make(value.Tuple, len(a.eqSrc))
			for k, src := range a.eqSrc {
				if row[src].IsNull() {
					// The link's equality is unknown, never true: no
					// row of this atom completes a violation.
					return nil
				}
				key[k] = row[src]
			}
			for _, id := range a.index.Lookup(key) {
				r, ok := a.table.Row(id)
				if !ok {
					continue
				}
				if err := tryRow(id, r); err != nil {
					return err
				}
			}
			return nil
		}
		return a.table.Scan(tryRow)
	}
	return walk(0)
}

func resolveCols(sch schema.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx, err := sch.Resolve("", n)
		if err != nil {
			return nil, err
		}
		out[i] = idx
	}
	return out, nil
}
