package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"hippo/internal/ra"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
)

// Snapshot is an immutable point-in-time view of the whole database: one
// TableSnapshot per table, taken at a single consistent cut. Any number
// of goroutines can plan and run queries against it without locking,
// concurrently with live writers. Query executions still count toward the
// parent database's query counter.
type Snapshot struct {
	db     *DB
	tables map[string]*storage.TableSnapshot
	names  []string // sorted
}

// Snapshot takes a consistent snapshot of every table. It briefly freezes
// writers to establish the cut; use SnapshotFrozen when the caller
// already holds FreezeWrites.
func (db *DB) Snapshot() *Snapshot {
	release := db.FreezeWrites()
	defer release()
	return db.SnapshotFrozen()
}

// SnapshotFrozen snapshots every table without acquiring the write
// sequencer; the caller must hold FreezeWrites (or otherwise guarantee no
// writer is active).
func (db *DB) SnapshotFrozen() *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := &Snapshot{
		db:     db,
		tables: make(map[string]*storage.TableSnapshot, len(db.tables)),
		names:  make([]string, 0, len(db.tables)),
	}
	for name, t := range db.tables {
		s.tables[name] = t.Snapshot()
		s.names = append(s.names, name)
	}
	slices.Sort(s.names)
	return s
}

// TableNames returns the sorted names of all tables in the snapshot.
func (s *Snapshot) TableNames() []string { return s.names }

// Table returns the named table snapshot.
func (s *Snapshot) Table(name string) (*storage.TableSnapshot, error) {
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no such table %q in snapshot", name)
	}
	return t, nil
}

// Tables returns the snapshot's tables keyed by lowercased name. The map
// must not be mutated.
func (s *Snapshot) Tables() map[string]*storage.TableSnapshot { return s.tables }

// Relation returns the named table snapshot as a storage.Relation,
// satisfying the planner's catalog interface (shared with DB).
func (s *Snapshot) Relation(name string) (storage.Relation, error) {
	return s.Table(name)
}

// PlanQuery translates a parsed query into a plan bound to the snapshot.
func (s *Snapshot) PlanQuery(q *sqlparse.Query) (ra.Node, error) {
	return planQuery(s, q)
}

// RunPlan executes a plan through the full planner (cost-based stage plus
// access paths) and materializes the result.
func (s *Snapshot) RunPlan(plan ra.Node) (*Result, error) {
	return s.RunPlanContext(context.Background(), plan)
}

// RunPlanContext is RunPlan under ctx: evaluation aborts within a bounded
// number of rows of the context being cancelled or its deadline passing.
func (s *Snapshot) RunPlanContext(ctx context.Context, plan ra.Node) (*Result, error) {
	rows, err := ra.Materialize(ctx, optimize(plan))
	if err != nil {
		return nil, err
	}
	return &Result{Schema: plan.Schema(), Rows: rows}, nil
}

// RunPlanRaw executes a plan without any optimization: the plan runs
// exactly as given, with no pushdown, join ordering or access-path choice.
func (s *Snapshot) RunPlanRaw(plan ra.Node) (*Result, error) {
	return s.RunPlanRawContext(context.Background(), plan)
}

// RunPlanRawContext is RunPlanRaw under ctx.
func (s *Snapshot) RunPlanRawContext(ctx context.Context, plan ra.Node) (*Result, error) {
	rows, err := ra.Materialize(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: plan.Schema(), Rows: rows}, nil
}

// OpenPlan opens the iterator tree of an already-physical plan (as
// produced by Optimize) under ctx, so the caller can consume rows
// incrementally and feed them into downstream work while evaluation is
// still running. The caller must Close the iterator; cancelling ctx stops
// leaf iterators within a bounded number of rows.
func (s *Snapshot) OpenPlan(ctx context.Context, phys ra.Node) (ra.Iterator, error) {
	return phys.Open(ctx)
}

// Query parses, plans, and executes a SELECT against the snapshot.
func (s *Snapshot) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query under ctx (see RunPlanContext).
func (s *Snapshot) QueryContext(ctx context.Context, sql string) (*Result, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	plan, err := s.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return s.RunPlanContext(ctx, plan)
}

// NumSlabs returns the total number of row slabs the snapshot references.
func (s *Snapshot) NumSlabs() int {
	n := 0
	for _, t := range s.tables {
		n += t.NumSlabs()
	}
	return n
}

// RetiredSlabs counts the slabs this snapshot references that a newer
// snapshot no longer shares — i.e. the memory that becomes reclaimable
// once no reader pins this snapshot's epoch.
func (s *Snapshot) RetiredSlabs(next *Snapshot) int {
	if next == nil {
		return s.NumSlabs()
	}
	n := 0
	for name, t := range s.tables {
		n += t.NumSlabs() - t.SharedSlabs(next.tables[name])
	}
	return n
}

// Rebind rewrites every base-relation access of a logical plan to the
// same-named relation of cat, leaving all other operators intact. The
// Hippo core uses it to evaluate plans that were bound to live tables
// against a pinned snapshot instead. Physical access paths (IndexLookup)
// cannot be rebound — they reference an index of the original relation —
// so plans must be logical (as produced by PlanQuery).
func Rebind(plan ra.Node, cat catalog) (ra.Node, error) {
	return rebind(plan, cat)
}

func rebind(n ra.Node, cat catalog) (ra.Node, error) {
	switch t := n.(type) {
	case *ra.Scan:
		rel, err := cat.Relation(t.Table.Name())
		if err != nil {
			return nil, err
		}
		return &ra.Scan{Table: rel, Alias: t.Alias}, nil
	case *ra.IndexLookup:
		return nil, fmt.Errorf("engine: cannot rebind physical plan node %s", t)
	case *ra.Select:
		c, err := rebind(t.Child, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Select{Child: c, Pred: t.Pred}, nil
	case *ra.Project:
		c, err := rebind(t.Child, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Project{Child: c, Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}, nil
	case *ra.Product:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Product{L: l, R: r}, nil
	case *ra.Join:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Join{L: l, R: r, Pred: t.Pred}, nil
	case *ra.SemiJoin:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.SemiJoin{L: l, R: r, Pred: t.Pred}, nil
	case *ra.AntiJoin:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.AntiJoin{L: l, R: r, Pred: t.Pred}, nil
	case *ra.Union:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Union{L: l, R: r}, nil
	case *ra.Diff:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Diff{L: l, R: r}, nil
	case *ra.Intersect:
		l, r, err := rebind2(t.L, t.R, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Intersect{L: l, R: r}, nil
	case *ra.DistinctNode:
		c, err := rebind(t.Child, cat)
		if err != nil {
			return nil, err
		}
		return &ra.DistinctNode{Child: c}, nil
	case *ra.Sort:
		c, err := rebind(t.Child, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Sort{Child: c, Keys: t.Keys}, nil
	case *ra.Limit:
		c, err := rebind(t.Child, cat)
		if err != nil {
			return nil, err
		}
		return &ra.Limit{Child: c, N: t.N}, nil
	default:
		// Leaf nodes without base-relation access (e.g. Values) pass
		// through unchanged.
		return n, nil
	}
}

func rebind2(l, r ra.Node, cat catalog) (ra.Node, ra.Node, error) {
	nl, err := rebind(l, cat)
	if err != nil {
		return nil, nil, err
	}
	nr, err := rebind(r, cat)
	if err != nil {
		return nil, nil, err
	}
	return nl, nr, nil
}
