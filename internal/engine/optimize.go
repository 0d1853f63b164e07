package engine

import (
	"math"

	"hippo/internal/ra"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// optimize is the engine's full planning pipeline: semi/anti-join
// selection pushdown, then the cost-based stage (predicate pushdown,
// product-to-join conversion, join ordering — see costplan.go), then
// access-path selection. The pushdown runs again after costPlan, which
// lands single-input join conjuncts directly above an opaque SemiJoin or
// AntiJoin input; without the second pass a join's range filter would sit
// above the residue and the anti-join would probe the whole relation.
func optimize(n ra.Node) ra.Node {
	return accessPaths(pushMatchSelects(costPlan(pushMatchSelects(n))))
}

// pushMatchSelects pushes a Select through the left input of SemiJoin and
// AntiJoin nodes. Both emit a subset of their left input's rows with the
// left input's schema unchanged, so a filter above them binds identically
// below — and filtering first shrinks the probe side of the match.
// costPlan treats SemiJoin/AntiJoin as opaque (it clones them
// structurally), so without this pass a residue-rewritten plan
// Select(AntiJoin(Scan, ...)) anti-joins the full relation before
// filtering.
func pushMatchSelects(n ra.Node) ra.Node {
	switch t := n.(type) {
	case *ra.Select:
		child := pushMatchSelects(t.Child)
		switch m := child.(type) {
		case *ra.SemiJoin:
			return &ra.SemiJoin{L: pushMatchSelects(&ra.Select{Child: m.L, Pred: t.Pred}), R: m.R, Pred: m.Pred}
		case *ra.AntiJoin:
			return &ra.AntiJoin{L: pushMatchSelects(&ra.Select{Child: m.L, Pred: t.Pred}), R: m.R, Pred: m.Pred}
		}
		return &ra.Select{Child: child, Pred: t.Pred}
	case *ra.Project:
		return &ra.Project{Child: pushMatchSelects(t.Child), Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}
	case *ra.Product:
		return &ra.Product{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R)}
	case *ra.Join:
		return &ra.Join{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R), Pred: t.Pred}
	case *ra.SemiJoin:
		return &ra.SemiJoin{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R), Pred: t.Pred}
	case *ra.AntiJoin:
		return &ra.AntiJoin{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R), Pred: t.Pred}
	case *ra.Union:
		return &ra.Union{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R)}
	case *ra.Diff:
		return &ra.Diff{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R)}
	case *ra.Intersect:
		return &ra.Intersect{L: pushMatchSelects(t.L), R: pushMatchSelects(t.R)}
	case *ra.DistinctNode:
		return &ra.DistinctNode{Child: pushMatchSelects(t.Child)}
	case *ra.Sort:
		return &ra.Sort{Child: pushMatchSelects(t.Child), Keys: t.Keys}
	case *ra.Limit:
		return &ra.Limit{Child: pushMatchSelects(t.Child), N: t.N}
	default:
		return n
	}
}

// Optimize exposes the engine's physical planner: it turns a logical plan
// into the executable plan RunPlan would run, for callers that open the
// iterator tree themselves (streaming evaluation) or want to inspect the
// chosen shape.
func Optimize(plan ra.Node) ra.Node { return optimize(plan) }

// accessPaths applies access-path selection to a plan: a Select over a
// Scan whose predicate contains constant equality conjuncts covering an
// existing index of the table is rewritten to an IndexLookup plus a
// residual Select. Only indexes that already exist are used (CREATE INDEX
// or earlier conflict analysis creates them); the optimizer never builds
// one speculatively.
func accessPaths(n ra.Node) ra.Node {
	switch t := n.(type) {
	case *ra.Select:
		child := accessPaths(t.Child)
		if scan, ok := child.(*ra.Scan); ok {
			if rewritten, ok := tryIndexLookup(scan, t.Pred); ok {
				return rewritten
			}
		}
		return &ra.Select{Child: child, Pred: t.Pred}
	case *ra.Project:
		return &ra.Project{Child: accessPaths(t.Child), Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}
	case *ra.Product:
		return &ra.Product{L: accessPaths(t.L), R: accessPaths(t.R)}
	case *ra.Join:
		return &ra.Join{L: accessPaths(t.L), R: accessPaths(t.R), Pred: t.Pred}
	case *ra.SemiJoin:
		return &ra.SemiJoin{L: accessPaths(t.L), R: accessPaths(t.R), Pred: t.Pred}
	case *ra.AntiJoin:
		return &ra.AntiJoin{L: accessPaths(t.L), R: accessPaths(t.R), Pred: t.Pred}
	case *ra.Union:
		return &ra.Union{L: accessPaths(t.L), R: accessPaths(t.R)}
	case *ra.Diff:
		return &ra.Diff{L: accessPaths(t.L), R: accessPaths(t.R)}
	case *ra.Intersect:
		return &ra.Intersect{L: accessPaths(t.L), R: accessPaths(t.R)}
	case *ra.DistinctNode:
		return &ra.DistinctNode{Child: accessPaths(t.Child)}
	case *ra.Sort:
		return &ra.Sort{Child: accessPaths(t.Child), Keys: t.Keys}
	case *ra.Limit:
		return &ra.Limit{Child: accessPaths(t.Child), N: t.N}
	default:
		return n
	}
}

// tryIndexLookup finds the widest existing index whose columns are all
// constrained by constant equality conjuncts of pred.
func tryIndexLookup(scan *ra.Scan, pred ra.Expr) (ra.Node, bool) {
	ch, ok := chooseIndex(scan.Table, pred)
	if !ok {
		return nil, false
	}
	key := make([]ra.Expr, len(ch.key))
	for i, v := range ch.key {
		key[i] = ra.Const{V: v}
	}
	var node ra.Node = &ra.IndexLookup{
		Table: scan.Table,
		Index: ch.idx,
		Key:   key,
		Alias: scan.Alias,
	}
	if p := ra.Conjoin(ch.residual...); p != nil {
		node = &ra.Select{Child: node, Pred: p}
	}
	return node, true
}

// indexChoice is an access path for a predicate: an existing index, the
// key its covered equalities pin (in index column order), and the
// conjuncts the index does not absorb.
type indexChoice struct {
	idx      *storage.Index
	key      value.Tuple
	residual []ra.Expr
}

// chooseIndex picks the widest existing index of rel whose columns are all
// pinned by constant equality conjuncts of pred. An index bucket holds
// exactly the rows the equalities accept only when key equality agrees
// with the comparison operator; a constant for which it may not (see
// keyExact) is left to the residual filter.
func chooseIndex(rel storage.Relation, pred ra.Expr) (indexChoice, bool) {
	cols := rel.Schema().Columns
	constsByCol := map[int]value.Value{}
	var residual []ra.Expr
	for _, c := range ra.Conjuncts(pred) {
		if cmp, ok := c.(ra.Cmp); ok && cmp.Op == ra.EQ {
			if col, cv, ok := colConstPair(cmp); ok && keyExact(cv, cols[col].Type) {
				if prev, seen := constsByCol[col]; !seen {
					constsByCol[col] = cv
					continue
				} else if value.Equal(prev, cv) {
					continue // duplicate constraint
				}
				// Contradictory equalities; leave to the residual filter.
			}
		}
		residual = append(residual, c)
	}
	if len(constsByCol) == 0 {
		return indexChoice{}, false
	}
	var best *storage.Index
	for _, idx := range rel.Indexes() {
		covered := true
		for _, c := range idx.Columns() {
			if _, ok := constsByCol[c]; !ok {
				covered = false
				break
			}
		}
		if covered && (best == nil || len(idx.Columns()) > len(best.Columns())) {
			best = idx
		}
	}
	if best == nil {
		return indexChoice{}, false
	}
	key := make(value.Tuple, len(best.Columns()))
	used := map[int]bool{}
	for i, c := range best.Columns() {
		key[i] = constsByCol[c]
		used[c] = true
	}
	// Equality conjuncts not absorbed by the index stay as residual filters.
	for col, cv := range constsByCol {
		if !used[col] {
			residual = append(residual, ra.Cmp{Op: ra.EQ, L: ra.Col{Index: col}, R: ra.Const{V: cv}})
		}
	}
	return indexChoice{idx: best, key: key, residual: residual}, true
}

// keyExact reports whether, against a column of kind col, c = x holds
// exactly when c and x have the same value.Key. Otherwise an index probe
// could disagree with evaluating the predicate: an incomparable constant
// makes the comparison an error rather than no match, a NaN compares
// equal to every number, and INT/FLOAT comparison rounds through float64,
// which conflates distinct integers beyond 2^53.
func keyExact(c value.Value, col value.Kind) bool {
	switch {
	case !value.Comparable(c.K, col):
		return false
	case c.K == value.KindFloat && math.IsNaN(c.F):
		return false
	case c.K != col:
		return math.Abs(c.AsFloat()) < 1<<53
	}
	return true
}

// colConstPair extracts (column index, constant) from an equality.
func colConstPair(cmp ra.Cmp) (int, value.Value, bool) {
	if col, ok := cmp.L.(ra.Col); ok {
		if c, ok := cmp.R.(ra.Const); ok && !c.V.IsNull() {
			return col.Index, c.V, true
		}
	}
	if col, ok := cmp.R.(ra.Col); ok {
		if c, ok := cmp.L.(ra.Const); ok && !c.V.IsNull() {
			return col.Index, c.V, true
		}
	}
	return 0, value.Value{}, false
}
