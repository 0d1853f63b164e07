package ra

import "hippo/internal/storage"

// Cardinality estimation for cost-based planning. Estimates flow from the
// storage layer's TableStats (exact row counts, sampled per-column
// distinct counts) up through the operators with textbook selectivity
// rules. They are deliberately coarse: the planner only uses them to
// order joins, choose hash-join build sides, and decide where predicates
// pay off — all decisions that tolerate large estimation error as long as
// the ordering of magnitudes is right.

// CardEstimator is implemented by operators defined outside this package
// that can estimate their own output cardinality (negative when unknown).
// The estimator consults it for node types it does not know.
type CardEstimator interface {
	EstimateCard() int64
}

// EstimateCard returns the estimated output cardinality of a plan, or -1
// when the plan contains a node shape the estimator does not know (the
// planner then falls back deterministically to the written order).
func EstimateCard(n Node) int64 {
	f := estimateF(n)
	if f < 0 {
		return -1
	}
	if f > 1e18 {
		return int64(1e18)
	}
	return int64(f)
}

func estimateF(n Node) float64 {
	switch t := n.(type) {
	case *Scan:
		return float64(t.Table.Len())
	case *IndexLookup:
		rows := float64(t.Table.Len())
		if d := maxDistinct(t.Table.Stats(), t.Index.Columns()); d > 0 {
			return rows / float64(d)
		}
		return rows
	case *Select:
		c := estimateF(t.Child)
		if c < 0 {
			return -1
		}
		return c * selectivity(t.Pred, t.Child)
	case *Project:
		return estimateF(t.Child)
	case *DistinctNode:
		return estimateF(t.Child)
	case *Product:
		l, r := estimateF(t.L), estimateF(t.R)
		if l < 0 || r < 0 {
			return -1
		}
		return l * r
	case *Join:
		l, r := estimateF(t.L), estimateF(t.R)
		if l < 0 || r < 0 {
			return -1
		}
		if t.Pred == nil {
			return l * r
		}
		return l * r * selectivity(t.Pred, &Product{L: t.L, R: t.R})
	case *SemiJoin, *AntiJoin:
		return estimateF(n.Children()[0])
	case *Union:
		l, r := estimateF(t.L), estimateF(t.R)
		if l < 0 || r < 0 {
			return -1
		}
		return l + r
	case *Diff:
		return estimateF(t.L)
	case *Intersect:
		l, r := estimateF(t.L), estimateF(t.R)
		if l < 0 || r < 0 {
			return -1
		}
		if r < l {
			return r
		}
		return l
	case *Values:
		return float64(len(t.Rows))
	case *Sort:
		return estimateF(t.Child)
	case *Limit:
		c := estimateF(t.Child)
		if c < 0 {
			return -1
		}
		if float64(t.N) < c {
			return float64(t.N)
		}
		return c
	case CardEstimator:
		if c := t.EstimateCard(); c >= 0 {
			return float64(c)
		}
		return -1
	default:
		return -1
	}
}

// distinctAt returns the estimated distinct count of output column idx of
// n, or 0 when unknown. Resolution follows column identity through the
// operators that preserve it.
func distinctAt(n Node, idx int) int {
	switch t := n.(type) {
	case *Scan:
		st := t.Table.Stats()
		if idx >= 0 && idx < len(st.Distinct) {
			return st.Distinct[idx]
		}
	case *IndexLookup:
		st := t.Table.Stats()
		if idx >= 0 && idx < len(st.Distinct) {
			return st.Distinct[idx]
		}
	case *Select:
		return distinctAt(t.Child, idx)
	case *DistinctNode:
		return distinctAt(t.Child, idx)
	case *Sort:
		return distinctAt(t.Child, idx)
	case *Limit:
		return distinctAt(t.Child, idx)
	case *Project:
		if idx >= 0 && idx < len(t.Exprs) {
			if c, ok := t.Exprs[idx].(Col); ok {
				return distinctAt(t.Child, c.Index)
			}
		}
	case *Product:
		la := t.L.Schema().Len()
		if idx < la {
			return distinctAt(t.L, idx)
		}
		return distinctAt(t.R, idx-la)
	case *Join:
		la := t.L.Schema().Len()
		if idx < la {
			return distinctAt(t.L, idx)
		}
		return distinctAt(t.R, idx-la)
	case *SemiJoin:
		return distinctAt(t.L, idx)
	case *AntiJoin:
		return distinctAt(t.L, idx)
	}
	return 0
}

// maxDistinct returns the largest per-column distinct estimate among
// cols (0 if none known).
func maxDistinct(st storage.TableStats, cols []int) int {
	max := 0
	for _, c := range cols {
		if c >= 0 && c < len(st.Distinct) && st.Distinct[c] > max {
			max = st.Distinct[c]
		}
	}
	return max
}

// selectivity estimates the fraction of child rows a predicate keeps,
// clamped to [0, 1].
func selectivity(e Expr, child Node) float64 {
	s := rawSelectivity(e, child)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func rawSelectivity(e Expr, child Node) float64 {
	switch t := e.(type) {
	case And:
		return rawSelectivity(t.L, child) * rawSelectivity(t.R, child)
	case Or:
		a, b := selectivity(t.L, child), selectivity(t.R, child)
		return a + b - a*b
	case Not:
		return 1 - selectivity(t.E, child)
	case IsNull:
		if t.Negate {
			return 0.9
		}
		return 0.1
	case Cmp:
		switch t.Op {
		case EQ:
			return eqSelectivity(t, child)
		case NE:
			return 1 - eqSelectivity(t, child)
		case LT, LE, GT, GE:
			return 1.0 / 3
		}
	}
	return 1.0 / 3
}

// eqSelectivity estimates an equality: 1/distinct when a side's distinct
// count is known, the textbook 1/10 otherwise.
func eqSelectivity(c Cmp, child Node) float64 {
	d := 0
	if col, ok := c.L.(Col); ok {
		d = distinctAt(child, col.Index)
	}
	if col, ok := c.R.(Col); ok {
		if d2 := distinctAt(child, col.Index); d2 > d {
			d = d2
		}
	}
	if d > 0 {
		return 1 / float64(d)
	}
	return 0.1
}
