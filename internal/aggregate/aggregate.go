// Package aggregate implements range-consistent answers to scalar
// aggregation queries over inconsistent databases, following the
// framework of the paper's reference [3] (Arenas, Bertossi, Chomicki, He,
// Raghavan & Spinrad, "Scalar Aggregation in Inconsistent Databases",
// TCS 296(3), 2003): since an aggregate generally has a different value
// in each repair, the consistent answer is the tightest interval
// [glb, lub] containing the aggregate's value over every repair.
//
// The implementation covers MIN, MAX, SUM, and COUNT over one relation
// with a single functional dependency X → Y and an optional selection
// predicate. Under one FD the repairs factor into independent per-group
// choices — each X-group keeps exactly one of its Y-partitions — which
// makes all four bounds computable in a single scan (the polynomial cases
// of [3]); AVG, shown harder in [3], is intentionally not offered.
//
// NULLs follow the three-valued semantics of the FD's denial constraint,
// as conflict detection does: a tuple with a NULL in X, or in a
// single-column Y, conflicts with nothing and is kept by every repair.
// With a multi-column Y a NULL component leaves the conflicts
// non-transitive, so the per-group decomposition does not apply and
// Consistent reports an error instead of a range.
package aggregate

import (
	"fmt"
	"strings"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// Func enumerates the supported aggregate functions.
type Func int

// Supported aggregates.
const (
	Count Func = iota // COUNT(*) over qualifying tuples
	Sum
	Min
	Max
)

// String returns the SQL name of the function.
func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	default:
		return "MAX"
	}
}

// Range is a range-consistent answer: the aggregate's value lies in
// [Lower, Upper] in every repair where it is defined.
//
// MayBeEmpty reports that some repair has no qualifying tuples at all; in
// such repairs MIN/MAX are undefined (SQL NULL) and SUM/COUNT are 0 (this
// implementation's convention, noted in DESIGN.md). For MIN/MAX the
// bounds then range over the repairs where the aggregate is defined.
type Range struct {
	Lower      value.Value
	Upper      value.Value
	MayBeEmpty bool
}

// String renders the range as [lo, hi].
func (r Range) String() string {
	s := fmt.Sprintf("[%s, %s]", r.Lower, r.Upper)
	if r.MayBeEmpty {
		s += " (may be empty)"
	}
	return s
}

// Query describes one aggregation request.
type Query struct {
	Rel  string
	Fn   Func
	Attr string // aggregated column; ignored for COUNT
	// Where optionally filters tuples first (SQL expression over the
	// relation's columns, e.g. "salary > 100").
	Where string
	// FD is the functional dependency inducing the conflicts. Its
	// relation must equal Rel, and it must be the only constraint
	// considered — the decomposition is specific to a single FD.
	FD constraint.FD
}

// Consistent computes the range-consistent answer to q over the committed
// cut snap.
func Consistent(snap *engine.Snapshot, q Query) (Range, error) {
	r, err := resolve(snap, q)
	if err != nil {
		return Range{}, err
	}
	return r.bound(r.pred)
}

// resolved is a Query checked and bound to its table: the FD's column
// positions, the aggregated column's position (-1 for COUNT) and the
// planned filter.
type resolved struct {
	fn       Func
	t        *storage.TableSnapshot
	lhs, rhs []int
	attrIdx  int
	pred     ra.Expr
}

// resolve validates q against snap and binds it to its table. Consistent
// and ConsistentGrouped share it, so both reject the same queries.
func resolve(snap *engine.Snapshot, q Query) (*resolved, error) {
	if !strings.EqualFold(q.FD.Rel, q.Rel) {
		return nil, fmt.Errorf("aggregate: FD is on %q, query on %q", q.FD.Rel, q.Rel)
	}
	t, err := snap.Table(q.Rel)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	r := &resolved{fn: q.Fn, t: t, attrIdx: -1}
	if r.lhs, err = resolveCols(sch, q.FD.LHS); err != nil {
		return nil, err
	}
	if r.rhs, err = resolveCols(sch, q.FD.RHS); err != nil {
		return nil, err
	}
	if q.Fn != Count {
		if r.attrIdx, err = sch.Resolve("", q.Attr); err != nil {
			return nil, err
		}
		kind := sch.Columns[r.attrIdx].Type
		if kind != value.KindInt && kind != value.KindFloat {
			return nil, fmt.Errorf("aggregate: %s(%s) requires a numeric column, got %s",
				q.Fn, q.Attr, kind)
		}
	}
	if q.Where != "" {
		parsed, err := parseWhere(q.Rel, q.Where)
		if err != nil {
			return nil, err
		}
		if r.pred, err = engine.PlanScalar(parsed, sch); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// bound computes the aggregate's range over the tuples pred accepts.
func (r *resolved) bound(pred ra.Expr) (Range, error) {
	groups, err := partition(r.t, r.lhs, r.rhs, r.attrIdx, pred)
	if err != nil {
		return Range{}, err
	}
	switch r.fn {
	case Count:
		return rangeCount(groups), nil
	case Sum:
		return rangeSum(groups), nil
	case Min:
		return rangeMinMax(groups, true), nil
	default:
		return rangeMinMax(groups, false), nil
	}
}

// part summarizes one Y-partition of an X-group over qualifying tuples.
type part struct {
	count int
	sum   float64
	min   float64
	max   float64
	// anyFloat records whether any contributing value was FLOAT, to
	// render integer results without a decimal point when possible.
	anyFloat bool
}

// group is one X-group: the repair keeps exactly one of its partitions.
type group struct {
	parts []part
}

// partition scans the table once, bucketing tuples by (LHS, RHS) keys.
// Partitions whose tuples all fail the predicate still appear with
// count 0 — they are legal repair choices that contribute nothing. A
// tuple that conflicts with nothing because of a NULL (see the package
// comment) is a group of its own.
func partition(t *storage.TableSnapshot, lhs, rhs []int, attrIdx int, pred ra.Expr) ([]group, error) {
	groupIdx := map[string]int{}
	partIdx := map[string]int{}
	var groups []group
	err := t.Scan(func(_ storage.RowID, row value.Tuple) error {
		var gi, pi int
		lhsNull, rhsNull := hasNull(row, lhs), hasNull(row, rhs)
		switch {
		case lhsNull || rhsNull && len(rhs) == 1:
			gi = len(groups)
			groups = append(groups, group{parts: []part{{}}})
		case rhsNull:
			return fmt.Errorf("aggregate: NULL in the multi-column FD right-hand side of tuple %s", value.TupleString(row))
		default:
			gk := value.KeyOf(row, lhs)
			var ok bool
			gi, ok = groupIdx[gk]
			if !ok {
				gi = len(groups)
				groupIdx[gk] = gi
				groups = append(groups, group{})
			}
			pk := gk + "\x00" + value.KeyOf(row, rhs)
			pi, ok = partIdx[pk]
			if !ok {
				pi = len(groups[gi].parts)
				partIdx[pk] = pi
				groups[gi].parts = append(groups[gi].parts, part{})
			}
		}
		qualifies := true
		if pred != nil {
			var err error
			qualifies, err = ra.EvalPredicate(pred, row)
			if err != nil {
				return err
			}
		}
		if !qualifies {
			return nil
		}
		p := &groups[gi].parts[pi]
		p.count++
		if attrIdx >= 0 {
			v := row[attrIdx]
			if v.IsNull() {
				// SQL aggregates skip NULLs.
				p.count-- // COUNT here counts contributing values only when aggregating a column
				return nil
			}
			f := v.AsFloat()
			if v.K == value.KindFloat {
				p.anyFloat = true
			}
			if p.count == 1 || f < p.min {
				p.min = f
			}
			if p.count == 1 || f > p.max {
				p.max = f
			}
			p.sum += f
		}
		return nil
	})
	return groups, err
}

// rangeCount: every repair picks one partition per group; counts add up.
func rangeCount(groups []group) Range {
	lo, hi := 0, 0
	mayBeEmpty := true
	for _, g := range groups {
		gmin, gmax := g.parts[0].count, g.parts[0].count
		for _, p := range g.parts[1:] {
			if p.count < gmin {
				gmin = p.count
			}
			if p.count > gmax {
				gmax = p.count
			}
		}
		lo += gmin
		hi += gmax
		if gmin > 0 {
			mayBeEmpty = false
		}
	}
	if len(groups) == 0 {
		return Range{Lower: value.Int(0), Upper: value.Int(0), MayBeEmpty: true}
	}
	return Range{Lower: value.Int(int64(lo)), Upper: value.Int(int64(hi)), MayBeEmpty: mayBeEmpty}
}

// rangeSum: sums decompose over groups (an all-unqualifying partition
// contributes 0).
func rangeSum(groups []group) Range {
	var lo, hi float64
	anyFloat := false
	mayBeEmpty := true
	for _, g := range groups {
		first := true
		var gmin, gmax float64
		allPartsQualify := true
		for _, p := range g.parts {
			s := p.sum
			if p.anyFloat {
				anyFloat = true
			}
			if p.count == 0 {
				allPartsQualify = false
			}
			if first || s < gmin {
				gmin = s
			}
			if first || s > gmax {
				gmax = s
			}
			first = false
		}
		lo += gmin
		hi += gmax
		if allPartsQualify && len(g.parts) > 0 {
			mayBeEmpty = false
		}
	}
	if len(groups) == 0 {
		return Range{Lower: value.Int(0), Upper: value.Int(0), MayBeEmpty: true}
	}
	return Range{Lower: numeric(lo, anyFloat), Upper: numeric(hi, anyFloat), MayBeEmpty: mayBeEmpty}
}

// rangeMinMax handles MIN (isMin=true) and MAX by symmetry. The bounds
// range over repairs where at least one qualifying non-NULL value
// survives.
//
// For MIN, the lower bound is the global minimum over qualifying values
// (pick that tuple's partition; nothing can be smaller). The upper bound
// is adversarial: every group that can pick a partition with no
// qualifying values ("escape") does so; a group that cannot escape
// contributes at best the maximum over its partitions of the partition
// minimum; if every active group can escape, the single best group
// decides. MAX is the mirror image.
func rangeMinMax(groups []group, isMin bool) Range {
	better := func(a, b float64) bool { // a is better than b for the aggregate
		if isMin {
			return a < b
		}
		return a > b
	}
	var (
		anyQual    bool
		anyFloat   bool
		globalBest float64 // best (min for MIN) over all qualifying values
		mustAdv    float64 // adversarial bound over groups that must contribute
		mustSeen   bool
		escAdv     float64 // best adversarial value among escapable groups
		escSeen    bool
		mayBeEmpty = true
	)
	for _, g := range groups {
		var (
			adv      float64 // adversary's pick for this group
			advSeen  bool
			canEsc   bool
			isActive bool
		)
		for _, p := range g.parts {
			if p.count == 0 {
				canEsc = true
				continue
			}
			isActive = true
			if p.anyFloat {
				anyFloat = true
			}
			v := p.min // per-partition aggregate
			if !isMin {
				v = p.max
			}
			if !anyQual || better(v, globalBest) {
				globalBest = v
			}
			anyQual = true
			// The adversary picks the partition whose aggregate is WORST
			// for us (largest partition-min for MIN).
			if !advSeen || better(adv, v) {
				adv = v
			}
			advSeen = true
		}
		if !isActive {
			continue
		}
		if !canEsc {
			mayBeEmpty = false
			// Among must-contribute groups, the overall aggregate is bound
			// by the one whose adversarial value is best for us.
			if !mustSeen || better(adv, mustAdv) {
				mustAdv = adv
			}
			mustSeen = true
		} else if !escSeen || better(escAdv, adv) {
			// Among escapable groups, the adversary would keep only the
			// one whose value is worst for us.
			escAdv = adv
		}
		if canEsc {
			escSeen = true
		}
	}
	if !anyQual {
		return Range{Lower: value.Null(), Upper: value.Null(), MayBeEmpty: true}
	}
	adversarial := escAdv
	if mustSeen {
		adversarial = mustAdv
	}
	lo, hi := globalBest, adversarial
	if !isMin {
		lo, hi = adversarial, globalBest
	}
	return Range{Lower: numeric(lo, anyFloat), Upper: numeric(hi, anyFloat), MayBeEmpty: mayBeEmpty}
}

func numeric(f float64, anyFloat bool) value.Value {
	if !anyFloat && f == float64(int64(f)) {
		return value.Int(int64(f))
	}
	return value.Float(f)
}

// parseWhere parses a bare filter expression against a relation.
func parseWhere(rel, where string) (sqlparse.Expr, error) {
	parsed, err := sqlparse.ParseQuery("SELECT * FROM " + rel + " WHERE " + where)
	if err != nil {
		return nil, fmt.Errorf("aggregate: bad WHERE %q: %v", where, err)
	}
	return parsed.Left.Where, nil
}

// scanQualifying calls fn for every live row passing pred.
func scanQualifying(t *storage.TableSnapshot, pred ra.Expr, fn func(row value.Tuple)) error {
	return t.Scan(func(_ storage.RowID, row value.Tuple) error {
		if pred != nil {
			ok, err := ra.EvalPredicate(pred, row)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		fn(row)
		return nil
	})
}

// hasNull reports whether any of row's cols is NULL.
func hasNull(row value.Tuple, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
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
