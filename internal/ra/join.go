package ra

import (
	"context"
	"fmt"

	"hippo/internal/schema"
	"hippo/internal/value"
)

// equiPairs extracts the equality conjuncts of pred that compare a pure
// left-side column with a pure right-side column (given the arity split),
// returning the paired column positions (right positions are relative to
// the right input) and the residual predicate combining all remaining
// conjuncts (nil if none).
func equiPairs(pred Expr, leftArity int) (leftCols, rightCols []int, residual Expr) {
	var rest []Expr
	for _, c := range Conjuncts(pred) {
		cmp, ok := c.(Cmp)
		if !ok || cmp.Op != EQ {
			rest = append(rest, c)
			continue
		}
		lc, lok := cmp.L.(Col)
		rc, rok := cmp.R.(Col)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		switch {
		case lc.Index < leftArity && rc.Index >= leftArity:
			leftCols = append(leftCols, lc.Index)
			rightCols = append(rightCols, rc.Index-leftArity)
		case rc.Index < leftArity && lc.Index >= leftArity:
			leftCols = append(leftCols, rc.Index)
			rightCols = append(rightCols, lc.Index-leftArity)
		default:
			rest = append(rest, c)
		}
	}
	return leftCols, rightCols, Conjoin(rest...)
}

// hashPartition builds a hash table over rows keyed by the given columns.
// A row with a NULL key column is left out: its equality conjunct is
// unknown, never true, so it matches nothing.
func hashPartition(rows []value.Tuple, cols []int) map[string][]value.Tuple {
	m := make(map[string][]value.Tuple, len(rows))
	for _, r := range rows {
		if k, ok := hashKey(r, cols); ok {
			m[k] = append(m[k], r)
		}
	}
	return m
}

// hashKey encodes a row's equi-join key; ok is false when a key column is
// NULL, so the row can match no other row (the nested-loop path's
// three-valued Cmp agrees).
func hashKey(row value.Tuple, cols []int) (key string, ok bool) {
	for _, c := range cols {
		if row[c].IsNull() {
			return "", false
		}
	}
	return value.KeyOf(row, cols), true
}

// Join combines matching pairs of rows (⋈). Equality conjuncts between the
// two sides are executed with a hash table; remaining conjuncts are
// evaluated as a residual predicate over the concatenated row. A nil
// predicate degenerates to a cartesian product.
type Join struct {
	L, R Node
	Pred Expr
}

// Schema returns the concatenated schemas.
func (j *Join) Schema() schema.Schema { return j.L.Schema().Concat(j.R.Schema()) }

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

func (j *Join) String() string { return fmt.Sprintf("Join(%v)", j.Pred) }

// Open executes the join. For equi-joins the hash table is built on the
// side with the smaller estimated cardinality and the other side streams
// as the probe, so the materialized footprint is min(|L|,|R|), not
// whichever side happened to be written second. When estimates are
// unavailable the build side defaults to the right input (the historical
// order). Output rows are always L++R regardless of build side.
func (j *Join) Open(ctx context.Context) (Iterator, error) {
	if j.Pred == nil {
		return (&Product{L: j.L, R: j.R}).Open(ctx)
	}
	leftArity := j.L.Schema().Len()
	lc, rc, residual := equiPairs(j.Pred, leftArity)
	if len(lc) == 0 {
		// No equality columns: nested loop with full predicate, right
		// side materialized.
		right, err := materializeNoted(ctx, j.R)
		if err != nil {
			return nil, err
		}
		lit, err := j.L.Open(ctx)
		if err != nil {
			return nil, err
		}
		return &nestedJoinIter{left: lit, right: right, pred: j.Pred, cc: cancelCheck{ctx: ctx}}, nil
	}
	buildLeft := false
	if el, er := EstimateCard(j.L), EstimateCard(j.R); el >= 0 && er >= 0 && el < er {
		buildLeft = true
	}
	if buildLeft {
		build, err := materializeNoted(ctx, j.L)
		if err != nil {
			return nil, err
		}
		probe, err := j.R.Open(ctx)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{
			probe:     probe,
			table:     hashPartition(build, lc),
			probeCols: rc,
			residual:  residual,
			buildLeft: true,
			cc:        cancelCheck{ctx: ctx},
		}, nil
	}
	build, err := materializeNoted(ctx, j.R)
	if err != nil {
		return nil, err
	}
	probe, err := j.L.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{
		probe:     probe,
		table:     hashPartition(build, rc),
		probeCols: lc,
		residual:  residual,
		cc:        cancelCheck{ctx: ctx},
	}, nil
}

type nestedJoinIter struct {
	left    Iterator
	right   []value.Tuple
	pred    Expr
	cur     value.Tuple
	haveCur bool
	ri      int
	cc      cancelCheck
}

func (it *nestedJoinIter) Next() (value.Tuple, bool, error) {
	for {
		if !it.haveCur {
			row, ok, err := it.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.cur, it.haveCur, it.ri = row, true, 0
		}
		for it.ri < len(it.right) {
			if err := it.cc.err(); err != nil {
				return nil, false, err
			}
			out := value.Concat(it.cur, it.right[it.ri])
			it.ri++
			pass, err := EvalPredicate(it.pred, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		it.haveCur = false
	}
}

func (it *nestedJoinIter) Close() error { return it.left.Close() }

// hashJoinIter streams the probe side against a materialized hash table.
// With buildLeft set, the table holds left rows and the probe is the
// right input; emitted rows are still left++right.
type hashJoinIter struct {
	probe     Iterator
	table     map[string][]value.Tuple
	probeCols []int
	residual  Expr
	buildLeft bool
	cur       value.Tuple
	matches   []value.Tuple
	mi        int
	cc        cancelCheck
}

func (it *hashJoinIter) Next() (value.Tuple, bool, error) {
	for {
		for it.mi < len(it.matches) {
			if err := it.cc.err(); err != nil {
				return nil, false, err
			}
			var out value.Tuple
			if it.buildLeft {
				out = value.Concat(it.matches[it.mi], it.cur)
			} else {
				out = value.Concat(it.cur, it.matches[it.mi])
			}
			it.mi++
			if it.residual != nil {
				pass, err := EvalPredicate(it.residual, out)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return out, true, nil
		}
		row, ok, err := it.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		it.cur = row
		it.matches = nil
		if k, ok := hashKey(row, it.probeCols); ok {
			it.matches = it.table[k]
		}
		it.mi = 0
	}
}

func (it *hashJoinIter) Close() error { return it.probe.Close() }

// SemiJoin emits left rows that have at least one matching right row (⋉).
// The output schema is the left schema.
type SemiJoin struct {
	L, R Node
	Pred Expr
}

// Schema returns the left schema.
func (j *SemiJoin) Schema() schema.Schema { return j.L.Schema() }

// Children returns both inputs.
func (j *SemiJoin) Children() []Node { return []Node{j.L, j.R} }

func (j *SemiJoin) String() string { return fmt.Sprintf("SemiJoin(%v)", j.Pred) }

// Open executes the semi-join, hash-accelerated when possible.
func (j *SemiJoin) Open(ctx context.Context) (Iterator, error) {
	return openMatchIter(ctx, j.L, j.R, j.Pred, true)
}

// AntiJoin emits left rows that have no matching right row (▷). The output
// schema is the left schema. It implements NOT EXISTS and the
// conflict-filtering step of the query-rewriting baseline.
type AntiJoin struct {
	L, R Node
	Pred Expr
}

// Schema returns the left schema.
func (j *AntiJoin) Schema() schema.Schema { return j.L.Schema() }

// Children returns both inputs.
func (j *AntiJoin) Children() []Node { return []Node{j.L, j.R} }

func (j *AntiJoin) String() string { return fmt.Sprintf("AntiJoin(%v)", j.Pred) }

// Open executes the anti-join, hash-accelerated when possible.
func (j *AntiJoin) Open(ctx context.Context) (Iterator, error) {
	return openMatchIter(ctx, j.L, j.R, j.Pred, false)
}

// openMatchIter drives both semi- and anti-joins: keep left rows whose
// match-existence equals want. The right side is the lookup set and is
// always the materialized one; the left streams.
func openMatchIter(ctx context.Context, l, r Node, pred Expr, want bool) (Iterator, error) {
	leftArity := l.Schema().Len()
	var lc, rc []int
	var residual Expr
	if pred != nil {
		lc, rc, residual = equiPairs(pred, leftArity)
	}
	right, err := materializeNoted(ctx, r)
	if err != nil {
		return nil, err
	}
	lit, err := l.Open(ctx)
	if err != nil {
		return nil, err
	}
	it := &matchIter{left: lit, want: want, residual: pred}
	if len(lc) > 0 {
		it.table = hashPartition(right, rc)
		it.leftCols = lc
		it.residual = residual
	} else {
		it.right = right
	}
	return it, nil
}

type matchIter struct {
	left     Iterator
	want     bool
	right    []value.Tuple // nested-loop mode
	table    map[string][]value.Tuple
	leftCols []int
	residual Expr
}

func (it *matchIter) Next() (value.Tuple, bool, error) {
	for {
		row, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		candidates := it.right
		if it.table != nil {
			candidates = nil
			if k, ok := hashKey(row, it.leftCols); ok {
				candidates = it.table[k]
			}
		}
		matched := false
		for _, rr := range candidates {
			if it.residual == nil {
				matched = true
				break
			}
			pass, err := EvalPredicate(it.residual, value.Concat(row, rr))
			if err != nil {
				return nil, false, err
			}
			if pass {
				matched = true
				break
			}
		}
		if matched == it.want {
			return row, true, nil
		}
	}
}

func (it *matchIter) Close() error { return it.left.Close() }
