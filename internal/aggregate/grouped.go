package aggregate

import (
	"fmt"
	"sort"

	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/value"
)

// GroupedQuery describes a grouped aggregation: one range-consistent
// answer per distinct value of the grouping columns.
type GroupedQuery struct {
	Query
	// GroupBy lists grouping columns of Rel.
	GroupBy []string
}

// GroupResult pairs one grouping key with its aggregate range. MayBeEmpty
// inside Range reports that some repair has no qualifying tuples for this
// key at all (the group can vanish).
type GroupResult struct {
	Key   value.Tuple
	Range Range
}

// ConsistentGrouped computes range-consistent answers per group. A group
// appears in the output when at least one tuple of the original database
// carries its key and passes the filter; per-group bounds then follow the
// same single-FD decomposition as Consistent. The per-group choices of
// different groups may interact through shared FD clusters, but each
// group's own bound is individually tight: extremizing one group fixes
// only the partition choices of clusters that touch it.
func ConsistentGrouped(snap *engine.Snapshot, q GroupedQuery) ([]GroupResult, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("aggregate: ConsistentGrouped requires grouping columns")
	}
	r, err := resolve(snap, q.Query)
	if err != nil {
		return nil, err
	}
	gcols, err := resolveCols(r.t.Schema(), q.GroupBy)
	if err != nil {
		return nil, err
	}

	// Collect the distinct grouping keys among qualifying tuples.
	keys := map[string]value.Tuple{}
	keyOrder := []string{}
	err = scanQualifying(r.t, r.pred, func(row value.Tuple) {
		k := value.Project(row, gcols)
		ks := k.Key()
		if _, ok := keys[ks]; !ok {
			keys[ks] = k.Clone()
			keyOrder = append(keyOrder, ks)
		}
	})
	if err != nil {
		return nil, err
	}

	out := make([]GroupResult, 0, len(keys))
	for _, ks := range keyOrder {
		key := keys[ks]
		// Per-group bound = ungrouped bound with "G = key" added to the
		// filter; group selection composes with the user's predicate.
		rng, err := r.bound(ra.Conjoin(r.pred, groupPredicate(gcols, key)))
		if err != nil {
			return nil, err
		}
		out = append(out, GroupResult{Key: key, Range: rng})
	}
	sort.Slice(out, func(i, j int) bool {
		return value.CompareTuples(out[i].Key, out[j].Key) < 0
	})
	return out, nil
}

// groupPredicate builds "col1 = k1 AND col2 = k2 ..." (IS NULL for NULL
// key components).
func groupPredicate(cols []int, key value.Tuple) ra.Expr {
	var pred ra.Expr
	for i, c := range cols {
		var conj ra.Expr
		if key[i].IsNull() {
			conj = ra.IsNull{E: ra.Col{Index: c}}
		} else {
			conj = ra.Cmp{Op: ra.EQ, L: ra.Col{Index: c}, R: ra.Const{V: key[i]}}
		}
		pred = ra.Conjoin(pred, conj)
	}
	return pred
}
