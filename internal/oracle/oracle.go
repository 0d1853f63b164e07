// Package oracle is a brute-force reference implementation of consistent
// query answering, used to differentially test the fast path (envelope +
// hypergraph prover). It shares nothing with the conflict-hypergraph
// machinery: violations are found by direct nested-loop evaluation of
// each constraint's denial condition, repairs are enumerated by exhaustive
// subset search over the conflicting tuples, and consistent answers are
// computed by materializing every repair and intersecting the query
// results. Exponential in the number of conflicting tuples — small
// instances only.
package oracle

import (
	"fmt"
	"sort"
	"strings"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// DefaultMaxConflicting bounds the subset search: 2^n candidate repairs
// are examined for n conflicting tuples.
const DefaultMaxConflicting = 12

// Ref names one tuple of the database.
type Ref struct {
	Rel string
	Row storage.RowID
}

func (r Ref) String() string { return fmt.Sprintf("%s#%d", r.Rel, r.Row) }

// Oracle computes ground-truth consistent answers for a database under a
// constraint set.
type Oracle struct {
	DB          *engine.DB
	Constraints []constraint.Constraint
	// MaxConflicting caps the number of conflicting tuples
	// (DefaultMaxConflicting when zero).
	MaxConflicting int
}

// violation is one set of tuples that jointly satisfy a denial condition.
type violation []Ref

// Violations finds every violating tuple combination by nested-loop
// evaluation of each constraint's denial form, deduplicated as sets.
func (o *Oracle) Violations() ([]violation, error) {
	seen := map[string]bool{}
	var out []violation
	for _, c := range o.Constraints {
		den, err := c.Denial(o.DB)
		if err != nil {
			return nil, err
		}
		if err := o.enumDenial(den, seen, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// enumDenial walks every combination of live rows binding the denial's
// atoms and records the combinations satisfying the condition.
func (o *Oracle) enumDenial(den constraint.Denial, seen map[string]bool, out *[]violation) error {
	type bound struct {
		rel  string
		ids  []storage.RowID
		rows []value.Tuple
	}
	atoms := make([]bound, len(den.Atoms))
	combined := schema.Schema{}
	for i, a := range den.Atoms {
		t, err := o.DB.Table(a.Rel)
		if err != nil {
			return err
		}
		b := bound{rel: strings.ToLower(a.Rel)}
		t.Scan(func(id storage.RowID, row value.Tuple) error {
			b.ids = append(b.ids, id)
			b.rows = append(b.rows, row)
			return nil
		})
		atoms[i] = b
		combined = combined.Concat(t.Schema().WithQualifier(strings.ToLower(a.Name())))
	}
	var cond ra.Expr
	if den.Where != nil {
		var err error
		cond, err = engine.PlanScalar(den.Where, combined)
		if err != nil {
			return err
		}
	}
	refs := make([]Ref, len(atoms))
	row := make(value.Tuple, 0, combined.Len())
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(atoms) {
			if cond != nil {
				pass, err := ra.EvalPredicate(cond, row)
				if err != nil {
					return err
				}
				if !pass {
					return nil
				}
			}
			v := dedupRefs(refs)
			k := refsKey(v)
			if !seen[k] {
				seen[k] = true
				*out = append(*out, v)
			}
			return nil
		}
		for j := range atoms[i].ids {
			refs[i] = Ref{Rel: atoms[i].rel, Row: atoms[i].ids[j]}
			row = append(row, atoms[i].rows[j]...)
			err := walk(i + 1)
			row = row[:len(row)-len(atoms[i].rows[j])]
			if err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

func dedupRefs(refs []Ref) violation {
	cp := make([]Ref, len(refs))
	copy(cp, refs)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Rel != cp[j].Rel {
			return cp[i].Rel < cp[j].Rel
		}
		return cp[i].Row < cp[j].Row
	})
	out := cp[:0]
	for i, r := range cp {
		if i == 0 || r != cp[i-1] {
			out = append(out, r)
		}
	}
	return violation(out)
}

func refsKey(v violation) string {
	parts := make([]string, len(v))
	for i, r := range v {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// Repairs enumerates every repair as the set of tuples it EXCLUDES from
// the database: for each subset of the conflicting tuples it checks
// consistency (no violation fully kept) and maximality (adding any
// excluded tuple back creates a violation).
func (o *Oracle) Repairs() ([][]Ref, error) {
	viols, err := o.Violations()
	if err != nil {
		return nil, err
	}
	conflictSet := map[Ref]bool{}
	for _, v := range viols {
		for _, r := range v {
			conflictSet[r] = true
		}
	}
	conflicting := make([]Ref, 0, len(conflictSet))
	for r := range conflictSet {
		conflicting = append(conflicting, r)
	}
	sort.Slice(conflicting, func(i, j int) bool {
		if conflicting[i].Rel != conflicting[j].Rel {
			return conflicting[i].Rel < conflicting[j].Rel
		}
		return conflicting[i].Row < conflicting[j].Row
	})
	max := o.MaxConflicting
	if max <= 0 {
		max = DefaultMaxConflicting
	}
	if len(conflicting) > max {
		return nil, fmt.Errorf("oracle: %d conflicting tuples exceed the limit %d", len(conflicting), max)
	}

	pos := make(map[Ref]int, len(conflicting))
	for i, r := range conflicting {
		pos[r] = i
	}
	// Each violation as a bitmask over the conflicting tuples.
	masks := make([]uint64, len(viols))
	for i, v := range viols {
		var m uint64
		for _, r := range v {
			m |= 1 << uint(pos[r])
		}
		masks[i] = m
	}
	n := uint(len(conflicting))
	var exclusions [][]Ref
	for keep := uint64(0); keep < 1<<n; keep++ {
		consistent := true
		for _, m := range masks {
			if m&keep == m {
				consistent = false
				break
			}
		}
		if !consistent {
			continue
		}
		maximal := true
		for i := uint(0); i < n && maximal; i++ {
			if keep&(1<<i) != 0 {
				continue
			}
			grown := keep | 1<<i
			creates := false
			for _, m := range masks {
				if m&grown == m {
					creates = true
					break
				}
			}
			if !creates {
				maximal = false
			}
		}
		if !maximal {
			continue
		}
		var excl []Ref
		for i := uint(0); i < n; i++ {
			if keep&(1<<i) == 0 {
				excl = append(excl, conflicting[i])
			}
		}
		exclusions = append(exclusions, excl)
	}
	return exclusions, nil
}

// ConsistentAnswers evaluates the query in every repair and intersects
// the results, sorted for comparison.
func (o *Oracle) ConsistentAnswers(sql string) ([]value.Tuple, error) {
	exclusions, err := o.Repairs()
	if err != nil {
		return nil, err
	}
	var intersection map[string]value.Tuple
	for _, excl := range exclusions {
		rdb, err := o.cloneWithout(excl)
		if err != nil {
			return nil, err
		}
		res, err := rdb.Query(sql)
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

// cloneWithout copies the database, skipping the excluded rows.
func (o *Oracle) cloneWithout(excl []Ref) (*engine.DB, error) {
	drop := make(map[Ref]bool, len(excl))
	for _, r := range excl {
		drop[r] = true
	}
	dst := engine.New()
	for _, name := range o.DB.TableNames() {
		t, err := o.DB.Table(name)
		if err != nil {
			return nil, err
		}
		nt, err := dst.CreateTable(name, t.Schema())
		if err != nil {
			return nil, err
		}
		err = t.Scan(func(id storage.RowID, row value.Tuple) error {
			if drop[Ref{Rel: name, Row: id}] {
				return nil
			}
			_, _, ierr := nt.Insert(row)
			return ierr
		})
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}
