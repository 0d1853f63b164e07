package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
)

// The model is the benchmark's own reference for consistent answers. It
// shares no code with Hippo: under the one FD emp: id -> salary a row is in
// every repair exactly when no row with its id carries another salary, dept
// and aud are conflict-free, and every query of the benchmark returns whole
// tuples, so an answer is consistent exactly when each tuple it is built
// from is in every repair. The model is itself checked against the
// repair-enumeration oracle on the micro instance at the start of every run.

type qkind uint8

const (
	qPoint qkind = iota
	qRange
	qSelect
	qJoin
	qAgg
	qUnion
	qExcept
	qSelfJoin
	qHybrid
	qDeptSelect
	qFull
)

// query is one read statement with the parameters the model needs.
type query struct {
	kind   qkind
	sql    string // SELECT text; for qAgg the WHERE clause
	lo, hi int    // emp id range [lo, hi)
	x, y   int    // thresholds, per kind
	fn     aggFn  // qAgg only
}

type aggFn uint8

const (
	aggMin aggFn = iota
	aggMax
	aggSum
)

const allIDs = math.MaxInt

func qPointOf(k int) *query {
	return &query{kind: qPoint, lo: k, hi: k + 1,
		// Written as a degenerate range: "id = k" compares a key column to
		// a constant, which the classifier demotes to the prover tier.
		sql: fmt.Sprintf("SELECT * FROM emp WHERE id >= %d AND id <= %d", k, k)}
}

func qRangeOf(lo, hi int) *query {
	return &query{kind: qRange, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE id >= %d AND id < %d", lo, hi)}
}

func qSelectOf(minSalary int) *query {
	return &query{kind: qSelect, hi: allIDs, x: minSalary,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE salary >= %d", minSalary)}
}

func qJoinOf(lo, hi int) *query {
	return &query{kind: qJoin, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT * FROM emp e, dept d WHERE e.dept = d.id AND e.id >= %d AND e.id < %d", lo, hi)}
}

func qAggOf(fn aggFn, dept int) *query {
	return &query{kind: qAgg, hi: allIDs, x: dept, fn: fn, sql: fmt.Sprintf("dept = %d", dept)}
}

func qDeptSelectOf(dept int) *query {
	return &query{kind: qDeptSelect, hi: allIDs, x: dept,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE dept = %d", dept)}
}

func qUnionOf(below, from int) *query {
	return &query{kind: qUnion, hi: allIDs, x: below, y: from,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE salary < %d UNION SELECT * FROM emp WHERE salary >= %d", below, from)}
}

// qUnionIn is qUnionOf restricted to the ids in [lo, hi).
func qUnionIn(lo, hi, below, from int) *query {
	in := fmt.Sprintf("id >= %d AND id < %d AND ", lo, hi)
	return &query{kind: qUnion, lo: lo, hi: hi, x: below, y: from,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE %ssalary < %d UNION SELECT * FROM emp WHERE %ssalary >= %d", in, below, in, from)}
}

// qUnionRangeOf is a prover-tier read that stays inside two id ranges.
func qUnionRangeOf(lo, mid, hi int) *query {
	return &query{kind: qRange, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE id >= %d AND id < %d UNION SELECT * FROM emp WHERE id >= %d AND id < %d", lo, mid, mid, hi)}
}

func qExceptIn(lo, hi, deptBelow, salaryFrom int) *query {
	return &query{kind: qExcept, lo: lo, hi: hi, x: deptBelow, y: salaryFrom,
		sql: fmt.Sprintf("SELECT * FROM emp WHERE id >= %d AND id < %d AND dept < %d EXCEPT SELECT * FROM emp WHERE salary >= %d", lo, hi, deptBelow, salaryFrom)}
}

func qSelfJoinOf(lo, hi int) *query {
	return &query{kind: qSelfJoin, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT * FROM emp e1, emp e2 WHERE e1.id = e2.id AND e1.id >= %d AND e1.id < %d", lo, hi)}
}

func qHybridOf(lo, hi int) *query {
	return &query{kind: qHybrid, lo: lo, hi: hi,
		sql: fmt.Sprintf("SELECT * FROM emp e, aud a WHERE e.id = a.k AND a.k >= %d AND a.k < %d", lo, hi)}
}

func qFullOf() *query { return &query{kind: qFull, hi: allIDs, sql: "SELECT * FROM emp"} }

// write is one single-row DML statement in the form the model applies.
type write struct {
	del bool
	id  int    // delete: every row of this id
	row empRow // insert
}

func (w write) sql() string {
	if w.del {
		return fmt.Sprintf("DELETE FROM emp WHERE id = %d", w.id)
	}
	return "INSERT INTO emp VALUES " + w.row.values()
}

// model holds emp by id. Clients write disjoint ids, so each element of
// base has one writer; the open loop lets any connection carry a client's
// write, so the fresh maps are locked.
type model struct {
	ds    *dataset
	base  [][]empRow // ids below ds.ids
	mu    sync.Mutex
	fresh []map[int][]empRow // per client: ids the client created
}

func newModel(ds *dataset, clients int) *model {
	m := &model{ds: ds, base: make([][]empRow, ds.ids), fresh: make([]map[int][]empRow, clients)}
	for _, r := range ds.emp {
		m.base[r.id] = append(m.base[r.id], r)
	}
	for c := range m.fresh {
		m.fresh[c] = make(map[int][]empRow)
	}
	return m
}

func (m *model) apply(client int, w write) {
	switch {
	case w.del && w.id < len(m.base):
		m.base[w.id] = nil
	case !w.del && w.row.id < len(m.base):
		m.base[w.row.id] = append(m.base[w.row.id], w.row)
	default:
		m.mu.Lock()
		if w.del {
			delete(m.fresh[client], w.id)
		} else {
			m.fresh[client][w.row.id] = append(m.fresh[client][w.row.id], w.row)
		}
		m.mu.Unlock()
	}
}

// certain reports whether the rows of one id are in every repair.
func certain(rows []empRow) bool {
	for _, r := range rows[1:] {
		if r.salary != rows[0].salary {
			return false
		}
	}
	return true
}

// answer is a result set reduced to what the benchmark compares: the row
// count and an order-independent hash.
type answer struct {
	n int
	h uint64
}

func (a answer) String() string { return fmt.Sprintf("%d rows #%016x", a.n, a.h) }

// rowHash accumulates one row's canonical text, "v|v|...".
type rowHash struct{ buf []byte }

func (r *rowHash) int(v int64)  { r.buf = append(strconv.AppendInt(r.buf, v, 10), '|') }
func (r *rowHash) str(s string) { r.buf = append(append(r.buf, s...), '|') }
func (r *rowHash) emp(e empRow) {
	r.int(int64(e.id))
	r.str(e.name)
	r.int(int64(e.dept))
	r.int(int64(e.salary))
}

// add folds the accumulated row into a (FNV-1a, summed over rows).
func (r *rowHash) add(a *answer) {
	h := uint64(14695981039346656037)
	for _, c := range r.buf {
		h = (h ^ uint64(c)) * 1099511628211
	}
	a.n++
	a.h += h
	r.buf = r.buf[:0]
}

// answer computes the consistent answer to q (for qAgg, the range).
func (m *model) answer(q *query) answer {
	if q.kind == qAgg {
		return m.aggregate(q)
	}
	var a answer
	var rh rowHash
	visit := func(rows []empRow) {
		if len(rows) == 0 || !certain(rows) {
			return
		}
		for _, r := range rows {
			switch q.kind {
			case qSelect:
				if r.salary < q.x {
					continue
				}
			case qDeptSelect:
				if r.dept != q.x {
					continue
				}
			case qUnion:
				if r.salary >= q.x && r.salary < q.y {
					continue
				}
			case qExcept:
				if r.dept >= q.x || r.salary >= q.y {
					continue
				}
			case qHybrid:
				if r.id >= m.ds.aud {
					continue
				}
			}
			switch q.kind {
			case qJoin:
				rh.emp(r)
				rh.int(int64(r.dept))
				rh.str(deptName(r.dept))
				rh.int(int64(m.ds.budget[r.dept]))
				rh.add(&a)
			case qHybrid:
				rh.emp(r)
				rh.int(int64(r.id))
				rh.int(int64(audV(r.id)))
				rh.add(&a)
			case qSelfJoin:
				for _, r2 := range rows {
					rh.emp(r)
					rh.emp(r2)
					rh.add(&a)
				}
			default:
				rh.emp(r)
				rh.add(&a)
			}
		}
	}
	m.scan(q.lo, q.hi, visit)
	return a
}

// scan visits the row group of every id in [lo, hi).
func (m *model) scan(lo, hi int, visit func([]empRow)) {
	for id := lo; id < hi && id < len(m.base); id++ {
		visit(m.base[id])
	}
	if hi == allIDs {
		for _, f := range m.fresh {
			for _, rows := range f {
				visit(rows)
			}
		}
	}
}

// aggregate computes the range-consistent answer over the rows with
// dept = q.x: each id keeps the rows of exactly one of its salaries, so
// every bound is a per-id choice. All rows of an id share its dept, so no
// repair empties the selection.
func (m *model) aggregate(q *query) answer {
	var lo, hi int64
	first := true
	for id := q.x; id < len(m.base); id += m.ds.depts {
		rows := m.base[id]
		if len(rows) == 0 {
			continue
		}
		// Smallest and largest contribution this id can make.
		var gmin, gmax int64
		for i, r := range rows {
			v := int64(r.salary)
			if q.fn == aggSum {
				v = 0
				for _, r2 := range rows {
					if r2.salary == r.salary {
						v += int64(r2.salary)
					}
				}
			}
			if i == 0 || v < gmin {
				gmin = v
			}
			if i == 0 || v > gmax {
				gmax = v
			}
		}
		switch {
		case q.fn == aggSum:
			lo, hi = lo+gmin, hi+gmax
		case first:
			lo, hi = gmin, gmax
		case q.fn == aggMin: // the least minimum, and the least of the per-id maxima
			lo, hi = min(lo, gmin), min(hi, gmax)
		default: // aggMax
			lo, hi = max(lo, gmin), max(hi, gmax)
		}
		first = false
	}
	return rangeAnswer(lo, hi)
}

func rangeAnswer(lo, hi int64) answer {
	var a answer
	var rh rowHash
	rh.int(lo)
	rh.int(hi)
	rh.add(&a)
	return a
}

// contents reduces every emp row, certain or not.
func (m *model) contents() answer {
	var a answer
	var rh rowHash
	m.scan(0, allIDs, func(rows []empRow) {
		for _, r := range rows {
			rh.emp(r)
			rh.add(&a)
		}
	})
	return a
}
