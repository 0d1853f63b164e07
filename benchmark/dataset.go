package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// dims sizes one generated instance. D20k is the benchmark's dataset; the
// micro instance keeps the same shape small enough for the
// repair-enumeration oracle (36 repairs).
type dims struct {
	ids     int // distinct emp ids, 0..ids-1
	dups    int // ids carrying one conflicting duplicate
	triples int // of those, ids carrying a second one (3-way clusters)
	depts   int // dept rows; emp.dept = id % depts
	aud     int // aud rows, k = 0..aud-1
}

var (
	d20k  = dims{ids: 20000, dups: 1000, triples: 200, depts: 100, aud: 2000}
	micro = dims{ids: 14, dups: 4, triples: 2, depts: 3, aud: 5}
)

// Constraints registered on every instance. The 3-atom denial is the
// TestTierHybridCoverage shape: no aud row has v = 999, so it contributes no
// hyperedge, but the rewriting cannot express it and emp-aud joins take the
// hybrid tier.
const (
	fdSpec     = "emp: id -> salary"
	denialSpec = "aud a, aud b, aud c WHERE a.k < b.k AND b.k < c.k AND a.v = 999"
)

var tables = []struct{ name, create string }{
	{"emp", "CREATE TABLE emp (id INT, name TEXT, dept INT, salary INT)"},
	{"dept", "CREATE TABLE dept (id INT, dname TEXT, budget INT)"},
	{"aud", "CREATE TABLE aud (k INT, v INT)"},
}

type empRow struct {
	id     int
	name   string
	dept   int
	salary int
}

type dataset struct {
	dims
	emp    []empRow
	budget []int // dept i has budget[i]
}

// Salaries are uniform in [salaryLo, salaryHi); statements written by the
// workloads stay outside that band where they must be invisible to reads.
const (
	salaryLo = 30000
	salaryHi = 150000
)

// genDataset draws the instance for seed: which ids conflict and every
// salary and budget come from the seed, the row counts never vary.
func genDataset(seed int64, d dims) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{dims: d}
	extra := make([]int, d.ids) // conflicting duplicates per id
	for i, id := range rng.Perm(d.ids)[:d.dups] {
		extra[id] = 1
		if i < d.triples {
			extra[id] = 2
		}
	}
	for id := 0; id < d.ids; id++ {
		salary := salaryLo + rng.Intn(salaryHi-salaryLo-200)
		ds.emp = append(ds.emp, empRow{id, fmt.Sprintf("e%05d", id), id % d.depts, salary})
		for k := 1; k <= extra[id]; k++ {
			// Distinct salaries within the cluster: every pair conflicts.
			ds.emp = append(ds.emp, empRow{id, fmt.Sprintf("e%05d.%d", id, k), id % d.depts, salary + (k-1)*90 + 1 + rng.Intn(90)})
		}
	}
	for i := 0; i < d.depts; i++ {
		ds.budget = append(ds.budget, 100000+rng.Intn(900000))
	}
	return ds
}

func (r empRow) values() string {
	return fmt.Sprintf("(%d, '%s', %d, %d)", r.id, r.name, r.dept, r.salary)
}

func deptName(i int) string { return fmt.Sprintf("d%03d", i) }

func audV(k int) int { return k % 50 }

// loadSQL renders the instance as the statements set-up executes: three
// CREATE TABLEs, then multi-row INSERTs of at most 256 rows.
func (ds *dataset) loadSQL() []string {
	var out []string
	for _, t := range tables {
		out = append(out, t.create)
	}
	var vals []string
	flush := func(table string) {
		if len(vals) > 0 {
			out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	add := func(table, v string) {
		if vals = append(vals, v); len(vals) == 256 {
			flush(table)
		}
	}
	for _, r := range ds.emp {
		add("emp", r.values())
	}
	flush("emp")
	for i, b := range ds.budget {
		add("dept", fmt.Sprintf("(%d, '%s', %d)", i, deptName(i), b))
	}
	flush("dept")
	for k := 0; k < ds.aud; k++ {
		add("aud", fmt.Sprintf("(%d, %d)", k, audV(k)))
	}
	flush("aud")
	return out
}
