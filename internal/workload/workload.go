// Package workload generates the synthetic inconsistent databases used by
// the experiments: deterministic (seeded) instances with a controllable
// size and conflict rate, mirroring the setup of the Hippo evaluation —
// base tuples with unique keys plus injected key-violating duplicates.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"hippo/internal/engine"
	"hippo/internal/schema"
	"hippo/internal/value"
)

// insertAll loads rows through the engine's write path as chunked
// multi-row INSERT statements. Generators must not write to storage
// behind the engine's back: engine-level writes feed the change listeners
// and — in durable mode — the commit log, so a generated instance behaves
// exactly like user-loaded data (and persists when the target is durable).
func insertAll(db *engine.DB, table string, rows []value.Tuple) error {
	const chunk = 256
	for start := 0; start < len(rows); start += chunk {
		end := start + chunk
		if end > len(rows) {
			end = len(rows)
		}
		var b strings.Builder
		b.WriteString("INSERT INTO ")
		b.WriteString(table)
		b.WriteString(" VALUES ")
		for i, r := range rows[start:end] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(value.TupleString(r))
		}
		if _, _, err := db.Exec(b.String()); err != nil {
			return err
		}
	}
	return nil
}

// EmpConfig describes an employee-table instance.
type EmpConfig struct {
	// N is the number of base tuples (distinct employee ids).
	N int
	// ConflictRate is the fraction of base tuples that receive one
	// FD-violating duplicate (same id, different salary). 0.02 means 2% of
	// employees have two conflicting salary records.
	ConflictRate float64
	// Seed drives the deterministic generator.
	Seed int64
	// Table overrides the table name (default "emp").
	Table string
}

// EmpReport describes what was generated.
type EmpReport struct {
	Rows      int // total rows inserted
	Conflicts int // conflicting pairs injected
}

// Emp creates and populates an employee table emp(id, name, dept, salary)
// with cfg.N base rows and injected FD violations on id → salary. The
// matching constraint is FD emp: id -> salary.
func Emp(db *engine.DB, cfg EmpConfig) (EmpReport, error) {
	name := cfg.Table
	if name == "" {
		name = "emp"
	}
	if _, err := db.CreateTable(name, schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindText},
		schema.Column{Name: "dept", Type: value.KindInt},
		schema.Column{Name: "salary", Type: value.KindInt},
	)); err != nil {
		return EmpReport{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := EmpReport{}
	nConf := int(float64(cfg.N) * cfg.ConflictRate)
	rows := make([]value.Tuple, 0, cfg.N+nConf)
	for i := 0; i < cfg.N; i++ {
		salary := 30000 + rng.Intn(120000)
		row := value.Tuple{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("emp%06d", i)),
			value.Int(int64(i % 100)),
			value.Int(int64(salary)),
		}
		rows = append(rows, row)
		rep.Rows++
		if i < nConf {
			// Duplicate with a different salary → FD violation on id.
			dup := row.Clone()
			dup[3] = value.Int(int64(salary + 1 + rng.Intn(50000)))
			rows = append(rows, dup)
			rep.Rows++
			rep.Conflicts++
		}
	}
	if err := insertAll(db, name, rows); err != nil {
		return rep, err
	}
	return rep, nil
}

// DeptConfig describes the department dimension table.
type DeptConfig struct {
	// N is the number of departments.
	N int
	// Seed drives the generator.
	Seed int64
}

// Dept creates dept(id, dname, budget) with N clean rows (no conflicts),
// matching the dept ids assigned by Emp (0..99 by default).
func Dept(db *engine.DB, cfg DeptConfig) error {
	if _, err := db.CreateTable("dept", schema.New(
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "dname", Type: value.KindText},
		schema.Column{Name: "budget", Type: value.KindInt},
	)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]value.Tuple, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		rows = append(rows, value.Tuple{
			value.Int(int64(i)),
			value.Text(fmt.Sprintf("dept%03d", i)),
			value.Int(int64(100000 + rng.Intn(900000))),
		})
	}
	return insertAll(db, "dept", rows)
}

// SourcesConfig describes a two-source integration scenario: both sources
// report (key, val) pairs; overlapping keys with different values violate
// the cross-source FD when the sources are unioned into one relation.
type SourcesConfig struct {
	// N is the number of keys per source.
	N int
	// OverlapRate is the fraction of keys present in both sources with
	// disagreeing values.
	OverlapRate float64
	// Seed drives the generator.
	Seed int64
}

// Sources creates a single relation merged(src TEXT, k INT, v INT)
// representing integrated data from two autonomous sources, plus the
// number of disagreeing keys. The matching constraint is
// FD merged: k -> v.
func Sources(db *engine.DB, cfg SourcesConfig) (int, error) {
	if _, err := db.CreateTable("merged", schema.New(
		schema.Column{Name: "src", Type: value.KindText},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "v", Type: value.KindInt},
	)); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	overlap := int(float64(cfg.N) * cfg.OverlapRate)
	disagreements := 0
	rows := make([]value.Tuple, 0, cfg.N+overlap)
	for i := 0; i < cfg.N; i++ {
		v := rng.Intn(1000)
		rows = append(rows, value.Tuple{
			value.Text("s1"), value.Int(int64(i)), value.Int(int64(v)),
		})
		if i < overlap {
			// Source 2 disagrees on this key.
			rows = append(rows, value.Tuple{
				value.Text("s2"), value.Int(int64(i)), value.Int(int64(v + 1 + rng.Intn(100))),
			})
			disagreements++
		}
	}
	return disagreements, insertAll(db, "merged", rows)
}

// SQLDump renders the contents of a database as executable SQL statements
// (CREATE TABLE + INSERT), used by hippogen.
func SQLDump(db *engine.DB) (string, error) {
	var out []byte
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return "", err
		}
		sch := t.Schema()
		out = append(out, "CREATE TABLE "...)
		out = append(out, name...)
		out = append(out, " ("...)
		for i, c := range sch.Columns {
			if i > 0 {
				out = append(out, ", "...)
			}
			out = append(out, c.Name...)
			out = append(out, ' ')
			out = append(out, c.Type.String()...)
		}
		out = append(out, ");\n"...)
		for _, row := range t.Rows() {
			out = append(out, "INSERT INTO "...)
			out = append(out, name...)
			out = append(out, " VALUES "...)
			out = append(out, value.TupleString(row)...)
			out = append(out, ";\n"...)
		}
	}
	return string(out), nil
}
