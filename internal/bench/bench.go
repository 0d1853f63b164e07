// Package bench implements the experiment harness that regenerates the
// paper's demonstration claims and the running-time series of its
// companion study. Each experiment (E1–E9, see DESIGN.md §3) produces a
// Table that cmd/hippobench prints and EXPERIMENTS.md records; the
// testing.B benchmarks in the repository root wrap the same runners.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hippo/internal/constraint"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/workload"
)

// Table is one experiment's output in row/column form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Notes != "" {
		b.WriteString("\n" + t.Notes + "\n")
	}
	return b.String()
}

// Scale selects experiment sizes.
type Scale struct {
	// Sizes for the size sweeps (E3, E5, E8).
	Sizes []int
	// Rates for the conflict-rate sweep (E4).
	Rates []float64
	// N is the fixed size for E4/E6/E7.
	N int
	// Reps repeats each timed measurement and keeps the fastest.
	Reps int
}

// QuickScale keeps everything small enough for unit tests and -bench runs.
func QuickScale() Scale {
	return Scale{
		Sizes: []int{500, 1000, 2000},
		Rates: []float64{0, 0.02, 0.08},
		N:     2000,
		Reps:  1,
	}
}

// FullScale mirrors the paper-style sweep (tens of thousands of tuples).
func FullScale() Scale {
	return Scale{
		Sizes: []int{1000, 2000, 5000, 10000, 20000, 50000},
		Rates: []float64{0, 0.01, 0.02, 0.04, 0.08, 0.16},
		N:     20000,
		Reps:  3,
	}
}

// empSystem builds the standard benchmark instance: emp(n, rate) with FD
// id → salary, plus dept(100).
func empSystem(n int, rate float64, seed int64) (*core.System, workload.EmpReport, error) {
	db := engine.New()
	rep, err := workload.Emp(db, workload.EmpConfig{N: n, ConflictRate: rate, Seed: seed})
	if err != nil {
		return nil, rep, err
	}
	if err := workload.Dept(db, workload.DeptConfig{N: 100, Seed: seed + 1}); err != nil {
		return nil, rep, err
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	sys := core.NewSystem(db, []constraint.Constraint{fd})
	if _, err := sys.Analyze(); err != nil {
		return nil, rep, err
	}
	return sys, rep, nil
}

// execAll runs setup statements in order, stopping at the first error.
func execAll(db *engine.DB, sqls ...string) error {
	for _, q := range sqls {
		if _, _, err := db.Exec(q); err != nil {
			return err
		}
	}
	return nil
}

// timeIt measures fn, repeating reps times and keeping the minimum.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// timeConsistent measures a consistent query, keeping the fastest rep's
// duration together with that same rep's stage statistics (so per-stage
// numbers never exceed the reported total).
func timeConsistent(sys *core.System, sql string, opts core.Options, reps int) (*core.Stats, time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	var (
		best      time.Duration
		bestStats *core.Stats
	)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, st, err := sys.ConsistentQuery(sql, opts)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		if i == 0 || d < best {
			best, bestStats = d, st
		}
	}
	return bestStats, best, nil
}

// CompareRun measures the three strategies of the paper's demo part 3 on
// one query: plain SQL (ignores inconsistency), query rewriting, and
// Hippo.
type CompareRun struct {
	SQL        time.Duration
	QR         time.Duration
	Hippo      time.Duration
	HippoEval  time.Duration
	HippoProve time.Duration
	Candidates int
	Answers    int
	SQLRows    int
	QRRows     int
	QRSupports bool
}

// compare runs all three strategies for sql on sys.
func compare(sys *core.System, sql string, reps int) (CompareRun, error) {
	var out CompareRun
	db := sys.DB()

	d, err := timeIt(reps, func() error {
		res, err := db.Query(sql)
		if err != nil {
			return err
		}
		out.SQLRows = len(res.Rows)
		return nil
	})
	if err != nil {
		return out, err
	}
	out.SQL = d

	rw, err := sys.Rewriter()
	if err == nil {
		plan, perr := rw.RewriteSQL(sql)
		if perr == nil {
			out.QRSupports = true
			d, err = timeIt(reps, func() error {
				res, err := db.RunPlan(plan)
				if err != nil {
					return err
				}
				out.QRRows = len(res.Rows)
				return nil
			})
			if err != nil {
				return out, err
			}
			out.QR = d
		}
	}

	st, d, err := timeConsistent(sys, sql, core.Options{Tier: core.TierForceProver, DisableVerdictCache: true}, reps)
	if err != nil {
		return out, err
	}
	out.Hippo = d
	out.HippoEval = st.Evaluation
	out.HippoProve = st.ProverTime
	out.Candidates = st.Candidates
	out.Answers = st.Answers
	return out, nil
}

// RunAll executes every experiment at the given scale, writing each table
// to w as it completes.
func RunAll(w io.Writer, sc Scale) error {
	runners := []func(Scale) (Table, error){
		E1MoreInformation,
		E2Expressiveness,
		E3TimeVsSize,
		E4TimeVsConflicts,
		E5JoinQuery,
		E6ProverModes,
		E7UnionQuery,
		E8ConflictDetection,
		E9Overhead,
		AblationDetection,
	}
	for _, run := range runners {
		tbl, err := run(sc)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, tbl.Markdown()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Run executes a single experiment by id ("e1".."e9", "ablation-detection").
func Run(id string, sc Scale) (Table, error) {
	switch strings.ToLower(id) {
	case "e1":
		return E1MoreInformation(sc)
	case "e2":
		return E2Expressiveness(sc)
	case "e3":
		return E3TimeVsSize(sc)
	case "e4":
		return E4TimeVsConflicts(sc)
	case "e5":
		return E5JoinQuery(sc)
	case "e6":
		return E6ProverModes(sc)
	case "e7":
		return E7UnionQuery(sc)
	case "e8":
		return E8ConflictDetection(sc)
	case "e9":
		return E9Overhead(sc)
	case "ablation-detection":
		return AblationDetection(sc)
	default:
		return Table{}, fmt.Errorf("bench: unknown experiment %q", id)
	}
}

// Use a selection with ~50% selectivity so candidate sets are non-trivial.
const selectionQuery = "SELECT * FROM emp WHERE salary > 90000"

// differenceQuery forces the prover through negative literals.
const differenceQuery = "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 90000"

// unionQuery extracts disjunctive information; rewriting cannot handle it.
const unionQuery = "SELECT * FROM emp WHERE dept < 50 UNION SELECT * FROM emp WHERE dept >= 50"

// joinQuery joins the fact table with the clean dimension.
const joinQuery = "SELECT e.id, e.name, e.dept, e.salary, d.id, d.dname, d.budget FROM emp e, dept d WHERE e.dept = d.id AND e.salary > 90000"
