package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/oracle"
	"hippo/internal/value"
)

// sjudQueries covers the SJUD class: selection, join, union, difference.
var sjudQueries = []string{
	"SELECT * FROM r",
	"SELECT * FROM r WHERE a <= 1",
	"SELECT * FROM r WHERE b = 0 UNION SELECT * FROM r WHERE b = 1",
	"SELECT * FROM r EXCEPT SELECT * FROM r WHERE a = 0",
	"SELECT * FROM r, s WHERE r.a = s.a",
}

func answersOf(t *testing.T, s *System, q string, opts Options) ([]string, *Stats) {
	t.Helper()
	res, st, err := s.ConsistentQuery(q, opts)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return rowStrings(res.Rows), st
}

func tupleStrings(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

// TestIncrementalDifferentialSJUD drives randomized SJUD instances with
// interleaved inserts and deletes through incremental maintenance and
// asserts at every checkpoint that:
//
//   - on instances small enough to enumerate, the consistent answers of
//     every query shape equal the independent subset-search oracle's;
//   - an immediate re-run against the same view returns the same
//     answers;
//
// and at the end that every change was folded in incrementally (one full
// rebuild: the initial analysis).
func TestIncrementalDifferentialSJUD(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const instances = 9
	for inst := 0; inst < instances; inst++ {
		t.Run(fmt.Sprintf("inst=%d", inst), func(t *testing.T) {
			db := engine.New()
			// The exclusion denial links r and s rows sharing b across any a
			// value, so inserts regularly merge components.
			excl, err := constraint.ParseDenial("r x, s y WHERE x.b = y.b AND x.a <> y.a")
			if err != nil {
				t.Fatal(err)
			}
			cs := []constraint.Constraint{
				constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}},
				constraint.Key{Rel: "s", Cols: []string{"a"}},
				excl,
			}
			mustExec(db, "CREATE TABLE r (a INT, b INT)")
			mustExec(db, "CREATE TABLE s (a INT, b INT)")
			sys := NewSystem(db, cs)
			defer sys.Close()

			const steps = 60
			for step := 1; step <= steps; step++ {
				var stmt string
				switch rng.Intn(4) {
				case 0, 1:
					stmt = fmt.Sprintf("INSERT INTO r VALUES (%d, %d)", rng.Intn(6), rng.Intn(3))
				case 2:
					stmt = fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", rng.Intn(6), rng.Intn(3))
				default:
					if rng.Intn(2) == 0 {
						stmt = fmt.Sprintf("DELETE FROM r WHERE a = %d AND b = %d", rng.Intn(6), rng.Intn(3))
					} else {
						stmt = fmt.Sprintf("DELETE FROM s WHERE a = %d", rng.Intn(6))
					}
				}
				mustExec(db, stmt)
				if step%6 != 0 {
					continue
				}

				// Ground truth on instances small enough to enumerate.
				o := &oracle.Oracle{DB: db, Constraints: cs, MaxConflicting: 10}
				_, oerr := o.Repairs()
				for _, q := range sjudQueries {
					ans, _ := answersOf(t, sys, q, Options{})
					if oerr == nil {
						want, err := o.ConsistentAnswers(q)
						if err != nil {
							t.Fatalf("step %d: oracle %q: %v", step, q, err)
						}
						// Consistent answers are set-semantic; the fast path
						// may emit duplicates a SELECT * would (bag
						// semantics), so compare as sets.
						if got, wantS := dedup(ans), dedup(tupleStrings(want)); fmt.Sprint(got) != fmt.Sprint(wantS) {
							t.Fatalf("step %d, %q: answers %v != oracle %v", step, q, got, wantS)
						}
					}

					// The immediate re-run is served against the same view
					// with no intervening writes, so the answers must repeat.
					ans2, _ := answersOf(t, sys, q, Options{})
					if d := diffStrings(ans, ans2); d != "" {
						t.Fatalf("step %d, %q: re-run changed answers: %s", step, q, d)
					}
				}
			}

			// Every delta must have been folded in, not answered by a full
			// rebuild.
			if m := sys.Maintenance(); m.FullRebuilds != 1 {
				t.Errorf("ran %d full rebuilds, want 1 (the initial analysis)", m.FullRebuilds)
			}
		})
	}
}

func dedup(sorted []string) []string {
	out := sorted[:0:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
