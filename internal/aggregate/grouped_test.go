package aggregate

import (
	"fmt"
	"math/rand"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/repair"
	"hippo/internal/value"
)

// fixture: readings(probe, reading, site) with FD probe -> reading; site
// is the grouping column.
func groupedDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE m (probe INT, reading INT, site INT)")
	mustExec(db, `INSERT INTO m VALUES
		(1, 10, 100),
		(1, 20, 100),
		(2, 5, 100),
		(3, 7, 200),
		(4, 9, 200), (4, 11, 200)`)
	return db
}

func groupedFD() constraint.FD {
	return constraint.FD{Rel: "m", LHS: []string{"probe"}, RHS: []string{"reading"}}
}

func TestConsistentGroupedSum(t *testing.T) {
	db := groupedDB(t)
	res, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query:   Query{Rel: "m", Fn: Sum, Attr: "reading", FD: groupedFD()},
		GroupBy: []string{"site"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("groups = %v", res)
	}
	// site 100: probe1 ∈ {10,20}, probe2 = 5 → SUM ∈ [15, 25].
	g0 := res[0]
	if g0.Key[0] != value.Int(100) || g0.Range.Lower != value.Int(15) || g0.Range.Upper != value.Int(25) {
		t.Errorf("site 100 = %v %v", g0.Key, g0.Range)
	}
	// site 200: probe3 = 7, probe4 ∈ {9,11} → SUM ∈ [16, 18].
	g1 := res[1]
	if g1.Key[0] != value.Int(200) || g1.Range.Lower != value.Int(16) || g1.Range.Upper != value.Int(18) {
		t.Errorf("site 200 = %v %v", g1.Key, g1.Range)
	}
}

func TestConsistentGroupedCountWithFilter(t *testing.T) {
	db := groupedDB(t)
	res, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query:   Query{Rel: "m", Fn: Count, Where: "reading >= 10", FD: groupedFD()},
		GroupBy: []string{"site"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// site 100: probe1's both variants ≥ 10 → count 1 always; probe2 never.
	// site 200: probe4 has variants 9 and 11 → count ∈ [0, 1].
	if len(res) != 2 {
		t.Fatalf("groups = %v", res)
	}
	if res[0].Range.Lower != value.Int(1) || res[0].Range.Upper != value.Int(1) {
		t.Errorf("site 100 count = %v", res[0].Range)
	}
	if res[1].Range.Lower != value.Int(0) || res[1].Range.Upper != value.Int(1) {
		t.Errorf("site 200 count = %v", res[1].Range)
	}
	if !res[1].Range.MayBeEmpty {
		t.Error("site 200 may lose all qualifying rows")
	}
}

func TestConsistentGroupedValidation(t *testing.T) {
	db := groupedDB(t)
	if _, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query: Query{Rel: "m", Fn: Sum, Attr: "reading", FD: groupedFD()},
	}); err == nil {
		t.Error("missing GroupBy should fail")
	}
	if _, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query:   Query{Rel: "m", Fn: Sum, Attr: "reading", FD: groupedFD()},
		GroupBy: []string{"zzz"},
	}); err == nil {
		t.Error("unknown group column should fail")
	}
	if _, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query:   Query{Rel: "m", Fn: Sum, Attr: "reading", Where: "???", FD: groupedFD()},
		GroupBy: []string{"site"},
	}); err == nil {
		t.Error("bad WHERE should fail")
	}
	// The grouped entry point rejects what Consistent rejects.
	mustExec(db, "CREATE TABLE staff (id INT, name TEXT, dept INT)")
	mustExec(db, "INSERT INTO staff VALUES (1, 'ann', 10), (1, 'bob', 10), (2, 'cy', 20)")
	if _, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query: Query{Rel: "staff", Fn: Sum, Attr: "name",
			FD: constraint.FD{Rel: "staff", LHS: []string{"id"}, RHS: []string{"name"}}},
		GroupBy: []string{"dept"},
	}); err == nil {
		t.Error("grouped SUM over a TEXT column should fail")
	}
	otherFD := groupedFD()
	otherFD.Rel = "staff"
	if _, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
		Query:   Query{Rel: "m", Fn: Sum, Attr: "reading", FD: otherFD},
		GroupBy: []string{"site"},
	}); err == nil {
		t.Error("an FD on another relation should fail")
	}
}

// Randomized oracle check: per-group bounds match brute force over all
// repairs. About one in six probe and reading values is NULL.
func TestGroupedRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		db := engine.New()
		mustExec(db, "CREATE TABLE m (probe INT, reading INT, site INT)")
		seen := map[string]bool{}
		n := 5 + rng.Intn(5)
		for len(seen) < n {
			p, r, s := nullable(rng, 3), nullable(rng, 5), rng.Intn(2)
			key := fmt.Sprintf("%s|%s|%d", p, r, s)
			if seen[key] {
				continue
			}
			seen[key] = true
			mustExec(db, fmt.Sprintf("INSERT INTO m VALUES (%s, %s, %d)", p, r, s))
		}
		for _, fn := range []Func{Count, Sum, Min, Max} {
			got, err := ConsistentGrouped(db.Snapshot(), GroupedQuery{
				Query:   Query{Rel: "m", Fn: fn, Attr: "reading", FD: groupedFD()},
				GroupBy: []string{"site"},
			})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, fn, err)
			}
			want := groupedOracle(t, db, fn)
			for _, g := range got {
				site := g.Key[0].I
				w, ok := want[site]
				if !ok {
					t.Errorf("trial %d %s: unexpected group %d", trial, fn, site)
					continue
				}
				if !sameBound(g.Range.Lower, w.Lower) || !sameBound(g.Range.Upper, w.Upper) {
					t.Errorf("trial %d %s site=%d: got %v, oracle %v",
						trial, fn, site, g.Range, w)
				}
			}
		}
	}
}

// groupedOracle brute-forces per-site aggregate bounds over all repairs.
func groupedOracle(t *testing.T, db *engine.DB, fn Func) map[int64]Range {
	t.Helper()
	h, _, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{groupedFD()})
	if err != nil {
		t.Fatal(err)
	}
	repairs, err := (&repair.Enumerator{DB: db, H: h}).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// All sites present in the original database; COUNT/SUM treat a
	// repair without the site as 0 (the implementation's documented
	// convention), MIN/MAX skip such repairs.
	orig, err := db.Query("SELECT * FROM m")
	if err != nil {
		t.Fatal(err)
	}
	allSites := map[int64]bool{}
	for _, row := range orig.Rows {
		allSites[row[2].I] = true
	}
	acc := map[int64]*Range{}
	for _, r := range repairs {
		res, err := r.Query("SELECT * FROM m")
		if err != nil {
			t.Fatal(err)
		}
		// COUNT(*) counts rows; SUM/MIN/MAX skip NULL readings.
		rowsBySite := map[int64]int{}
		bySite := map[int64][]float64{}
		for _, row := range res.Rows {
			site := row[2].I
			rowsBySite[site]++
			if !row[1].IsNull() {
				bySite[site] = append(bySite[site], row[1].AsFloat())
			}
		}
		for site := range allSites {
			vals := bySite[site]
			var v float64
			switch fn {
			case Count:
				v = float64(rowsBySite[site])
			case Sum:
				for _, x := range vals {
					v += x
				}
			case Min, Max:
				if len(vals) == 0 {
					continue // aggregate undefined in this repair
				}
				v = vals[0]
				for _, x := range vals {
					if (fn == Min && x < v) || (fn == Max && x > v) {
						v = x
					}
				}
			}
			cur, ok := acc[site]
			if !ok {
				acc[site] = &Range{Lower: value.Float(v), Upper: value.Float(v)}
				continue
			}
			if v < cur.Lower.AsFloat() {
				cur.Lower = value.Float(v)
			}
			if v > cur.Upper.AsFloat() {
				cur.Upper = value.Float(v)
			}
		}
	}
	out := map[int64]Range{}
	for site, r := range acc {
		out[site] = *r
	}
	return out
}
