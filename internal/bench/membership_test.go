package bench

import (
	"slices"
	"testing"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/prover"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

func TestNaiveMembershipCountsQueries(t *testing.T) {
	db := engine.New()
	if err := execAll(db,
		"CREATE TABLE emp (id INT, salary INT)",
		"INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150), (3, 300), (3, 400)"); err != nil {
		t.Fatal(err)
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	h, ti, _, err := conflict.NewDetector(db).Detect([]constraint.Constraint{fd})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.ParseQuery("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	m := &naiveMembership{db: db.Snapshot(), ti: ti}
	p := prover.New(h, m)
	ok, err := p.IsConsistentAnswer(plan, value.Tuple{value.Int(2), value.Int(150)})
	if err != nil || !ok {
		t.Fatalf("(2,150) should be consistent: %v, %v", ok, err)
	}
	if p.Stats.MembershipChecks == 0 || p.Stats.TuplesChecked != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
	if m.queries != p.Stats.MembershipChecks {
		t.Errorf("naive membership issued %d queries for %d checks", m.queries, p.Stats.MembershipChecks)
	}
}

func TestNaiveMembershipNullColumns(t *testing.T) {
	db := engine.New()
	if err := execAll(db, "CREATE TABLE n (a INT, b INT)", "INSERT INTO n VALUES (1, NULL)"); err != nil {
		t.Fatal(err)
	}
	// With no constraints the tuple index would hold no tables; build it
	// over the relation explicitly.
	tb, err := db.Table("n")
	if err != nil {
		t.Fatal(err)
	}
	m := &naiveMembership{db: db.Snapshot(), ti: conflict.NewTupleIndex(map[string]*storage.Table{"n": tb})}
	ids, err := m.Lookup("n", value.Tuple{value.Int(1), value.Null()})
	if err != nil || len(ids) != 1 {
		t.Errorf("NULL-aware membership = %v, %v", ids, err)
	}
	ids, err = m.Lookup("n", value.Tuple{value.Int(1), value.Int(5)})
	if err != nil || len(ids) != 0 {
		t.Errorf("missing tuple = %v, %v", ids, err)
	}
	if _, err := m.Lookup("n", value.Tuple{value.Int(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := m.Lookup("zzz", value.Tuple{}); err == nil {
		t.Error("unknown relation should error")
	}
}

// TestE6MembershipsAgree checks E6's two series against each other and
// against the serving path's uncached prover tier, and that naive
// membership issues exactly one query per check while indexed issues none.
func TestE6MembershipsAgree(t *testing.T) {
	sys, _, err := empSystem(300, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM emp",
		selectionQuery,
		differenceQuery,
		unionQuery,
	}
	for _, sql := range queries {
		res, err := runMemberships(sys, sql, 1)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		want, _, err := sys.ConsistentQuery(sql, core.Options{Tier: core.TierForceProver, DisableVerdictCache: true})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		slices.SortFunc(want.Rows, value.CompareTuples)
		naive, indexed := res.runs[0], res.runs[1]
		if naive.name != "naive" || indexed.name != "indexed" {
			t.Fatalf("series = %s, %s", naive.name, indexed.name)
		}
		for _, r := range res.runs {
			slices.SortFunc(r.answers, value.CompareTuples)
			if !slices.EqualFunc(r.answers, want.Rows, value.TuplesEqual) {
				t.Errorf("%q: %s answers %d rows, ConsistentQuery %d", sql, r.name, len(r.answers), len(want.Rows))
			}
		}
		if naive.stats.MembershipChecks == 0 || naive.stats.MembershipChecks != indexed.stats.MembershipChecks {
			t.Errorf("%q: membership checks naive=%d indexed=%d", sql,
				naive.stats.MembershipChecks, indexed.stats.MembershipChecks)
		}
		if naive.queries != naive.stats.MembershipChecks {
			t.Errorf("%q: naive issued %d queries for %d checks", sql, naive.queries, naive.stats.MembershipChecks)
		}
		if indexed.queries != 0 {
			t.Errorf("%q: indexed issued %d queries", sql, indexed.queries)
		}
	}
}
