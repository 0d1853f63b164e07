package core

import (
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
)

// The tests in this file are the write patterns a cross-view verdict memo
// would have to invalidate precisely: a repeat with no write, a membership
// flip with no conflict change, a clean tuple drawn into a conflict, a
// component losing an edge, and an update local to one component. No such
// memo sits on the serving path; every run certifies against the view it
// is served from, and these tests pin that each re-certification after a
// write gives the right answers.

// cacheSystem builds r(a,b) with FD a -> b over the given rows, plus an
// empty helper table s(a,b).
func cacheSystem(t *testing.T, rows string) *System {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT)")
	mustExec(db, "CREATE TABLE s (a INT, b INT)")
	if rows != "" {
		mustExec(db, "INSERT INTO r VALUES "+rows)
	}
	fd := constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}}
	sys := NewSystem(db, []constraint.Constraint{fd})
	if _, err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustCQ(t *testing.T, sys *System, sql string, opts Options) (*engine.Result, *Stats) {
	t.Helper()
	res, st, err := sys.ConsistentQuery(sql, opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, st
}

func TestVerdictCacheRepeatHits(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2), (2,5)")
	const q = "SELECT * FROM r"
	first, st1 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	res, st2 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(first.Rows) != 1 || len(res.Rows) != 1 { // only (2,5) survives every repair
		t.Fatalf("answers=%d then %d, want 1", len(first.Rows), len(res.Rows))
	}
	if st1.Candidates != 3 || st2.Candidates != 3 {
		t.Fatalf("candidates=%d then %d, want 3 certified each run", st1.Candidates, st2.Candidates)
	}
}

// TestVerdictCacheMembershipInvalidation is the pure-membership case: an
// insert into s changes no conflict (s is unconstrained, the hypergraph
// is untouched), yet it must flip the verdict of a difference-query
// candidate whose negative atom was absent.
func TestVerdictCacheMembershipInvalidation(t *testing.T) {
	sys := cacheSystem(t, "(2,5)")
	const q = "SELECT * FROM r EXCEPT SELECT * FROM s"
	res, _ := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 1 {
		t.Fatalf("before insert: answers=%d, want 1", len(res.Rows))
	}
	mustExec(sys.DB(), "INSERT INTO s VALUES (2,5)")
	res, st := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 0 {
		t.Fatalf("after insert into s: answers=%d, want 0 (stale verdict served)", len(res.Rows))
	}
	if st.ProverStats.Decided != 1 {
		t.Fatalf("decided=%d, want 1: both atoms are conflict-free, the residual is constant", st.ProverStats.Decided)
	}
}

// TestVerdictCacheCleanToConflicting: a previously conflict-free tuple is
// drawn into a conflict by an insert of a *different* tuple.
func TestVerdictCacheCleanToConflicting(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2), (2,5)")
	const q = "SELECT * FROM r"
	res, _ := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 1 {
		t.Fatalf("before: answers=%d, want 1", len(res.Rows))
	}
	mustExec(sys.DB(), "INSERT INTO r VALUES (2,6)") // conflicts with (2,5)
	res, _ = mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 0 {
		t.Fatalf("after conflicting insert: answers=%d, want 0 (stale verdict for (2,5))", len(res.Rows))
	}
}

// TestVerdictCacheComponentInvalidation: deleting one side of a conflict
// changes the component, so the survivor's verdict flips to certified.
func TestVerdictCacheComponentInvalidation(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2)")
	const q = "SELECT * FROM r"
	res, _ := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 0 {
		t.Fatalf("before: answers=%d, want 0", len(res.Rows))
	}
	mustExec(sys.DB(), "DELETE FROM r WHERE b = 2")
	res, _ = mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 1 {
		t.Fatalf("after delete: answers=%d, want 1", len(res.Rows))
	}
}

// TestVerdictCacheLocalizedInvalidation: an update in one conflict
// component changes the verdicts there and no others.
func TestVerdictCacheLocalizedInvalidation(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2), (2,5), (2,6), (3,7)")
	const q = "SELECT * FROM r"
	res, st1 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if st1.Candidates != 5 || len(res.Rows) != 1 {
		t.Fatalf("before: candidates=%d answers=%d, want 5 and 1", st1.Candidates, len(res.Rows))
	}
	// Touch only the a=1 component; (3,7) stays the one certain answer.
	mustExec(sys.DB(), "INSERT INTO r VALUES (1,3)")
	res, st2 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if st2.Candidates != 6 || len(res.Rows) != 1 {
		t.Fatalf("after: candidates=%d answers=%d, want 6 and 1", st2.Candidates, len(res.Rows))
	}
}

// TestVerdictCacheAgreesWithUncached drives a small update stream and
// asserts both tier choices agree with the repair oracle on every query.
func TestVerdictCacheAgreesWithUncached(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2), (2,5), (3,7), (3,8)")
	queries := []string{
		"SELECT * FROM r",
		"SELECT * FROM r WHERE b <= 5",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE a = 1",
		"SELECT * FROM r WHERE a = 3 UNION SELECT * FROM r WHERE b = 1",
	}
	updates := []string{
		"INSERT INTO r VALUES (2,6)",
		"DELETE FROM r WHERE b = 2",
		"INSERT INTO r VALUES (4,9)",
		"DELETE FROM r WHERE a = 3",
	}
	check := func(stage string) {
		for _, q := range queries {
			assertMatchesOracle(t, sys, q, stage, Options{})
		}
	}
	check("initial")
	for _, u := range updates {
		mustExec(sys.DB(), u)
		check(u)
	}
}
