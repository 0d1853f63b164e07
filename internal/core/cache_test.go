package core

import (
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
)

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
	_, st1 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if st1.CacheMisses == 0 || st1.CacheHits != 0 {
		t.Fatalf("first run: hits=%d misses=%d, want cold misses only", st1.CacheHits, st1.CacheMisses)
	}
	res, st2 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if st2.CacheMisses != 0 || st2.CacheHits != st1.CacheMisses {
		t.Fatalf("second run: hits=%d misses=%d, want %d pure hits", st2.CacheHits, st2.CacheMisses, st1.CacheMisses)
	}
	if len(res.Rows) != 1 { // only (2,5) survives every repair
		t.Fatalf("answers=%d, want 1", len(res.Rows))
	}
}

// TestVerdictCacheMembershipInvalidation is the pure-membership soundness
// case: an insert into s changes no conflict (s is unconstrained, the
// hypergraph is untouched, every component fingerprint is unchanged), yet
// it must flip a cached difference-query verdict that resolved the
// inserted tuple as absent.
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
		t.Fatalf("after insert into s: answers=%d, want 0 (stale cached verdict served)", len(res.Rows))
	}
	if st.CacheMisses == 0 {
		t.Fatal("the affected candidate was not re-certified")
	}
}

// TestVerdictCacheCleanToConflicting covers the added-edge-vertex path: a
// previously conflict-free tuple is drawn into a conflict by an insert of
// a *different* tuple, so its cached verdict cannot be invalidated by the
// delta's own atom key or by any pre-existing component id.
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
// touches the component, so the survivor's verdict flips to certified.
func TestVerdictCacheComponentInvalidation(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2)")
	const q = "SELECT * FROM r"
	res, _ := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 0 {
		t.Fatalf("before: answers=%d, want 0", len(res.Rows))
	}
	mustExec(sys.DB(), "DELETE FROM r WHERE b = 2")
	res, st := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	if len(res.Rows) != 1 {
		t.Fatalf("after delete: answers=%d, want 1", len(res.Rows))
	}
	if st.Maintenance.Cache.Invalidated == 0 {
		t.Fatal("no cache invalidations recorded")
	}
}

// TestVerdictCacheLocalizedInvalidation: an update in one conflict
// component must not evict verdicts whose dependencies live in others.
func TestVerdictCacheLocalizedInvalidation(t *testing.T) {
	sys := cacheSystem(t, "(1,1), (1,2), (2,5), (2,6), (3,7)")
	const q = "SELECT * FROM r"
	_, st1 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	cold := st1.CacheMisses
	if cold != 5 {
		t.Fatalf("cold misses=%d, want 5", cold)
	}
	// Touch only the a=1 component.
	mustExec(sys.DB(), "INSERT INTO r VALUES (1,3)")
	_, st2 := mustCQ(t, sys, q, Options{Tier: TierForceProver})
	// New candidate (1,3) plus re-certification of the a=1 pair; (2,5),
	// (2,6), (3,7) must come from the cache.
	if st2.CacheHits != 3 {
		t.Fatalf("hits=%d, want 3 (untouched components re-certified?)", st2.CacheHits)
	}
	if st2.CacheMisses != 3 {
		t.Fatalf("misses=%d, want 3", st2.CacheMisses)
	}
}

// TestVerdictCacheAgreesWithUncached drives a small update stream and
// asserts the cached and uncached paths agree on every query.
func TestVerdictCacheAgreesWithUncached(t *testing.T) {
	cached := cacheSystem(t, "(1,1), (1,2), (2,5), (3,7), (3,8)")
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
			want, _ := mustCQ(t, cached, q, Options{Tier: TierForceProver, DisableVerdictCache: true})
			got, _ := mustCQ(t, cached, q, Options{Tier: TierForceProver})
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s %q: cached=%d uncached=%d answers",
					stage, q, len(got.Rows), len(want.Rows))
			}
		}
	}
	check("initial")
	for _, u := range updates {
		mustExec(cached.DB(), u)
		check(u)
	}
}
