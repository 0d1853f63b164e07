package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/cqaplan"
	"hippo/internal/engine"
	"hippo/internal/rewrite"
	"hippo/internal/sqlparse"
)

// oracleAnswers computes the consistent answers by repair enumeration —
// the ground truth every tier must match.
func oracleAnswers(t *testing.T, s *System, q string) []string {
	t.Helper()
	en, err := s.RepairEnumerator()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := en.ConsistentAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	return rowStrings(rows)
}

// assertTier runs q under automatic tier selection, asserts the chosen
// strategy and (when wantReason is non-empty) that the demotion reasons
// mention it, then checks the answers against both the forced prover tier
// and the repair-enumeration oracle.
func assertTier(t *testing.T, s *System, q, wantStrategy, wantReason string) *Stats {
	t.Helper()
	res, st, err := s.ConsistentQuery(q, Options{})
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	if st.Strategy != wantStrategy {
		t.Errorf("%q: strategy = %q (reasons %v), want %q", q, st.Strategy, st.TierReasons, wantStrategy)
	}
	if wantReason != "" && !strings.Contains(strings.Join(st.TierReasons, "; "), wantReason) {
		t.Errorf("%q: reasons %v do not mention %q", q, st.TierReasons, wantReason)
	}
	prv, _, err := s.ConsistentQuery(q, Options{Tier: TierForceProver})
	if err != nil {
		t.Fatalf("%q forced prover: %v", q, err)
	}
	got, viaProver := rowStrings(res.Rows), rowStrings(prv.Rows)
	if strings.Join(got, "|") != strings.Join(viaProver, "|") {
		t.Errorf("%q: auto tier %v != forced prover %v", q, got, viaProver)
	}
	want := oracleAnswers(t, s, q)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("%q: auto tier %v != oracle %v", q, got, want)
	}
	return st
}

func TestTierRewriteEligibleSelection(t *testing.T) {
	s := newSystem(t)
	st := assertTier(t, s, "SELECT * FROM emp WHERE salary > 120", "rewrite", "")
	if st.Candidates != 0 {
		t.Errorf("rewrite tier certified %d candidates, want 0", st.Candidates)
	}
	if len(st.TierReasons) != 0 {
		t.Errorf("rewrite tier carries demotion reasons: %v", st.TierReasons)
	}
	if !strings.Contains(FormatStats(st), "tier=rewrite") {
		t.Errorf("FormatStats missing tier line:\n%s", FormatStats(st))
	}
}

// TestTierClassifierDemotions covers the hard guards on the standard
// single-relation instance: each shape must land on the prover with the
// matching reason, and the answers must still agree with the oracle.
func TestTierClassifierDemotions(t *testing.T) {
	cases := []struct {
		name, q, reason string
	}{
		{"self-join", "SELECT * FROM emp e, emp f WHERE e.id = f.id", "self-join"},
		{"key-constant", "SELECT * FROM emp WHERE id = 2", "constant-in-key"},
		{"union", "SELECT * FROM emp WHERE id = 2 UNION SELECT * FROM emp WHERE id = 4", "union"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSystem(t)
			assertTier(t, s, tc.q, "prover", tc.reason)
		})
	}
}

// TestTierAttackCycleDemotes joins two keyed relations through each
// other's non-key columns in both directions: the attack graph is cyclic,
// so no atom's certainty is decidable independently and the classifier
// must refuse the rewrite tier.
func TestTierAttackCycleDemotes(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT)")
	mustExec(db, "CREATE TABLE s (c INT, d INT)")
	mustExec(db, "INSERT INTO r VALUES (1, 10), (1, 20), (2, 10)")
	mustExec(db, "INSERT INTO s VALUES (10, 1), (10, 2), (20, 2)")
	sys := NewSystem(db, []constraint.Constraint{
		constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}},
		constraint.FD{Rel: "s", LHS: []string{"c"}, RHS: []string{"d"}},
	})
	assertTier(t, sys, "SELECT * FROM r, s WHERE r.b = s.c AND s.d = r.a", "prover", "attack-cycle")
}

// TestTierInteractionDemotes is the soundness regression for mixed
// unary/binary constraints: the unary denial kills (1, -5) in every
// repair, so its FD partner (1, 100) is consistent even though it has a
// conflict partner — a per-constraint residue would wrongly discard it.
// The classifier must demote, and the prover must return (1, 100).
func TestTierInteractionDemotes(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, -5), (2, 150)")
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	den, err := constraint.ParseDenial("emp AS x WHERE x.salary < 0")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(db, []constraint.Constraint{fd, den})
	assertTier(t, sys, "SELECT * FROM emp WHERE salary > 50", "prover", "constraint-interaction")
	res, _, err := sys.ConsistentQuery("SELECT * FROM emp WHERE salary > 50", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrings(res.Rows)
	if strings.Join(got, "|") != "(1, 100)|(2, 150)" {
		t.Errorf("answers = %v, want [(1, 100) (2, 150)]", got)
	}
}

// TestTierHybridCoverage: one relation is covered by FD residues, the
// other carries a 3-atom denial the rewriting cannot express. Partial
// coverage earns no tier of its own: the classifier must send the query
// to the prover with the uncovered relation as its reason, the answers
// must match the oracle, and no run may be counted as hybrid.
func TestTierHybridCoverage(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "CREATE TABLE aud (k INT, v INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150)")
	mustExec(db, "INSERT INTO aud VALUES (1, 7), (2, 8), (3, 9)")
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	den, err := constraint.ParseDenial("aud a, aud b, aud c WHERE a.k < b.k AND b.k < c.k AND a.v = 999")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(db, []constraint.Constraint{fd, den})
	assertTier(t, sys, "SELECT * FROM emp e, aud a WHERE e.id = a.k", "prover", "constraint-uncovered")
	if tc := sys.TierCounts(); tc.Hybrid != 0 || tc.Prover == 0 {
		t.Errorf("tier counters = %+v, want prover runs and no hybrid ones", tc)
	}
}

// TestTierReclassifiesOnConstraintChange: the same query must be
// re-decided after a mid-session AddConstraint — the full analysis it
// schedules publishes a view with the new constraint profile.
func TestTierReclassifiesOnConstraintChange(t *testing.T) {
	s := newSystem(t)
	const q = "SELECT * FROM emp WHERE salary > 120"
	assertTier(t, s, q, "rewrite", "")
	den, err := constraint.ParseDenial("emp AS x WHERE x.salary < 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddConstraint(den); err != nil {
		t.Fatal(err)
	}
	assertTier(t, s, q, "prover", "constraint-interaction")
	tc := s.TierCounts()
	if tc.Rewrite == 0 || tc.Prover == 0 {
		t.Errorf("tier counters = %+v, want both rewrite and prover runs recorded", tc)
	}
}

// TestRewriterCachedPerEpoch: Rewriter() must never serve a rewriter
// prepared for an older constraint set — after AddConstraint, the new
// denial is installed as a residue.
func TestRewriterCachedPerEpoch(t *testing.T) {
	s := newSystem(t)
	rw1, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	den, err := constraint.ParseDenial("emp AS x WHERE x.salary < 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddConstraint(den); err != nil {
		t.Fatal(err)
	}
	rw2, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	if rw2.ResidueCount() <= rw1.ResidueCount() {
		t.Errorf("Rewriter() after AddConstraint has %d residues, before %d: stale constraint set",
			rw2.ResidueCount(), rw1.ResidueCount())
	}
}

// TestTierRequireRewriteNoFallback: under TierRequireRewrite a query the
// classifier routes away must surface as ErrRewriteIneligible, not be
// served by the prover; no tier run may be counted.
func TestTierRequireRewriteNoFallback(t *testing.T) {
	s := newSystem(t)
	_, _, err := s.ConsistentQuery("SELECT * FROM emp e, emp f WHERE e.id = f.id", Options{Tier: TierRequireRewrite})
	if !errors.Is(err, ErrRewriteIneligible) {
		t.Fatalf("err = %v, want ErrRewriteIneligible", err)
	}
	if tc := s.TierCounts(); tc != (TierCounters{}) {
		t.Errorf("tier counters = %+v, want none counted", tc)
	}
}

// TestTierRequireRewriteErrors: the strict option must fail eligibility
// misses instead of silently falling back.
func TestTierRequireRewriteErrors(t *testing.T) {
	s := newSystem(t)
	_, _, err := s.ConsistentQuery(
		"SELECT * FROM emp WHERE id = 2 UNION SELECT * FROM emp WHERE id = 4",
		Options{Tier: TierRequireRewrite})
	if !errors.Is(err, ErrRewriteIneligible) {
		t.Fatalf("err = %v, want ErrRewriteIneligible", err)
	}
}

// FuzzTierClassifier drives randomized (instance, constraint set) pairs
// through automatic tier selection and the forced prover tier for every
// query, requiring identical answer sets — the classifier may only ever
// pick a tier whose answers match certification. The serving decision,
// made from the view's constraint profile, must agree with
// cqaplan.Classify over a freshly prepared rewriter on tier and reasons.
func FuzzTierClassifier(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	queries := []string{
		"SELECT * FROM emp",
		"SELECT * FROM emp WHERE salary > 120",
		"SELECT * FROM emp WHERE id = 2",
		"SELECT salary, id FROM emp",
		"SELECT * FROM emp e, emp f WHERE e.id = f.id",
		"SELECT * FROM emp WHERE id = 2 UNION SELECT * FROM emp WHERE id = 4",
		"SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 150",
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		db := engine.New()
		mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
		rows := make([]string, 0, 8)
		for i := 0; i < 2+rng.Intn(7); i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", rng.Intn(4), (1+rng.Intn(4))*50))
		}
		mustExec(db, "INSERT INTO emp VALUES "+strings.Join(rows, ", "))
		cs := []constraint.Constraint{
			constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}},
		}
		if rng.Intn(3) == 0 {
			den, err := constraint.ParseDenial("emp AS x WHERE x.salary > 150")
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, den)
		}
		sys := NewSystem(db, cs)
		defer sys.Close()
		v, err := sys.currentView()
		if err != nil {
			t.Fatal(err)
		}
		rw := rewrite.Prepare(db, cs)
		for _, q := range queries {
			pq, err := sqlparse.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := v.snap.PlanQuery(pq)
			if err != nil {
				t.Fatal(err)
			}
			served, ref := tierDecision(v, plan, Options{}), cqaplan.Classify(rw, cs, plan)
			if served.Tier != ref.Tier || fmt.Sprint(served.Reasons) != fmt.Sprint(ref.Reasons) {
				t.Fatalf("seed %d %q: serving decision %s %v != Classify %s %v",
					seed, q, served.Tier, served.ReasonStrings(), ref.Tier, ref.ReasonStrings())
			}
			auto, sa, err := sys.ConsistentQuery(q, Options{})
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, q, err)
			}
			prv, _, err := sys.ConsistentQuery(q, Options{Tier: TierForceProver})
			if err != nil {
				t.Fatalf("seed %d %q forced prover: %v", seed, q, err)
			}
			g, w := rowStrings(auto.Rows), rowStrings(prv.Rows)
			if strings.Join(g, "|") != strings.Join(w, "|") {
				t.Fatalf("seed %d %q: tier %q answers %v != prover %v (reasons %v)",
					seed, q, sa.Strategy, g, w, sa.TierReasons)
			}
		}
	})
}
