package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
)

// Differential property: the streaming certification pipeline (cost-based
// planner + overlapped prover pool) and the tier the classifier picks must
// both match the repair-enumeration oracle on randomized instances, with
// and without interleaved updates flowing through incremental maintenance.

// streamingQueries is the SJUD battery used by every differential test
// below; join shapes exercise the planner's Product→Join rewrite.
var streamingQueries = []string{
	"SELECT * FROM r",
	"SELECT * FROM r WHERE b = 1",
	"SELECT * FROM r WHERE a = 1 AND c <> 0",
	"SELECT * FROM r EXCEPT SELECT * FROM r WHERE c = 2",
	"SELECT * FROM r WHERE b = 0 UNION SELECT * FROM r WHERE b <> 0",
	"SELECT c, a, b FROM r",
	"SELECT * FROM r WHERE a < 2 INTERSECT SELECT * FROM r WHERE c < 2",
	"SELECT r.a, r.b, r.c, s.a, s.d FROM r, s WHERE r.a = s.a",
	"SELECT r.a, r.b, r.c, s.a, s.d FROM r, s WHERE r.a = s.a AND s.d > 0",
}

// randomJoinSystem builds r(a,b,c) with FD a→b (small domains force
// conflicts) plus a clean keyed dimension s(a,d) for the join queries.
func randomJoinSystem(rng *rand.Rand, n int) *System {
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT, b INT, c INT)")
	mustExec(db, "CREATE TABLE s (a INT, d INT)")
	seen := map[string]bool{}
	for inserted := 0; inserted < n; {
		a, b, c := rng.Intn(4), rng.Intn(3), rng.Intn(3)
		key := fmt.Sprintf("%d|%d|%d", a, b, c)
		if seen[key] {
			continue
		}
		seen[key] = true
		mustExec(db, fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", a, b, c))
		inserted++
	}
	for a := 0; a < 4; a++ {
		mustExec(db, fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", a, rng.Intn(3)))
	}
	fd := constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}}
	return NewSystem(db, []constraint.Constraint{fd})
}

// assertMatchesOracle runs q on s twice — on the tier the classifier
// picks and pinned to the streaming prover tier — and compares both
// answer sets to the repair-enumeration ground truth.
func assertMatchesOracle(t *testing.T, s *System, q, label string, opts Options) {
	t.Helper()
	en, err := s.RepairEnumerator()
	if err != nil {
		t.Fatal(err)
	}
	want, err := en.ConsistentAnswers(q)
	if err != nil {
		t.Fatalf("%s %q oracle: %v", label, q, err)
	}
	w := strings.Join(rowStrings(want), "|")
	for _, pin := range []bool{false, true} {
		o := opts
		if pin {
			o.Tier = TierForceProver
		}
		got, st, err := s.ConsistentQuery(q, o)
		if err != nil {
			t.Fatalf("%s %q (pinned=%v): %v", label, q, pin, err)
		}
		if pin && st.Strategy != "prover" {
			t.Fatalf("%s %q: pinned run served by the %s tier", label, q, st.Strategy)
		}
		if g := strings.Join(rowStrings(got.Rows), "|"); g != w {
			t.Fatalf("%s %q (%s tier):\n got    %v\n oracle %v", label, q, st.Strategy, g, w)
		}
	}
}

// TestStreamingMatchesOracleRandomized: static instances, all query
// shapes, both tier choices, against the oracle.
func TestStreamingMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		s := randomJoinSystem(rng, 6+rng.Intn(6))
		for _, q := range streamingQueries {
			assertMatchesOracle(t, s, q, fmt.Sprintf("trial %d", trial), Options{})
		}
		s.Close()
	}
}

// TestStreamingMatchesOracleNoCache repeats the property with the prover
// tier pinned, so every candidate is certified (no verdict cache exists on
// the serving path; the name records the setting it once pinned).
func TestStreamingMatchesOracleNoCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		s := randomJoinSystem(rng, 8)
		for _, q := range streamingQueries {
			assertMatchesOracle(t, s, q, fmt.Sprintf("trial %d", trial),
				Options{Tier: TierForceProver})
		}
		s.Close()
	}
}

// TestStreamingUnderInterleavedUpdates: both tier choices stay
// oracle-correct while inserts and deletes flow through incremental
// maintenance between queries, and every re-certification after a write
// matches the oracle.
func TestStreamingUnderInterleavedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Start r empty: every live row then arrives through the update path,
	// letting the test track the live set exactly.
	s := randomJoinSystem(rng, 0)
	defer s.Close()
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Track live rows so inserts never duplicate an existing tuple: the
	// engine has bag semantics but the repair oracle answers with sets, so
	// duplicates would diverge for reasons unrelated to streaming.
	live := map[string]bool{}
	const steps, checkEvery = 120, 10
	for step := 1; step <= steps; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			a, b, c := rng.Intn(4), rng.Intn(3), rng.Intn(3)
			key := fmt.Sprintf("%d|%d|%d", a, b, c)
			if live[key] {
				continue
			}
			live[key] = true
			mustExec(s.DB(), fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", a, b, c))
		default:
			a, b := rng.Intn(4), rng.Intn(3)
			for c := 0; c < 3; c++ {
				delete(live, fmt.Sprintf("%d|%d|%d", a, b, c))
			}
			mustExec(s.DB(), fmt.Sprintf("DELETE FROM r WHERE a = %d AND b = %d", a, b))
		}
		if step%checkEvery != 0 {
			continue
		}
		for _, q := range streamingQueries {
			assertMatchesOracle(t, s, q, fmt.Sprintf("step %d", step), Options{})
		}
	}
}
