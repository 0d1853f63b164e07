package oracle_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hippo"
	"hippo/internal/constraint"
	"hippo/internal/oracle"
	"hippo/internal/value"
)

// tupleSet canonicalizes a result as a sorted, deduplicated set of tuple
// serializations (consistent answers are set-semantic).
func tupleSet(rows []value.Tuple) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		k := value.TupleString(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// randInstance builds a random inconsistent database plus the same
// constraint set registered both on the Hippo system (fast path) and as
// constraint values for the oracle.
func randInstance(rng *rand.Rand) (*hippo.DB, []constraint.Constraint, bool) {
	h := hippo.Open()
	mustExec(h, "CREATE TABLE r (a INT, b INT)")
	mustExec(h, "CREATE TABLE s (a INT, b INT)")
	nr := 3 + rng.Intn(5)
	ns := rng.Intn(4)
	for i := 0; i < nr; i++ {
		mustExec(h, fmt.Sprintf("INSERT INTO r VALUES (%d, %d)", rng.Intn(4), rng.Intn(3)))
	}
	for i := 0; i < ns; i++ {
		mustExec(h, fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", rng.Intn(4), rng.Intn(3)))
	}

	var cs []constraint.Constraint
	if rng.Float64() < 0.8 {
		h.AddFD("r", []string{"a"}, []string{"b"})
		cs = append(cs, constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}})
	}
	if ns > 0 && rng.Float64() < 0.5 {
		h.AddKey("s", "a")
		cs = append(cs, constraint.Key{Rel: "s", Cols: []string{"a"}})
	}
	if ns > 0 && rng.Float64() < 0.3 {
		spec := "r x, s y WHERE x.a = y.a AND x.b < y.b"
		if err := h.AddDenial(spec); err != nil {
			return nil, nil, false
		}
		d, err := constraint.ParseDenial(spec)
		if err != nil {
			return nil, nil, false
		}
		cs = append(cs, d)
	}
	if rng.Float64() < 0.2 {
		spec := "r x WHERE x.a = 3 AND x.b = 2"
		if err := h.AddDenial(spec); err != nil {
			return nil, nil, false
		}
		d, err := constraint.ParseDenial(spec)
		if err != nil {
			return nil, nil, false
		}
		cs = append(cs, d)
	}
	if len(cs) == 0 {
		h.AddFD("r", []string{"a"}, []string{"b"})
		cs = append(cs, constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}})
	}
	return h, cs, true
}

// TestDifferentialFastPathVsOracle fuzzes small instances across FDs,
// keys, and denial constraints and asserts three-way agreement between
// the fast path (envelope + prover over the conflict hypergraph), the
// hitting-set repair enumerator, and this package's independent
// subset-search oracle. The acceptance bar is >= 200 compared instances.
func TestDifferentialFastPathVsOracle(t *testing.T) {
	const wantInstances = 220
	rng := rand.New(rand.NewSource(20260729))
	queries := []string{
		"SELECT * FROM r",
		"SELECT * FROM r WHERE a <= 1",
		"SELECT * FROM r WHERE b = 0 UNION SELECT * FROM r WHERE b = 1",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE a = 0",
		"SELECT * FROM r, s WHERE r.a = s.a",
	}
	instances, attempts := 0, 0
	for instances < wantInstances {
		attempts++
		if attempts > wantInstances*20 {
			t.Fatalf("could not build %d comparable instances in %d attempts", wantInstances, attempts)
		}
		h, cs, ok := randInstance(rng)
		if !ok {
			continue
		}
		o := &oracle.Oracle{DB: h.Engine(), Constraints: cs, MaxConflicting: 10}
		if _, err := o.Repairs(); err != nil {
			continue // too many conflicting tuples; regenerate
		}
		compared := false
		for _, q := range queries {
			want, err := o.ConsistentAnswers(q)
			if err != nil {
				t.Fatalf("oracle %q: %v", q, err)
			}
			got, _, err := h.ConsistentQuery(q)
			if err != nil {
				continue // query/constraint combo outside Hippo's class
			}
			if tupleSet(got.Rows) != tupleSet(want) {
				t.Fatalf("instance %d query %q:\nfast path: %s\noracle:    %s\nconstraints: %v",
					instances, q, tupleSet(got.Rows), tupleSet(want), cs)
			}
			// A repeat against the same view must agree, as must a run
			// pinned to the prover tier.
			again, _, err := h.ConsistentQuery(q)
			if err != nil {
				t.Fatalf("repeat %q: %v", q, err)
			}
			if tupleSet(again.Rows) != tupleSet(want) {
				t.Fatalf("instance %d query %q: repeat disagrees:\nrepeat: %s\noracle: %s",
					instances, q, tupleSet(again.Rows), tupleSet(want))
			}
			pinned, _, err := h.ConsistentQuery(q, hippo.WithProverTier())
			if err != nil {
				t.Fatalf("prover tier %q: %v", q, err)
			}
			if tupleSet(pinned.Rows) != tupleSet(want) {
				t.Fatalf("instance %d query %q: prover tier disagrees with oracle", instances, q)
			}
			enum, err := h.OracleConsistentQuery(q)
			if err == nil && tupleSet(enum) != tupleSet(want) {
				t.Fatalf("instance %d query %q: repair enumerator disagrees with oracle:\nenum:   %s\noracle: %s",
					instances, q, tupleSet(enum), tupleSet(want))
			}
			compared = true
		}
		if compared {
			instances++
		}
	}
	t.Logf("compared %d instances (%d attempts)", instances, attempts)
}

// TestDifferentialCachedPathUnderUpdates stresses re-certification after
// writes: random instances receive interleaved single-row updates
// (including on the unconstrained s, which changes membership without
// touching the hypergraph), and after every round the default path, the
// prover tier, and a freshly built brute-force oracle must agree on every
// query. A verdict stale after an update shows up as a three-way
// disagreement.
func TestDifferentialCachedPathUnderUpdates(t *testing.T) {
	const wantInstances = 30
	rng := rand.New(rand.NewSource(20260730))
	queries := []string{
		"SELECT * FROM r",
		"SELECT * FROM r WHERE a <= 1",
		"SELECT * FROM r EXCEPT SELECT * FROM r WHERE a = 0",
		"SELECT * FROM r EXCEPT SELECT * FROM s",
		"SELECT * FROM r, s WHERE r.a = s.a",
	}
	update := func(h *hippo.DB) {
		switch rng.Intn(4) {
		case 0:
			mustExec(h, fmt.Sprintf("INSERT INTO r VALUES (%d, %d)", rng.Intn(4), rng.Intn(3)))
		case 1:
			mustExec(h, fmt.Sprintf("DELETE FROM r WHERE a = %d AND b = %d", rng.Intn(4), rng.Intn(3)))
		case 2:
			mustExec(h, fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", rng.Intn(4), rng.Intn(3)))
		default:
			mustExec(h, fmt.Sprintf("DELETE FROM s WHERE a = %d", rng.Intn(4)))
		}
	}
	instances, attempts := 0, 0
	for instances < wantInstances {
		attempts++
		if attempts > wantInstances*20 {
			t.Fatalf("could not build %d comparable instances in %d attempts", wantInstances, attempts)
		}
		h, cs, ok := randInstance(rng)
		if !ok {
			continue
		}
		compared := false
		ran := true
		for round := 0; round < 4 && ran; round++ {
			if round > 0 {
				for n := 1 + rng.Intn(2); n > 0; n-- {
					update(h)
				}
			}
			// Rebuild the oracle from the current database state.
			o := &oracle.Oracle{DB: h.Engine(), Constraints: cs, MaxConflicting: 10}
			if _, err := o.Repairs(); err != nil {
				ran = false // updates grew the conflict set past the oracle bound
				break
			}
			for _, q := range queries {
				want, err := o.ConsistentAnswers(q)
				if err != nil {
					t.Fatalf("oracle %q: %v", q, err)
				}
				auto, _, err := h.ConsistentQuery(q)
				if err != nil {
					continue // outside Hippo's class for this constraint set
				}
				pinned, _, err := h.ConsistentQuery(q, hippo.WithProverTier())
				if err != nil {
					t.Fatalf("prover tier %q: %v", q, err)
				}
				if tupleSet(auto.Rows) != tupleSet(want) || tupleSet(pinned.Rows) != tupleSet(want) {
					t.Fatalf("instance %d round %d query %q:\ndefault: %s\nprover:  %s\noracle:  %s\nconstraints: %v",
						instances, round, q, tupleSet(auto.Rows), tupleSet(pinned.Rows), tupleSet(want), cs)
				}
				compared = true
			}
		}
		if compared {
			instances++
		}
	}
	t.Logf("compared %d instances under updates (%d attempts)", instances, attempts)
}
