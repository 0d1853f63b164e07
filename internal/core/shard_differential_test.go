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

// shardDiffQueries covers the SJUD class: selection, join, union,
// difference.
var shardDiffQueries = []string{
	"SELECT * FROM r",
	"SELECT * FROM r WHERE a <= 1",
	"SELECT * FROM r WHERE b = 0 UNION SELECT * FROM r WHERE b = 1",
	"SELECT * FROM r EXCEPT SELECT * FROM r WHERE a = 0",
	"SELECT * FROM r, s WHERE r.a = s.a",
}

// fpMultiset serializes the multiset of component fingerprints of a
// system's hypergraph. Component ids differ between shard layouts (they
// encode the owning shard); fingerprints are pure functions of each
// component's edge set, so the multisets must coincide exactly.
func fpMultiset(s *System) string {
	g := s.Hypergraph()
	if g == nil {
		return ""
	}
	comps := g.Components()
	fps := make([]string, len(comps))
	for i, c := range comps {
		fps[i] = fmt.Sprintf("%016x", c.FP)
	}
	sort.Strings(fps)
	return fmt.Sprint(fps)
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

// TestShardedDifferentialSJUD drives identical randomized SJUD instances
// with interleaved inserts and deletes into an unsharded system (K=1), a
// sharded system (K in {2,3,4}), and — on small enough instances — the
// independent subset-search oracle, asserting at every checkpoint that:
//
//   - consistent answers agree three ways for every query shape;
//   - the component-fingerprint multisets of the sharded and unsharded
//     hypergraphs coincide (shard layout must not change edge-set
//     semantics);
//   - the verdict cache is hit/miss-sound: an immediate re-run misses
//     nothing and returns the same answers.
func TestShardedDifferentialSJUD(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var sawMigration bool
	const instances = 9
	for inst := 0; inst < instances; inst++ {
		k := 2 + inst%3
		t.Run(fmt.Sprintf("inst=%d/k=%d", inst, k), func(t *testing.T) {
			dbU, dbS := engine.New(), engine.New()
			// The exclusion denial links r and s rows sharing b across any a
			// value, so inserts regularly merge components born in different
			// shards — the cross-shard migration path runs under this test.
			excl, err := constraint.ParseDenial("r x, s y WHERE x.b = y.b AND x.a <> y.a")
			if err != nil {
				t.Fatal(err)
			}
			cs := []constraint.Constraint{
				constraint.FD{Rel: "r", LHS: []string{"a"}, RHS: []string{"b"}},
				constraint.Key{Rel: "s", Cols: []string{"a"}},
				excl,
			}
			for _, db := range []*engine.DB{dbU, dbS} {
				mustExec(db, "CREATE TABLE r (a INT, b INT)")
				mustExec(db, "CREATE TABLE s (a INT, b INT)")
			}
			sysU := NewSystem(dbU, cs)
			defer sysU.Close()
			sysS := NewSystemShards(dbS, cs, k)
			defer sysS.Close()
			if got := sysS.Shards(); got != k {
				t.Fatalf("Shards() = %d, want %d", got, k)
			}

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
				mustExec(dbU, stmt)
				mustExec(dbS, stmt)
				if step%6 != 0 {
					continue
				}

				for _, q := range shardDiffQueries {
					ansU, _ := answersOf(t, sysU, q, Options{})
					ansS, _ := answersOf(t, sysS, q, Options{})
					if d := diffStrings(ansU, ansS); d != "" {
						t.Fatalf("step %d, %q: sharded answers diverged from unsharded: %s", step, q, d)
					}

					// Hit/miss soundness: the immediate re-run is served
					// against the same view with no intervening writes, so
					// every candidate must hit and the answers must repeat.
					ans2, st2 := answersOf(t, sysS, q, Options{})
					if d := diffStrings(ansS, ans2); d != "" {
						t.Fatalf("step %d, %q: cached re-run changed answers: %s", step, q, d)
					}
					if st2.CacheMisses != 0 {
						t.Fatalf("step %d, %q: re-run missed %d verdicts, want pure hits", step, q, st2.CacheMisses)
					}
					if st2.Candidates > 0 && st2.CacheHits != int64(st2.Candidates) {
						t.Fatalf("step %d, %q: re-run hit %d of %d candidates", step, q, st2.CacheHits, st2.Candidates)
					}
				}

				if fu, fs := fpMultiset(sysU), fpMultiset(sysS); fu != fs {
					t.Fatalf("step %d: component fingerprint multisets diverged:\nunsharded: %s\nsharded:   %s", step, fu, fs)
				}

				// Ground truth on instances small enough to enumerate.
				o := &oracle.Oracle{DB: dbU, Constraints: cs, MaxConflicting: 10}
				if _, err := o.Repairs(); err == nil {
					for _, q := range shardDiffQueries {
						want, err := o.ConsistentAnswers(q)
						if err != nil {
							t.Fatalf("step %d: oracle %q: %v", step, q, err)
						}
						ansS, _ := answersOf(t, sysS, q, Options{})
						// Consistent answers are set-semantic; the fast path
						// may emit duplicates a SELECT * would (bag
						// semantics), so compare as sets.
						if got, wantS := dedup(ansS), dedup(tupleStrings(want)); fmt.Sprint(got) != fmt.Sprint(wantS) {
							t.Fatalf("step %d, %q: sharded answers %v != oracle %v", step, q, got, wantS)
						}
					}
				}
			}

			// The sharded drain must have exercised the parallel fold, not
			// fallen back to full rebuilds at every step.
			m := sysS.Maintenance()
			if m.FullRebuilds != 1 {
				t.Errorf("sharded system ran %d full rebuilds, want 1 (the initial analysis)", m.FullRebuilds)
			}
			if m.Migrations > 0 {
				sawMigration = true
			}
		})
	}
	if !sawMigration {
		t.Error("no instance exercised a cross-shard migration; the workload no longer covers merges")
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

// TestShardedK1StatsIdentity pins the bit-identity acceptance criterion:
// the same scripted workload through NewSystem and NewSystemShards(…, 1)
// yields identical answers, identical component ids and fingerprints, and
// identical verdict-cache counters.
func TestShardedK1StatsIdentity(t *testing.T) {
	build := func(mk func(db *engine.DB, cs []constraint.Constraint) *System) (*System, *engine.DB) {
		db := engine.New()
		mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
		cs := []constraint.Constraint{constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}}
		return mk(db, cs), db
	}
	sysA, dbA := build(func(db *engine.DB, cs []constraint.Constraint) *System { return NewSystem(db, cs) })
	defer sysA.Close()
	sysB, dbB := build(func(db *engine.DB, cs []constraint.Constraint) *System { return NewSystemShards(db, cs, 1) })
	defer sysB.Close()

	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 120; step++ {
		var stmt string
		if rng.Intn(3) < 2 {
			stmt = fmt.Sprintf("INSERT INTO emp VALUES (%d, %d)", rng.Intn(8), rng.Intn(4))
		} else {
			stmt = fmt.Sprintf("DELETE FROM emp WHERE id = %d", rng.Intn(8))
		}
		mustExec(dbA, stmt)
		mustExec(dbB, stmt)
		if step%10 != 9 {
			continue
		}
		ansA, stA := answersOf(t, sysA, "SELECT * FROM emp", Options{})
		ansB, stB := answersOf(t, sysB, "SELECT * FROM emp", Options{})
		if d := diffStrings(ansA, ansB); d != "" {
			t.Fatalf("step %d: answers differ: %s", step, d)
		}
		if stA.CacheHits != stB.CacheHits || stA.CacheMisses != stB.CacheMisses {
			t.Fatalf("step %d: cache counters differ: hits %d/%d misses %d/%d",
				step, stA.CacheHits, stB.CacheHits, stA.CacheMisses, stB.CacheMisses)
		}
		// Component identity, not just partition equivalence: ids and
		// fingerprints must be equal vertex by vertex.
		ga, gb := sysA.Hypergraph(), sysB.Hypergraph()
		for _, v := range ga.ConflictingVertices() {
			ra, _ := ga.ComponentOf(v)
			rb, ok := gb.ComponentOf(v)
			if !ok || ra != rb {
				t.Fatalf("step %d: vertex %v component ref %v vs %v — K=1 must be bit-identical", step, v, ra, rb)
			}
		}
		ma, mb := sysA.Maintenance(), sysB.Maintenance()
		if ma.Cache != mb.Cache {
			t.Fatalf("step %d: published cache stats differ:\nA: %+v\nB: %+v", step, ma.Cache, mb.Cache)
		}
	}
}
