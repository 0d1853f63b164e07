package bench

import (
	"fmt"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/workload"
)

// workloadEmp is a thin indirection so experiments avoid importing
// workload twice with different configs.
func workloadEmp(db *engine.DB, n int, rate float64, seed int64) (workload.EmpReport, error) {
	return workload.Emp(db, workload.EmpConfig{N: n, ConflictRate: rate, Seed: seed})
}

// AblationPruning compares the prover's blocking-edge DFS with and without
// early independence pruning.
//
// FD-only workloads barely exercise the search (each negative literal has
// few blocker candidates), so this ablation uses the workload that does:
// two readings tables whose entries for the same probe conflict pairwise
// when values disagree (a dense cross-relation denial), queried with a
// difference over their union — producing disjuncts with several negative
// literals whose blocking edges overlap.
func AblationPruning(sc Scale) (Table, error) {
	t := Table{
		ID:    "A1",
		Title: "Ablation: prover early independence pruning (dense denial, union-difference query)",
		Header: []string{"pruning", "total ms", "prover ms", "blocker choices",
			"branches pruned", "answers"},
		Notes: "Early pruning cuts blocking-edge branches as soon as the growing vertex set " +
			"stops being independent; disabling it defers the check to complete assignments. " +
			"Both modes return identical answers.",
	}
	db := engine.New()
	if err := execAll(db,
		"CREATE TABLE ra (probe INT, val INT)",
		"CREATE TABLE rb (probe INT, val INT)"); err != nil {
		return t, err
	}
	// Each probe gets several disagreeing readings in both tables, giving
	// every tuple multiple incident hyperedges.
	probes := sc.N / 40
	if probes < 20 {
		probes = 20
	}
	for p := 0; p < probes; p++ {
		for v := 0; v < 3; v++ {
			if err := execAll(db,
				fmt.Sprintf("INSERT INTO ra VALUES (%d, %d)", p, v),
				fmt.Sprintf("INSERT INTO rb VALUES (%d, %d)", p, v+1)); err != nil {
				return t, err
			}
		}
	}
	// Conflict-free probes keep the certified answer set non-trivial.
	for p := probes; p < probes*2; p++ {
		if err := execAll(db, fmt.Sprintf("INSERT INTO ra VALUES (%d, %d)", p, 7)); err != nil {
			return t, err
		}
	}
	den, err := constraint.ParseDenial("ra a, rb b WHERE a.probe = b.probe AND a.val <> b.val")
	if err != nil {
		return t, err
	}
	sys := core.NewSystem(db, []constraint.Constraint{den})
	if _, err := sys.Analyze(); err != nil {
		return t, err
	}
	const q = "SELECT * FROM ra UNION SELECT * FROM rb EXCEPT SELECT * FROM ra WHERE val = 0"
	for _, disable := range []bool{false, true} {
		st, d, err := timeConsistent(sys, q, core.Options{DisablePruning: disable, Tier: core.TierForceProver, DisableVerdictCache: true}, sc.Reps)
		if err != nil {
			return t, err
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{
			label, ms(d), ms(st.ProverTime),
			fmt.Sprint(st.ProverStats.BlockerChoices),
			fmt.Sprint(st.ProverStats.Pruned),
			fmt.Sprint(st.Answers),
		})
	}
	return t, nil
}

// AblationDetection compares FD conflict detection via hash grouping with
// the generic denial-join path on the same constraint.
func AblationDetection(sc Scale) (Table, error) {
	t := Table{
		ID:     "A2",
		Title:  "Ablation: FD detection fast path vs generic denial join",
		Header: []string{"n", "hash-grouping ms", "generic-join ms", "edges (both)"},
		Notes: "Both paths find identical hyperedges; hash grouping avoids the pairwise " +
			"index probes of the generic path.",
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	for _, n := range sc.Sizes {
		db := engine.New()
		if _, err := workloadEmp(db, n, 0.02, 37); err != nil {
			return t, err
		}
		fast := conflict.NewDetector(db)
		var fastEdges int
		dFast, err := timeIt(sc.Reps, func() error {
			h, _, _, err := fast.Detect([]constraint.Constraint{fd})
			if err != nil {
				return err
			}
			fastEdges = h.NumEdges()
			return nil
		})
		if err != nil {
			return t, err
		}
		slow := conflict.NewDetector(db)
		slow.DisableFDFastPath = true
		var slowEdges int
		dSlow, err := timeIt(sc.Reps, func() error {
			h, _, _, err := slow.Detect([]constraint.Constraint{fd})
			if err != nil {
				return err
			}
			slowEdges = h.NumEdges()
			return nil
		})
		if err != nil {
			return t, err
		}
		if fastEdges != slowEdges {
			return t, fmt.Errorf("bench: detection paths disagree: %d vs %d edges", fastEdges, slowEdges)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(dFast), ms(dSlow), fmt.Sprint(fastEdges),
		})
	}
	return t, nil
}
