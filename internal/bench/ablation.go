package bench

import (
	"fmt"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/workload"
)

// workloadEmp is a thin indirection so experiments avoid importing
// workload twice with different configs.
func workloadEmp(db *engine.DB, n int, rate float64, seed int64) (workload.EmpReport, error) {
	return workload.Emp(db, workload.EmpConfig{N: n, ConflictRate: rate, Seed: seed})
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
		// The FD's denial form runs the generic path: Detect picks the
		// path by constraint type.
		den, err := fd.Denial(db)
		if err != nil {
			return t, err
		}
		det := conflict.NewDetector(db)
		var fastEdges int
		dFast, err := timeIt(sc.Reps, func() error {
			h, _, _, err := det.Detect([]constraint.Constraint{fd})
			if err != nil {
				return err
			}
			fastEdges = h.NumEdges()
			return nil
		})
		if err != nil {
			return t, err
		}
		var slowEdges int
		dSlow, err := timeIt(sc.Reps, func() error {
			h, _, _, err := det.Detect([]constraint.Constraint{den})
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
