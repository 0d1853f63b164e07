// Benchmarks regenerating the paper's experiments (one per table/figure;
// see DESIGN.md §3 for the experiment index) plus micro-benchmarks of the
// pipeline stages. Run with:
//
//	go test -bench=. -benchmem
//
// For the full paper-scale sweep with Markdown tables, use cmd/hippobench.
package hippo_test

import (
	"io"
	"testing"

	"hippo/internal/bench"
	"hippo/internal/constraint"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/workload"
)

// benchScale keeps the testing.B wrappers fast while exercising the same
// code paths as the full sweep.
func benchScale() bench.Scale {
	return bench.Scale{
		Sizes: []int{1000, 4000},
		Rates: []float64{0, 0.02, 0.08},
		N:     4000,
		Reps:  1,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1MoreInformation — demo part 1: CQA vs conflict deletion.
func BenchmarkE1MoreInformation(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2Expressiveness — demo part 2: supported classes matrix.
func BenchmarkE2Expressiveness(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE3TimeVsSize — selection query, size sweep (Hippo vs QR vs SQL).
func BenchmarkE3TimeVsSize(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkE4TimeVsConflicts — selection query, conflict-rate sweep.
func BenchmarkE4TimeVsConflicts(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkE5JoinQuery — join query, size sweep.
func BenchmarkE5JoinQuery(b *testing.B) { runExperiment(b, "e5") }

// BenchmarkE6ProverModes — naive vs indexed membership checks.
func BenchmarkE6ProverModes(b *testing.B) { runExperiment(b, "e6") }

// BenchmarkE7UnionQuery — union handling (QR inapplicable).
func BenchmarkE7UnionQuery(b *testing.B) { runExperiment(b, "e7") }

// BenchmarkE8ConflictDetection — hypergraph construction sweep.
func BenchmarkE8ConflictDetection(b *testing.B) { runExperiment(b, "e8") }

// BenchmarkE9Overhead — Hippo/SQL overhead ratios.
func BenchmarkE9Overhead(b *testing.B) { runExperiment(b, "e9") }

// BenchmarkAblationDetection — FD fast path vs generic denial join.
func BenchmarkAblationDetection(b *testing.B) { runExperiment(b, "ablation-detection") }

// --- Micro-benchmarks of individual pipeline stages. ---

// benchSystem builds a reusable analyzed system outside the timed loop.
func benchSystem(b *testing.B, n int, rate float64) *core.System {
	b.Helper()
	db := engine.New()
	if _, err := workload.Emp(db, workload.EmpConfig{N: n, ConflictRate: rate, Seed: 3}); err != nil {
		b.Fatal(err)
	}
	if err := workload.Dept(db, workload.DeptConfig{N: 100, Seed: 4}); err != nil {
		b.Fatal(err)
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	sys := core.NewSystem(db, []constraint.Constraint{fd})
	if _, err := sys.Analyze(); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkStageConflictDetection isolates hypergraph construction.
func BenchmarkStageConflictDetection(b *testing.B) {
	db := engine.New()
	if _, err := workload.Emp(db, workload.EmpConfig{N: 10000, ConflictRate: 0.02, Seed: 5}); err != nil {
		b.Fatal(err)
	}
	fd := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(db, []constraint.Constraint{fd})
		if _, err := sys.Analyze(); err != nil {
			b.Fatal(err)
		}
		sys.Close() // unsubscribe so discarded systems are collectable
	}
}

// BenchmarkStageConsistentSelection times the full pipeline on a selection.
func BenchmarkStageConsistentSelection(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ConsistentQuery(
			"SELECT * FROM emp WHERE salary > 90000", core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageConsistentUnion times the pipeline on a union query.
func BenchmarkStageConsistentUnion(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ConsistentQuery(
			"SELECT * FROM emp WHERE dept < 50 UNION SELECT * FROM emp WHERE dept >= 50",
			core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageConsistentDifference times the pipeline on a difference.
func BenchmarkStageConsistentDifference(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ConsistentQuery(
			"SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary > 90000",
			core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStagePlainSQL is the no-consistency baseline for the same query.
func BenchmarkStagePlainSQL(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DB().Query("SELECT * FROM emp WHERE salary > 90000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageQueryRewriting is the rewriting baseline end to end.
func BenchmarkStageQueryRewriting(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	rw, err := sys.Rewriter()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := rw.RewriteSQL("SELECT * FROM emp WHERE salary > 90000")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.DB().RunPlan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageEngineScan measures raw engine throughput for reference.
func BenchmarkStageEngineScan(b *testing.B) {
	sys := benchSystem(b, 10000, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DB().Query("SELECT * FROM emp"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllQuick exercises the whole harness (what hippobench does).
func BenchmarkRunAllQuick(b *testing.B) {
	sc := bench.Scale{Sizes: []int{500}, Rates: []float64{0, 0.05}, N: 500, Reps: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.RunAll(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}
