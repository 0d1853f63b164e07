//go:build layers

package main

import (
	"testing"
)

// Counts that neither the background maintainer's timing nor the verdict
// cache's arbitrary eviction order can move.
var exactCounts = []string{
	"cq_ops", "candidates", "answers", "cache_hits", "cache_misses", "envelope_queries",
	"prover.tuples", "prover.membership", "prover.blocker_choices", "prover.pruned", "prover.components",
	"ra.rows", "tier.rewrite", "tier.hybrid", "tier.prover", "cqaplan.fallbacks",
	"writes", "write_ops", "statement_bytes", "deltas", "delta_combinations",
	"conflict.detect_combinations", "conflict.edges", "conflict.max_component", "wal.replay_records",
}

// Two traced runs with one seed count the same work, and a traced run
// reports exactly BENCHMARK.json's per-layer metrics.
func TestTracedRunsRepeat(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Errorf("manifest lists %d per-layer metrics, the program declares %d", len(man.PerLayer), len(perLayer))
	}
	for _, w := range workloadNames {
		var recs [2]*record
		for i := range recs {
			c := config{workload: w, seed: 5, seconds: 1, outDir: t.TempDir(), short: true}
			if recs[i], err = runTraced(c); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if recs[i].Failed != 0 {
				t.Errorf("%s: %d of %d checks failed", w, recs[i].Failed, recs[i].Attempted)
			}
		}
		for _, k := range exactCounts {
			if a, b := recs[0].Counts[k], recs[1].Counts[k]; a != b {
				t.Errorf("%s: %s counted %v, then %v", w, k, a, b)
			}
		}
		if len(recs[0].Metrics) != len(man.PerLayer) {
			t.Errorf("%s: run printed %d metrics, manifest lists %d", w, len(recs[0].Metrics), len(man.PerLayer))
		}
		for i, m := range man.PerLayer {
			if got, ok := recs[0].Metrics[m.Name]; !ok || got.Unit != m.Unit || perLayer[i].name != m.Name {
				t.Errorf("%s: %s: run reported %+v (present %v), manifest unit %s", w, m.Name, got, ok, m.Unit)
			}
		}
	}
}
