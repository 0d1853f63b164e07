package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func streamText(workload string, seed int64, client, n int) string {
	st := newStream(workload, d20k, seed, client, clients)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(st.next().text())
		b.WriteByte('\n')
	}
	return b.String()
}

// The inputs are a function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	load := func(seed int64) string { return strings.Join(genDataset(seed, d20k).loadSQL(), ";\n") }
	if load(7) != load(7) {
		t.Error("dataset SQL differs between two generations with one seed")
	}
	if load(7) == load(8) {
		t.Error("dataset SQL is the same for two seeds")
	}
	for _, w := range workloadNames {
		if streamText(w, 7, 1, 500) != streamText(w, 7, 1, 500) {
			t.Errorf("%s: stream differs between two generations with one seed", w)
		}
		if streamText(w, 7, 0, 500) == streamText(w, 8, 0, 500) {
			t.Errorf("%s: stream is the same for two seeds", w)
		}
		if streamText(w, 7, 0, 500) == streamText(w, 7, 1, 500) {
			t.Errorf("%s: two clients draw the same stream", w)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// An untraced run reports exactly BENCHMARK.json's end-to-end metrics, on a
// state-changing workload without a failed check.
func TestEndToEndMetricsMatchManifest(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := runWorkload(config{workload: "mixed_rw_durable", seed: 3, seconds: 0.4, outDir: t.TempDir(), short: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted == 0 {
		t.Errorf("attempted %d, failed %d", rec.Attempted, rec.Failed)
	}
	if len(man.EndToEnd) != len(rec.Metrics) || len(man.EndToEnd) != len(endToEnd) {
		t.Errorf("manifest lists %d end-to-end metrics, the run printed %d, the program declares %d", len(man.EndToEnd), len(rec.Metrics), len(endToEnd))
	}
	for i, m := range man.EndToEnd {
		got, ok := rec.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value == 0 {
			t.Errorf("%s: run reported %+v (present %v), manifest unit %s", m.Name, got, ok, m.Unit)
		}
		if !nameRE.MatchString(m.Name) || endToEnd[i].name != m.Name {
			t.Errorf("%s: bad name or order", m.Name)
		}
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("manifest workloads %v, program %v", names, workloadNames)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range ops {
			r := record{Workload: "rewrite_scan", Metrics: map[string]metric{
				"ops_per_s": {v, "1/s"}, "cq_p50_ms": {10, "ms"}}}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 100, 101, 99, 100)
	for _, tc := range []struct {
		name      string
		ops       []float64
		regressed bool
		verdict   string
	}{
		{"same", []float64{100, 100, 101}, false, "ops_per_s  ok"},
		{"slower", []float64{70, 71, 70}, true, "ops_per_s  regressed"},
		{"noisy", []float64{60, 100, 140, 101}, false, "ops_per_s  unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(base, write(tc.name, tc.ops...), &out)
		if err != nil {
			t.Fatal(err)
		}
		squeezed := regexp.MustCompile(`ops_per_s.* (\w+)\n`).ReplaceAllString(out.String(), "ops_per_s  $1\n")
		if regressed != tc.regressed || !strings.Contains(squeezed, tc.verdict) {
			t.Errorf("%s: regressed %v, output:\n%s", tc.name, regressed, out.String())
		}
	}
}

// The manifest obeys the driver's schema where a mistake is easy to make.
func TestManifestShape(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(top); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("top-level keys %v, want %v", got, want)
	}
	man, _ := readManifest()
	seen := map[string]bool{}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range man.PerLayer {
		if seen[m.Name] || !nameRE.MatchString(m.Name) {
			t.Errorf("%s: used twice or badly named", m.Name)
		}
		seen[m.Name] = true
	}
}
