package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// readManifest finds BENCHMARK.json beside or above the working directory.
func readManifest() (*manifest, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	m := new(manifest)
	return m, json.Unmarshal(raw, m)
}

// readRecords reads a -json file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if med := median(s); med != 0 {
		return (quartile(3) - quartile(1)) / med
	}
	return 0
}

// compareFiles prints, per workload and end-to-end metric, the medians of
// the two record files, b's relative difference from a, the bound and a
// verdict: regressed when b is worse by more than the bound, unresolved
// when it is not but either side's spread is wider than the bound, else ok.
func compareFiles(a, b string, w io.Writer) (regressed bool, err error) {
	man, err := readManifest()
	if err != nil {
		return false, err
	}
	values := func(path string) (map[string]map[string][]float64, []record, error) {
		recs, err := readRecords(path)
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
			out[r.Workload]["failed"] = append(out[r.Workload]["failed"], float64(r.Failed))
		}
		return out, recs, err
	}
	va, ra, err := values(a)
	if err != nil {
		return false, err
	}
	vb, rb, err := values(b)
	if err != nil {
		return false, err
	}
	for side, recs := range [][]record{ra, rb} {
		if len(recs) > 0 {
			h := recs[0].Host
			fmt.Fprintf(w, "%c: %d runs, commit %s, %s, nproc %d, GOMAXPROCS %d, fs %s, 100 fsyncs %.1f ms\n",
				'a'+side, len(recs), h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.FS, h.Fsync100Ms)
		}
	}
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "spread", "verdict")
	for _, wl := range workloadNames {
		if va[wl] == nil || vb[wl] == nil {
			continue
		}
		for _, m := range man.EndToEnd {
			x, y := va[wl][m.Name], vb[wl][m.Name]
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			ma, mb := median(x), median(y)
			diff := (mb - ma) / ma
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			sp := max(spread(x), spread(y))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n", wl, m.Name, ma, mb, 100*diff, 100*m.Bound, 100*sp, verdict)
		}
		// Any increase in failures is a regression.
		if fa, fb := median(va[wl]["failed"]), median(vb[wl]["failed"]); fb > fa {
			regressed = true
			fmt.Fprintf(w, "%-18s %-16s %12.0f %12.0f %38s\n", wl, "failed", fa, fb, "regressed")
		}
	}
	return regressed, nil
}
