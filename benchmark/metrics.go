package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists, in print order, the metrics a --trace 0 run reports on
// every workload; BENCHMARK.json carries the same names with their bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cq_p50_ms", "ms"},
	{"cq_p95_ms", "ms"},
	{"cq_over_sql_x", "ratio"},
	{"rss_peak_mb", "MB"},
	{"alloc_kb_per_op", "KB"},
}

// durations collects latencies in nanoseconds.
type durations []float64

func (d *durations) add(t time.Duration) { *d = append(*d, float64(t)) }

// addPer records t spread over n units of work.
func (d *durations) addPer(t time.Duration, n int) {
	if n > 0 {
		*d = append(*d, float64(t)/float64(n))
	}
}

// quantile returns the nearest-rank q-quantile in milliseconds, 0 if empty.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))] / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// host describes where a record was measured.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FS         string  `json:"fs"`           // filesystem of the data directory
	Fsync100Ms float64 `json:"fsync_100_ms"` // 100 x (write 4 KiB, fsync)
}

func describeHost(dataDir, commit string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit, FS: "unknown"}
	if abs, err := filepath.Abs(dataDir); err == nil {
		dataDir = abs
	}
	if mounts, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(mounts), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(dataDir+"/", strings.TrimSuffix(f[1], "/")+"/") && len(f[1]) >= len(best) {
				best, h.FS = f[1], f[2]
			}
		}
	}
	if f, err := os.CreateTemp(dataDir, "fsync-probe"); err == nil {
		block := make([]byte, 4096)
		t0 := time.Now()
		for i := 0; i < 100 && err == nil; i++ {
			if _, err = f.Write(block); err == nil {
				err = f.Sync()
			}
		}
		if err == nil {
			h.Fsync100Ms = float64(time.Since(t0)) / 1e6
		}
		f.Close()
		os.Remove(f.Name())
	}
	return h
}

// record is everything one run reports; -json appends it to a file as one
// line, and -compare reads such files.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`         // the contract's metrics
	Extra     map[string]metric  `json:"extra,omitempty"` // workload-specific and diagnostic
	Counts    map[string]float64 `json:"counts,omitempty"`
}

// print writes every metric as "name value unit", then the one-line result
// the driver reads.
func (r *record) print() {
	line := func(names []string, m map[string]metric) {
		for _, n := range names {
			fmt.Printf("%-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	line(sortedKeys(r.Extra), r.Extra)
	names := sortedKeys(r.Metrics)
	if !r.Trace {
		names = names[:0]
		for _, e := range endToEnd {
			names = append(names, e.name)
		}
	}
	line(names, r.Metrics)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *record) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
