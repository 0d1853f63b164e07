// Command benchmark is Hippo's benchmark: five seeded workloads driven
// through the embedded hippo.DB API and hippod's HTTP API, every answer
// checked. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var c config
	var all bool
	var trace int
	var jsonPath string
	flag.StringVar(&c.workload, "workload", "", "workload to run: certify_cold, certify_hot, rewrite_scan, mixed_rw_durable or serve_http")
	flag.BoolVar(&all, "all", false, "run every workload")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the dataset and the op streams")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: the traced single-client run that reports the per-layer metrics (build with -tags layers)")
	flag.StringVar(&c.outDir, "out", "out", "directory for data files, traces and records")
	flag.StringVar(&c.commit, "commit", "unknown", "commit recorded in the host descriptor")
	flag.StringVar(&jsonPath, "json", "", "append each run's full record to this file, one JSON object per line")
	compare := flag.Bool("compare", false, "compare two record files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	names := []string{c.workload}
	if all {
		names = workloadNames
	}
	for _, name := range names {
		c.workload = name
		if !knownWorkload(name) {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		run := runWorkload
		if trace != 0 {
			run = runTraced
		}
		rec, err := run(c)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if jsonPath != "" {
			if err := rec.appendTo(jsonPath); err != nil {
				fatal(err)
			}
		}
		rec.print()
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
