// Command hippobench runs the Hippo experiment suite that reproduces the
// paper's demonstration (E1–E9 plus the A2 detection ablation, see DESIGN.md §3) and
// prints each result as a Markdown table, ready to paste into
// EXPERIMENTS.md. It is not a performance gate: claims rest on the
// benchmark module under benchmark/.
//
// Usage:
//
//	hippobench                 # all experiments at full scale
//	hippobench -scale quick    # fast smoke run
//	hippobench -exp e3         # a single experiment
//	hippobench -exp e6 -json   # machine-readable record
//	hippobench -sizes 1000,5000,20000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hippo/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: all, e1..e9, ablation-detection")
		scale   = flag.String("scale", "full", "preset scale: quick or full")
		sizes   = flag.String("sizes", "", "comma-separated size override for sweeps (e.g. 1000,5000,20000)")
		n       = flag.Int("n", 0, "fixed-size override for E4/E6/E7/E9")
		reps    = flag.Int("reps", 0, "repetitions per timing (min kept)")
		jsonOut = flag.Bool("json", false, "emit the result table as JSON (single -exp only)")
	)
	flag.Parse()

	var sc bench.Scale
	switch *scale {
	case "quick":
		sc = bench.QuickScale()
	case "full":
		sc = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "hippobench: unknown scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}
	if *sizes != "" {
		var out []int
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "hippobench: bad size %q\n", part)
				os.Exit(2)
			}
			out = append(out, v)
		}
		sc.Sizes = out
	}
	if *n > 0 {
		sc.N = *n
	}
	if *reps > 0 {
		sc.Reps = *reps
	}
	if strings.EqualFold(*exp, "all") {
		if *jsonOut {
			fmt.Fprintln(os.Stderr, "hippobench: -json requires a single -exp")
			os.Exit(2)
		}
		if err := bench.RunAll(os.Stdout, sc); err != nil {
			fmt.Fprintf(os.Stderr, "hippobench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	tbl, err := bench.Run(*exp, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hippobench: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tbl); err != nil {
			fmt.Fprintf(os.Stderr, "hippobench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println(tbl.Markdown())
}
