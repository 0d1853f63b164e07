// Command hippoctl is an interactive shell for the Hippo system: load
// data with plain SQL, declare integrity constraints, inspect conflicts,
// and compare consistent answers against plain SQL and the rewriting
// baseline.
//
// Meta commands (everything else is executed as SQL):
//
//	\fd <rel>: <a,b> -> <c>     declare a functional dependency
//	\key <rel> <a,b>            declare a key constraint
//	\denial <atoms WHERE cond>  declare a general denial constraint
//	\constraints                list declared constraints
//	\analyze                    run conflict detection, print hypergraph stats
//	\cq <select>                consistent answers (tiered planner picks the strategy)
//	\cqp <select>               consistent answers pinned to the prover tier
//	\cqr <select>               consistent answers, rewrite tier required (errors if ineligible)
//	\rw <select>                consistent answers via query rewriting
//	\maint                      maintenance stats (deltas, rebuilds, views, tier and decided counts)
//	\repairs                    count repairs (small instances only)
//	\load <file.sql>            execute semicolon-separated statements from a file
//	\batch <file.sql>           group-commit a file: DML runs apply atomically
//	\batch ... \end             collect statements, then apply them as one batch
//	\checkpoint                 snapshot durable state and truncate the WAL (-dir mode)
//	\help                       this text
//	\quit                       exit
//
// With -dir <path> the database is durable: tables, indexes, and
// constraints persist under the directory through a write-ahead log and
// checkpoints, and restarting hippoctl with the same -dir resumes exactly
// where the last session committed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hippo"
	"hippo/internal/sqlparse"
	"hippo/internal/value"
)

func main() {
	var (
		dir    = flag.String("dir", "", "durability directory (empty: in-memory)")
		noSync = flag.Bool("nosync", false, "skip per-commit fsync (with -dir)")
	)
	flag.Parse()
	db, err := hippo.OpenOptions(hippo.Options{Dir: *dir, NoSync: *noSync})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hippoctl: %v\n", err)
		os.Exit(1)
	}
	if *dir != "" {
		fmt.Printf("%s — durable at %s — type \\help for commands\n", hippo.Version, *dir)
	} else {
		fmt.Printf("%s — type \\help for commands\n", hippo.Version)
	}
	repl(db, os.Stdin, os.Stdout)
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hippoctl: close: %v\n", err)
		os.Exit(1)
	}
}

func repl(db *hippo.DB, in io.Reader, out io.Writer) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var batch []string // non-nil while collecting \batch ... \end lines
	fmt.Fprint(out, "hippo> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case batch != nil && strings.EqualFold(line, `\end`):
			runBatchScript(db, out, strings.Join(batch, "\n"))
			batch = nil
		case batch != nil && strings.EqualFold(line, `\abort`):
			fmt.Fprintln(out, "batch discarded")
			batch = nil
		case batch != nil:
			if line != "" {
				batch = append(batch, line)
			}
		case strings.EqualFold(line, `\batch`):
			batch = []string{}
			fmt.Fprintln(out, "collecting batch; finish with \\end, discard with \\abort")
		case line != "":
			if !execute(db, out, line) {
				return
			}
		}
		if batch != nil {
			fmt.Fprint(out, "batch> ")
		} else {
			fmt.Fprint(out, "hippo> ")
		}
	}
	if batch != nil {
		fmt.Fprintf(out, "\nbatch discarded: input ended before \\end (%d collected lines not applied)\n", len(batch))
	}
}

// runBatchScript parses a semicolon-separated script and applies it with
// group commit: maximal runs of DML become one atomic ApplyBatch each (no
// consistent query ever observes a prefix of a run), while other
// statements execute individually between runs.
func runBatchScript(db *hippo.DB, out io.Writer, src string) {
	stmts, err := sqlparse.ParseScript(src)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	eng := db.Engine()
	var run []sqlparse.Statement
	total, dml, batches, rows := 0, 0, 0, 0
	flush := func() bool {
		if len(run) == 0 {
			return true
		}
		counts, err := eng.ApplyBatch(run)
		if err != nil {
			fmt.Fprintf(out, "error: %v (batch rolled back)\n", err)
			return false
		}
		// The background checkpointer rides the engine change feed, so
		// these engine-level writes bound the WAL automatically.
		for _, n := range counts {
			rows += n
		}
		total += len(run)
		dml += len(run)
		batches++
		run = nil
		return true
	}
	for _, st := range stmts {
		switch st.(type) {
		case *sqlparse.Insert, *sqlparse.Delete:
			run = append(run, st)
		default:
			if !flush() {
				return
			}
			if _, _, err := eng.ExecStmt(st); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				return
			}
			total++
		}
	}
	if !flush() {
		return
	}
	fmt.Fprintf(out, "batch ok: %d statements (%d DML in %d atomic groups, %d rows affected)\n",
		total, dml, batches, rows)
}

// execute runs one line; it returns false to quit.
func execute(db *hippo.DB, out io.Writer, line string) bool {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(out, "error: %v\n", r)
		}
	}()
	if !strings.HasPrefix(line, "\\") {
		runSQL(db, out, line)
		return true
	}
	cmd, rest, _ := strings.Cut(line[1:], " ")
	cmd = strings.ToLower(cmd)
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "quit", "q", "exit":
		return false
	case "help", "h":
		fmt.Fprintln(out, helpText)
	case "fd":
		if err := db.AddFDSpec(rest); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		} else {
			fmt.Fprintln(out, "ok")
		}
	case "key":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			fmt.Fprintln(out, "usage: \\key <rel> <a,b>")
			break
		}
		if err := db.AddKey(parts[0], strings.Split(parts[1], ",")...); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		} else {
			fmt.Fprintln(out, "ok")
		}
	case "denial":
		if err := db.AddDenial(rest); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		} else {
			fmt.Fprintln(out, "ok")
		}
	case "constraints":
		for _, c := range db.Constraints() {
			fmt.Fprintln(out, " ", c)
		}
		if len(db.Constraints()) == 0 {
			fmt.Fprintln(out, "  (none)")
		}
	case "analyze":
		t0 := time.Now()
		rep, err := db.Analyze()
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(out, "constraints=%d edges=%d conflicting-tuples=%d max-degree=%d (%v)\n",
			rep.Constraints, rep.Edges, rep.ConflictingTuples, rep.MaxDegree, time.Since(t0))
	case "cq", "cqp", "cqr":
		var opts []hippo.Option
		switch cmd {
		case "cqp":
			opts = append(opts, hippo.WithProverTier())
		case "cqr":
			opts = append(opts, hippo.WithRequireRewriteTier())
		}
		res, st, err := db.ConsistentQuery(rest, opts...)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		printResult(out, res)
		fmt.Fprintln(out, hippo.FormatStats(st))
	case "rw":
		res, err := db.RewrittenQuery(rest)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		printResult(out, res)
	case "maint":
		sys := db.System()
		m := sys.Maintenance()
		fmt.Fprintf(out, "deltas-applied=%d edges-added=%d edges-removed=%d combinations=%d full-rebuilds=%d pending=%d\n",
			m.DeltasApplied, m.EdgesAdded, m.EdgesRemoved, m.Combinations,
			m.FullRebuilds, sys.PendingDeltas())
		fmt.Fprintf(out, "delta-queue: overflows=%d\n", m.PendingOverflows)
		if err := sys.MaintenanceHealth(); err != nil {
			fmt.Fprintf(out, "maintenance-error: %v\n", err)
		}
		fmt.Fprintf(out, "epoch=%d views-published=%d views-reclaimed=%d slabs-reclaimed=%d\n",
			sys.Epoch(), m.ViewsPublished, m.ViewsReclaimed, m.SlabsReclaimed)
		tc := db.TierCounts()
		fmt.Fprintf(out, "tiers: rewrite=%d prover=%d certified=%d decided=%d searched=%d\n",
			tc.Rewrite, tc.Prover, tc.Certified, tc.Decided, tc.Certified-tc.Decided)
	case "checkpoint":
		t0 := time.Now()
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(out, "checkpoint written, WAL truncated (%v)\n", time.Since(t0))
	case "repairs":
		n, err := db.CountRepairs()
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(out, "%d repairs\n", n)
	case "batch":
		if rest == "" {
			fmt.Fprintln(out, "usage: \\batch <file.sql> (or bare \\batch to collect lines until \\end)")
			break
		}
		data, err := os.ReadFile(rest)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		runBatchScript(db, out, string(data))
	case "load":
		data, err := os.ReadFile(rest)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		// ParseScript is quote- and comment-aware, so a ';' inside a string
		// literal does not split the statement (unlike a naive split).
		stmts, err := sqlparse.ParseScript(string(data))
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		// Engine-level writes feed the background checkpointer through
		// the change feed, so the WAL stays bounded while loading.
		for i, st := range stmts {
			if _, _, err := db.Engine().ExecStmt(st); err != nil {
				fmt.Fprintf(out, "error at statement %d: %v\n", i+1, err)
				return true
			}
		}
		fmt.Fprintf(out, "loaded %d statements\n", len(stmts))
	default:
		fmt.Fprintf(out, "unknown command \\%s (try \\help)\n", cmd)
	}
	return true
}

func runSQL(db *hippo.DB, out io.Writer, sql string) {
	res, n, err := db.Exec(sql)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if res != nil {
		printResult(out, res)
		return
	}
	fmt.Fprintf(out, "ok (%d rows affected)\n", n)
}

func printResult(out io.Writer, res *hippo.Result) {
	cols := res.Columns()
	fmt.Fprintln(out, strings.Join(cols, " | "))
	for _, row := range res.Rows {
		fmt.Fprintln(out, value.TupleString(row))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
}

const helpText = `  SQL statements run directly (CREATE TABLE / INSERT / DELETE / SELECT).
  \fd <rel>: <a,b> -> <c>     declare a functional dependency
  \key <rel> <a,b>            declare a key constraint
  \denial <atoms WHERE cond>  declare a general denial constraint
  \constraints                list declared constraints
  \analyze                    run conflict detection
  \cq <select>                consistent answers (tiered planner picks the strategy)
  \cqp <select>               consistent answers pinned to the prover tier
  \cqr <select>               consistent answers, rewrite tier required (errors if ineligible)
  \rw <select>                consistent answers via query rewriting
  \maint                      maintenance stats (deltas, rebuilds, views, tier and decided counts)
  \repairs                    count repairs (exponential; small data only)
  \load <file.sql>            run statements from a file
  \batch <file.sql>           group-commit a file (DML runs apply atomically)
  \batch ... \end             collect statements, apply as one atomic batch
  \checkpoint                 snapshot durable state, truncate the WAL (-dir mode)
  \quit                       exit`
