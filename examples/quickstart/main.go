// Quickstart: the smallest end-to-end Hippo session.
//
// An employee table violates the functional dependency id → salary (two
// conflicting salary records for Ann and for Cat). We compare three views
// of the data:
//
//  1. plain SQL — pretends the data is fine and over-reports;
//  2. repairs — every way the conflicts could be resolved by deletions;
//  3. consistent answers — what Hippo certifies as true in *every* repair,
//     computed without enumerating the repairs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hippo"
	"hippo/internal/value"
)

func main() {
	db := hippo.Open()
	mustExec(db, "CREATE TABLE emp (id INT, name TEXT, salary INT)")
	mustExec(db, `INSERT INTO emp VALUES
		(1, 'ann', 100), (1, 'ann', 200),
		(2, 'bob', 150),
		(3, 'cat', 300), (3, 'cat', 400),
		(4, 'dan', 50)`)
	db.AddFD("emp", []string{"id"}, []string{"salary"})

	rep, err := db.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conflict hypergraph: %d edges over %d conflicting tuples\n\n",
		rep.Edges, rep.ConflictingTuples)

	const q = "SELECT * FROM emp WHERE salary >= 100"

	plain, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain SQL (%d rows — includes uncertain tuples):\n", len(plain.Rows))
	printRows(plain.Rows)

	n, err := db.CountRepairs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe database has %d repairs (2 choices for ann × 2 for cat)\n", n)

	res, stats, err := db.ConsistentQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconsistent answers (%d rows — true in every repair):\n", len(res.Rows))
	printRows(res.Rows)
	if stats.Strategy == "rewrite" {
		fmt.Printf("\ntier: %s — answered by the query plan under conflict filters, %d candidates certified\n",
			stats.Strategy, stats.Candidates)
	} else {
		fmt.Printf("\ntier: %s — %d candidates from the envelope, %d certified by the prover\n",
			stats.Strategy, stats.Candidates, stats.Answers)
		fmt.Printf("prover did %d membership checks using the conflict hypergraph, no repairs materialized\n",
			stats.ProverStats.MembershipChecks)
	}

	// Ground truth for the skeptical: brute force over all repairs.
	oracle, err := db.OracleConsistentQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbrute-force oracle agrees: %d rows\n", len(oracle))
}

func printRows(rows []hippo.Tuple) {
	for _, r := range rows {
		fmt.Println("  ", value.TupleString(r))
	}
}

// mustExec runs a setup statement, exiting with the error on failure (the
// library itself no longer panics on bad statements).
func mustExec(db *hippo.DB, sql string) {
	if _, _, err := db.Exec(sql); err != nil {
		log.Fatalf("setup: %v", err)
	}
}
