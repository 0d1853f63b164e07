package hippo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"hippo/internal/storage"
	"hippo/internal/value"
)

func paperDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(db, "CREATE TABLE emp (id INT, name TEXT, salary INT)")
	mustExec(db, `INSERT INTO emp VALUES
		(1, 'ann', 100), (1, 'ann', 200),
		(2, 'bob', 150),
		(3, 'cat', 300), (3, 'cat', 400),
		(4, 'dan', 50)`)
	db.AddFD("emp", []string{"id"}, []string{"salary"})
	return db
}

func rows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = value.TupleString(r)
	}
	sort.Strings(out)
	return out
}

func TestQuickstartFlow(t *testing.T) {
	db := paperDB(t)
	rep, err := db.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != 2 || rep.ConflictingTuples != 4 || rep.Constraints != 1 {
		t.Errorf("analysis = %+v", rep)
	}
	res, st, err := db.ConsistentQuery("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	got := rows(res)
	if len(got) != 2 || got[0] != "(2, 'bob', 150)" || got[1] != "(4, 'dan', 50)" {
		t.Errorf("answers = %v", got)
	}
	// The tiered planner serves this FD-only selection from the compiled
	// rewrite — no candidates are certified.
	if st.Strategy != "rewrite" || st.Answers != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(FormatStats(st), "answers=2") ||
		!strings.Contains(FormatStats(st), "tier=rewrite") {
		t.Error("FormatStats")
	}
	// Pinning the prover tier exercises the full certification pipeline
	// on the same query and must agree.
	resP, stP, err := db.ConsistentQuery("SELECT * FROM emp", WithProverTier())
	if err != nil {
		t.Fatal(err)
	}
	if gotP := rows(resP); strings.Join(gotP, "|") != strings.Join(got, "|") {
		t.Errorf("prover tier answers = %v, want %v", gotP, got)
	}
	if stP.Strategy != "prover" || stP.Candidates != 6 || stP.Answers != 2 {
		t.Errorf("prover stats = %+v", stP)
	}
	if c := db.TierCounts(); c.Rewrite != 1 || c.Prover != 1 {
		t.Errorf("tier counts = %+v", c)
	}
}

func TestPlainQueryVsConsistent(t *testing.T) {
	db := paperDB(t)
	plain, err := db.Query("SELECT * FROM emp WHERE salary >= 100")
	if err != nil {
		t.Fatal(err)
	}
	cons, _, err := db.ConsistentQuery("SELECT * FROM emp WHERE salary >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) <= len(cons.Rows) {
		t.Errorf("plain=%d should exceed consistent=%d on inconsistent data",
			len(plain.Rows), len(cons.Rows))
	}
}

func TestRewrittenQueryAgreesOnSJDClass(t *testing.T) {
	db := paperDB(t)
	q := "SELECT * FROM emp WHERE salary > 120"
	viaHippo, _, err := db.ConsistentQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	viaRewrite, err := db.RewrittenQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rows(viaHippo), "|") != strings.Join(rows(viaRewrite), "|") {
		t.Errorf("hippo %v != rewrite %v", rows(viaHippo), rows(viaRewrite))
	}
	// Rewriting rejects UNION; Hippo does not.
	if _, err := db.RewrittenQuery("SELECT * FROM emp UNION SELECT * FROM emp"); err == nil {
		t.Error("rewriting should reject UNION")
	}
	if _, _, err := db.ConsistentQuery("SELECT * FROM emp UNION SELECT * FROM emp"); err != nil {
		t.Errorf("hippo should accept UNION: %v", err)
	}
}

func TestRepairsAndOracle(t *testing.T) {
	db := paperDB(t)
	n, err := db.CountRepairs()
	if err != nil || n != 4 {
		t.Fatalf("repairs = %d, %v; want 4", n, err)
	}
	reps, err := db.Repairs()
	if err != nil || len(reps) != 4 {
		t.Fatalf("materialized repairs = %d, %v", len(reps), err)
	}
	oracleRows, err := db.OracleConsistentQuery("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := db.ConsistentQuery("SELECT * FROM emp")
	if len(oracleRows) != len(res.Rows) {
		t.Errorf("oracle %d != hippo %d", len(oracleRows), len(res.Rows))
	}
}

func TestOptions(t *testing.T) {
	db := paperDB(t)
	_, stCold, err := db.ConsistentQuery("SELECT * FROM emp", WithProverTier(), WithoutVerdictCache())
	if err != nil {
		t.Fatal(err)
	}
	if stCold.Strategy != "prover" || stCold.CacheHits+stCold.CacheMisses != 0 {
		t.Errorf("uncached prover run: strategy=%s cache hits=%d misses=%d",
			stCold.Strategy, stCold.CacheHits, stCold.CacheMisses)
	}
	if stCold.Answers != 2 {
		t.Errorf("uncached prover run changed answers: %+v", stCold)
	}
}

func TestConstraintRegistration(t *testing.T) {
	db := Open()
	mustExec(db, "CREATE TABLE r (a INT, b INT)")
	mustExec(db, "INSERT INTO r VALUES (1, 1), (1, 2)")
	if err := db.AddFDSpec("r: a -> b"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFDSpec("broken"); err == nil {
		t.Error("bad FD spec should error")
	}
	if err := db.AddDenial("r x WHERE x.b < 0"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDenial("r x WHERE ???"); err == nil {
		t.Error("bad denial should error")
	}
	db.AddKey("r", "a")
	cs := db.Constraints()
	if len(cs) != 3 {
		t.Errorf("constraints = %v", cs)
	}
	res, _, err := db.ConsistentQuery("SELECT * FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("all rows conflict; answers = %v", res.Rows)
	}
}

func TestSupport(t *testing.T) {
	db := paperDB(t)
	hippoErr, rwErr, err := db.Support("SELECT * FROM emp UNION SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if hippoErr != nil || rwErr == nil {
		t.Errorf("support: hippo=%v rewrite=%v", hippoErr, rwErr)
	}
}

func TestExecInvalidatesAnalysis(t *testing.T) {
	db := paperDB(t)
	res, _, _ := db.ConsistentQuery("SELECT * FROM emp")
	if len(res.Rows) != 2 {
		t.Fatalf("precondition: %v", rows(res))
	}
	// Adding a conflict for dan must be reflected without manual steps.
	mustExec(db, "INSERT INTO emp VALUES (4, 'dan', 60)")
	res, _, _ = db.ConsistentQuery("SELECT * FROM emp")
	got := rows(res)
	if len(got) != 1 || got[0] != "(2, 'bob', 150)" {
		t.Errorf("after insert, answers = %v", got)
	}
}

func TestWrapAndEngine(t *testing.T) {
	db := Open()
	if db.Engine() == nil {
		t.Fatal("engine should be exposed")
	}
	wrapped := Wrap(db.Engine())
	mustExec(wrapped, "CREATE TABLE x (a INT)")
	if _, err := db.Query("SELECT * FROM x"); err != nil {
		t.Error("Wrap should share the engine")
	}
	if Version == "" {
		t.Error("version should be set")
	}
}

func TestConsistentAggregatePublicAPI(t *testing.T) {
	db := Open()
	mustExec(db, "CREATE TABLE pay (emp INT, amt INT)")
	mustExec(db, "INSERT INTO pay VALUES (1, 10), (1, 20), (2, 5)")
	db.AddFD("pay", []string{"emp"}, []string{"amt"})
	r, err := db.ConsistentAggregate("pay", AggSum, "amt", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Lower.I != 15 || r.Upper.I != 25 {
		t.Errorf("sum range = %v", r)
	}
	// Both of employee 1's salary variants exceed 7, so the count is 1 in
	// every repair; employee 2's 5 never qualifies.
	r, err = db.ConsistentAggregate("pay", AggCount, "", "amt > 7")
	if err != nil || r.Lower.I != 1 || r.Upper.I != 1 {
		t.Errorf("count range = %v, %v", r, err)
	}
	// A filter straddling the conflict gives a genuine range.
	r, err = db.ConsistentAggregate("pay", AggCount, "", "amt > 15")
	if err != nil || r.Lower.I != 0 || r.Upper.I != 1 {
		t.Errorf("straddling count range = %v, %v", r, err)
	}
	// Requires exactly one FD on the relation.
	db2 := Open()
	mustExec(db2, "CREATE TABLE x (a INT, b INT)")
	if _, err := db2.ConsistentAggregate("x", AggMin, "a", ""); err == nil {
		t.Error("missing FD should error")
	}
	db2.AddFD("x", []string{"a"}, []string{"b"})
	db2.AddFD("x", []string{"b"}, []string{"a"})
	if _, err := db2.ConsistentAggregate("x", AggMin, "a", ""); err == nil {
		t.Error("multiple FDs should error")
	}
}

// stalledLog is a commit log whose appends wait for release and then
// fail, so the statement in flight rolls back.
type stalledLog struct{ entered, release chan struct{} }

func (l *stalledLog) AppendBatch([]storage.TableChange) error {
	close(l.entered)
	<-l.release
	return errors.New("append refused")
}

func (l *stalledLog) AppendDDL(string) error { return nil }

// TestConsistentAggregateReadsCommittedCut: aggregates must read a
// committed cut. While an INSERT waits in its commit-log append, its rows
// are in the live tables but not committed; the append then fails and the
// insert rolls back, so no aggregate may count them.
func TestConsistentAggregateReadsCommittedCut(t *testing.T) {
	db := Open()
	mustExec(db, "CREATE TABLE emp (id INT, salary INT)")
	mustExec(db, "INSERT INTO emp VALUES (1, 1000)")
	db.AddFD("emp", []string{"id"}, []string{"salary"})
	log := &stalledLog{entered: make(chan struct{}), release: make(chan struct{})}
	db.Engine().SetCommitLog(log)
	defer db.Engine().SetCommitLog(nil)
	insErr := make(chan error, 1)
	go func() {
		_, _, err := db.Exec("INSERT INTO emp VALUES (2, 1000), (3, 1000)")
		insErr <- err
	}()
	<-log.entered

	got := make(chan string, 2)
	go func() {
		r, err := db.ConsistentAggregate("emp", AggCount, "", "")
		got <- fmt.Sprintf("[%v, %v] %v", r.Lower, r.Upper, err)
	}()
	go func() {
		gs, err := db.ConsistentGroupedAggregate("emp", AggCount, "", "", "salary")
		if err != nil || len(gs) != 1 {
			got <- fmt.Sprintf("groups %v %v", gs, err)
			return
		}
		got <- fmt.Sprintf("[%v, %v] %v", gs[0].Range.Lower, gs[0].Range.Upper, err)
	}()
	const want = "[1, 1] <nil>"
	check := func(g string) {
		if g != want {
			t.Errorf("COUNT over emp = %s, want %s: the aggregate read an uncommitted insert", g, want)
		}
	}
	// An aggregate reading the live tables answers while the append is
	// stalled; one reading a committed cut waits for the commit to end.
	read := 0
	for stalled := time.After(100 * time.Millisecond); read < 2; read++ {
		select {
		case g := <-got:
			check(g)
			continue
		case <-stalled:
		}
		break
	}
	close(log.release)
	if err := <-insErr; err == nil {
		t.Fatal("INSERT committed although its append failed")
	}
	for ; read < 2; read++ {
		check(<-got)
	}
}

func TestConsistentQueryOrdering(t *testing.T) {
	db := paperDB(t)
	res, _, err := db.ConsistentQuery("SELECT * FROM emp ORDER BY salary DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][2] != value.Int(150) {
		t.Errorf("top consistent answer = %v", res.Rows)
	}
}

func TestConsistentGroupedAggregatePublicAPI(t *testing.T) {
	db := Open()
	mustExec(db, "CREATE TABLE m (probe INT, reading INT, site INT)")
	mustExec(db, "INSERT INTO m VALUES (1, 10, 100), (1, 20, 100), (2, 5, 200)")
	db.AddFD("m", []string{"probe"}, []string{"reading"})
	groups, err := db.ConsistentGroupedAggregate("m", AggSum, "reading", "", "site")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Key[0] != value.Int(100) ||
		groups[0].Range.Lower != value.Int(10) || groups[0].Range.Upper != value.Int(20) {
		t.Errorf("site 100 = %+v", groups[0])
	}
	if groups[1].Range.Lower != value.Int(5) || groups[1].Range.Upper != value.Int(5) {
		t.Errorf("site 200 = %+v", groups[1])
	}
	if _, err := db.ConsistentGroupedAggregate("m", AggSum, "reading", ""); err == nil {
		t.Error("no group columns should fail")
	}
	db2 := Open()
	mustExec(db2, "CREATE TABLE n (a INT)")
	if _, err := db2.ConsistentGroupedAggregate("n", AggCount, "", "", "a"); err == nil {
		t.Error("missing FD should fail")
	}
}
