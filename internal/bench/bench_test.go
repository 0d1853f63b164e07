package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// checkTable validates a table's structural invariants.
func checkTable(t *testing.T, tbl Table, wantRows int) {
	t.Helper()
	if tbl.ID == "" || tbl.Title == "" || len(tbl.Header) == 0 {
		t.Fatalf("table metadata incomplete: %+v", tbl)
	}
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%s: rows = %d, want %d", tbl.ID, len(tbl.Rows), wantRows)
	}
	for _, r := range tbl.Rows {
		if len(r) != len(tbl.Header) {
			t.Fatalf("%s: row width %d != header width %d", tbl.ID, len(r), len(tbl.Header))
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "### "+tbl.ID) || strings.Count(md, "|") < len(tbl.Header) {
		t.Errorf("%s: markdown malformed:\n%s", tbl.ID, md)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return f
}

func TestE1MoreInformation(t *testing.T) {
	tbl, err := E1MoreInformation(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 5)
	strictWin := false
	for _, r := range tbl.Rows {
		cqa := mustFloat(t, r[1])
		del := mustFloat(t, r[2])
		plain := mustFloat(t, r[3])
		if cqa < del {
			t.Errorf("%s: CQA %v < deletion %v — contradicts demo claim", r[0], cqa, del)
		}
		if cqa > del {
			strictWin = true
		}
		if plain < cqa {
			t.Errorf("%s: plain %v < CQA %v — plain SQL must over-report", r[0], plain, cqa)
		}
	}
	if !strictWin {
		t.Error("E1 must exhibit a query where CQA strictly beats conflict deletion")
	}
}

func TestE2Expressiveness(t *testing.T) {
	tbl, err := E2Expressiveness(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 8)
	byClass := map[string][]string{}
	for _, r := range tbl.Rows {
		byClass[r[0]] = r
	}
	// Hippo handles SJUD, rewriting does not handle union.
	if byClass["SJU (union)"][2] != "yes" || byClass["SJU (union)"][3] != "no" {
		t.Errorf("union row wrong: %v", byClass["SJU (union)"])
	}
	if byClass["SJUD (all)"][2] != "yes" {
		t.Errorf("SJUD row wrong: %v", byClass["SJUD (all)"])
	}
	// Neither handles unsafe projection.
	if byClass["unsafe P (∃-projection)"][2] != "no" {
		t.Errorf("unsafe P row wrong: %v", byClass["unsafe P (∃-projection)"])
	}
	// Ternary denials: Hippo yes, rewriting no.
	if byClass["S + ternary denial"][2] != "yes" || byClass["S + ternary denial"][3] != "no" {
		t.Errorf("ternary row wrong: %v", byClass["S + ternary denial"])
	}
}

func TestE3TimeVsSize(t *testing.T) {
	sc := QuickScale()
	tbl, err := E3TimeVsSize(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(sc.Sizes))
	for _, r := range tbl.Rows {
		if mustFloat(t, r[3]) <= 0 || mustFloat(t, r[5]) <= 0 {
			t.Errorf("timings must be positive: %v", r)
		}
		candidates := mustFloat(t, r[8])
		answers := mustFloat(t, r[9])
		if answers > candidates {
			t.Errorf("answers %v > candidates %v", answers, candidates)
		}
	}
}

func TestE4TimeVsConflicts(t *testing.T) {
	sc := QuickScale()
	tbl, err := E4TimeVsConflicts(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(sc.Rates))
	// With zero conflicts, candidates == answers.
	first := tbl.Rows[0]
	if first[1] != "0" {
		t.Errorf("0%% row should have 0 edges: %v", first)
	}
	if first[6] != first[7] {
		t.Errorf("0%% conflicts: candidates %s != answers %s", first[6], first[7])
	}
	// More conflicts → fewer answers per candidate.
	last := tbl.Rows[len(tbl.Rows)-1]
	if mustFloat(t, last[7]) > mustFloat(t, first[7]) {
		t.Errorf("answers should not grow with conflict rate: %v vs %v", last, first)
	}
}

func TestE5JoinQuery(t *testing.T) {
	sc := QuickScale()
	tbl, err := E5JoinQuery(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(sc.Sizes))
}

func TestE6ProverModes(t *testing.T) {
	tbl, err := E6ProverModes(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2)
	naive, indexed := tbl.Rows[0], tbl.Rows[1]
	if naive[0] != "naive" || indexed[0] != "indexed" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	// Same answers; naive issues one engine query per membership check,
	// indexed none.
	if naive[6] != indexed[6] {
		t.Errorf("answers differ across modes: %v vs %v", naive, indexed)
	}
	if naive[4] != naive[3] || mustFloat(t, naive[4]) == 0 {
		t.Errorf("naive engine queries (%s) should equal its membership checks (%s)", naive[4], naive[3])
	}
	if indexed[4] != "0" {
		t.Errorf("indexed mode should run no engine queries, got %s", indexed[4])
	}
}

func TestE7UnionQuery(t *testing.T) {
	tbl, err := E7UnionQuery(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 3)
	if tbl.Rows[1][1] != "no" {
		t.Errorf("rewriting should not support union: %v", tbl.Rows[1])
	}
	if tbl.Rows[2][1] != "yes" {
		t.Errorf("hippo should support union: %v", tbl.Rows[2])
	}
}

func TestE8ConflictDetection(t *testing.T) {
	sc := QuickScale()
	tbl, err := E8ConflictDetection(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(sc.Sizes))
	// Edges scale with n at a fixed rate.
	first := mustFloat(t, tbl.Rows[0][4])
	last := mustFloat(t, tbl.Rows[len(tbl.Rows)-1][4])
	if last <= first {
		t.Errorf("edges should grow with n: %v", tbl.Rows)
	}
}

func TestE9Overhead(t *testing.T) {
	tbl, err := E9Overhead(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 4)
	for _, r := range tbl.Rows {
		if !strings.HasSuffix(r[4], "x") {
			t.Errorf("ratio cell should end in x: %v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	sc := QuickScale()
	tbl, err := AblationDetection(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(sc.Sizes))
}

func TestRunAndRunAll(t *testing.T) {
	sc := Scale{Sizes: []int{200}, Rates: []float64{0, 0.05}, N: 300, Reps: 1}
	if _, err := Run("e1", sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("E6", sc); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("zzz", sc); err == nil {
		t.Error("unknown experiment should error")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, sc); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "A2"} {
		if !strings.Contains(out, "### "+id) {
			t.Errorf("RunAll output missing %s", id)
		}
	}
}
