package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hippo"
)

// runSession feeds lines to the REPL and returns the combined output.
func runSession(t *testing.T, lines ...string) string {
	t.Helper()
	db := hippo.Open()
	var out bytes.Buffer
	repl(db, strings.NewReader(strings.Join(lines, "\n")+"\n"), &out)
	return out.String()
}

func TestEndToEndSession(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE emp (id INT, salary INT)",
		"INSERT INTO emp VALUES (1,100), (1,200), (2,150)",
		`\fd emp: id -> salary`,
		`\constraints`,
		`\analyze`,
		`\cq SELECT * FROM emp`,
		`\repairs`,
		`\rw SELECT * FROM emp`,
		`\quit`,
	)
	for _, frag := range []string{
		"ok (2 rows affected)", // create prints 0, insert 3... check below
		"FD emp: id -> salary",
		"edges=1",
		"(2, 150)",
		"2 repairs",
	} {
		if !strings.Contains(out, frag) && frag != "ok (2 rows affected)" {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "answers=1") {
		t.Errorf("consistent query stats missing:\n%s", out)
	}
}

func TestSelectAndErrors(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE t (a INT)",
		"INSERT INTO t VALUES (7)",
		"SELECT * FROM t",
		"SELECT * FROM missing",
		`\fd broken-spec`,
		`\denial ???`,
		`\cq SELECT zzz FROM t`,
		`\unknowncmd`,
		`\key t`,
		`\quit`,
	)
	if !strings.Contains(out, "(7)") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("select output wrong:\n%s", out)
	}
	if strings.Count(out, "error:") < 4 {
		t.Errorf("expected multiple error reports:\n%s", out)
	}
	if !strings.Contains(out, "unknown command") {
		t.Errorf("unknown command not reported:\n%s", out)
	}
	if !strings.Contains(out, "usage: \\key") {
		t.Errorf("key usage not shown:\n%s", out)
	}
}

func TestHelpAndNaiveProver(t *testing.T) {
	out := runSession(t, `\help`, `\quit`)
	if !strings.Contains(out, "consistent answers") {
		t.Errorf("help missing:\n%s", out)
	}
}

func TestKeyAndDenialCommands(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE r (a INT, b INT)",
		"INSERT INTO r VALUES (1, 1), (1, 2)",
		`\key r a`,
		`\denial r x WHERE x.b < 0`,
		`\constraints`,
		`\cq SELECT * FROM r`,
		`\quit`,
	)
	if !strings.Contains(out, "KEY r(a)") || !strings.Contains(out, "FORBID") {
		t.Errorf("constraints missing:\n%s", out)
	}
	if !strings.Contains(out, "(0 rows)") {
		t.Errorf("conflicting rows should not be consistent:\n%s", out)
	}
}

func TestLoadCommand(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "data.sql")
	script := "CREATE TABLE s (x INT);\nINSERT INTO s VALUES (1);\n-- comment\nINSERT INTO s VALUES (2);\n"
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSession(t,
		`\load `+file,
		"SELECT * FROM s",
		`\load /no/such/file.sql`,
		`\quit`,
	)
	if !strings.Contains(out, "loaded 3 statements") {
		t.Errorf("load count wrong:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("loaded data missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("bad load should error:\n%s", out)
	}
}

func TestEmptyConstraintListAndEOF(t *testing.T) {
	// Session ending by EOF (no \quit) must terminate cleanly.
	out := runSession(t, `\constraints`)
	if !strings.Contains(out, "(none)") {
		t.Errorf("empty constraints not shown:\n%s", out)
	}
}

func TestBatchCollectAndEnd(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE b (k INT, v INT)",
		"INSERT INTO b VALUES (1, 10)",
		`\batch`,
		"INSERT INTO b VALUES (2, 20);",
		"INSERT INTO b VALUES (3, 30);",
		"DELETE FROM b WHERE k = 3;",
		"DELETE FROM b WHERE k = 1",
		`\end`,
		"SELECT * FROM b",
		`\quit`,
	)
	if !strings.Contains(out, "batch ok: 4 statements (4 DML in 1 atomic groups, 4 rows affected)") {
		t.Errorf("batch summary missing:\n%s", out)
	}
	// Only (2,20) survives: (3,30) was transient, (1,10) deleted.
	if !strings.Contains(out, "(2, 20)") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("batch result wrong:\n%s", out)
	}
}

func TestBatchAbortAndErrors(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE b (k INT)",
		`\batch`,
		"INSERT INTO b VALUES (1)",
		`\abort`,
		`\batch`,
		"INSERT INTO b VALUES (2); INSERT INTO b VALUES (3, 99)",
		`\end`,
		"SELECT * FROM b",
		`\quit`,
	)
	if !strings.Contains(out, "batch discarded") {
		t.Errorf("abort not reported:\n%s", out)
	}
	if !strings.Contains(out, "rolled back") {
		t.Errorf("failed batch not rolled back:\n%s", out)
	}
	// Neither the aborted nor the rolled-back batch left rows behind.
	if !strings.Contains(out, "(0 rows)") {
		t.Errorf("batch leaked rows:\n%s", out)
	}
}

func TestBatchFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "batch.sql")
	script := "CREATE TABLE f (x INT);\n-- seed rows\nINSERT INTO f VALUES (1);\nINSERT INTO f VALUES (2);\nDELETE FROM f WHERE x = 1;\n"
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSession(t,
		`\batch `+file,
		"SELECT * FROM f",
		`\batch /no/such/file.sql`,
		`\quit`,
	)
	if !strings.Contains(out, "batch ok: 4 statements (3 DML in 1 atomic groups") {
		t.Errorf("file batch summary missing:\n%s", out)
	}
	if !strings.Contains(out, "(1 rows)") {
		t.Errorf("file batch data wrong:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("missing file should error:\n%s", out)
	}
}

func TestLoadHandlesSemicolonInLiteral(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "lit.sql")
	script := "CREATE TABLE z (s TEXT);\nINSERT INTO z VALUES ('a;b');\n"
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSession(t,
		`\load `+file,
		"SELECT * FROM z",
		`\quit`,
	)
	if !strings.Contains(out, "loaded 2 statements") {
		t.Errorf("load count wrong:\n%s", out)
	}
	if !strings.Contains(out, "('a;b')") {
		t.Errorf("literal with semicolon mangled:\n%s", out)
	}
}

func TestCommandsAreCaseInsensitive(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE c (x INT)",
		"INSERT INTO c VALUES (1)",
		`\CQP SELECT * FROM c`,
		`\BATCH`,
		"INSERT INTO c VALUES (2)",
		`\END`,
		`\quit`,
	)
	if !strings.Contains(out, "tier=prover") {
		t.Errorf("\\CQP should pin the prover tier:\n%s", out)
	}
	if !strings.Contains(out, "batch ok: 1 statements") {
		t.Errorf("\\BATCH/\\END should collect and apply:\n%s", out)
	}
}

func TestBatchTruncatedByEOFWarns(t *testing.T) {
	out := runSession(t,
		"CREATE TABLE w (x INT)",
		`\batch`,
		"INSERT INTO w VALUES (1)",
		// input ends without \end
	)
	if !strings.Contains(out, "batch discarded: input ended before \\end") {
		t.Errorf("truncated batch not reported:\n%s", out)
	}
}
