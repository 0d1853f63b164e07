package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hippo"
	"hippo/internal/hclient"
)

// newTestServer builds a Server over db, mounts it on an httptest
// server, and returns a typed client. Cleanup closes everything (the
// Server owns and closes db).
func newTestServer(t *testing.T, db *hippo.DB, cfg Config) (*Server, *hclient.Client) {
	t.Helper()
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, hclient.New(ts.URL, ts.Client())
}

// empDB is the canonical small instance: FD id -> salary, two id-groups
// in conflict, two clean rows.
func empDB(t *testing.T) *hippo.DB {
	t.Helper()
	db := hippo.Open()
	for _, q := range []string{
		"CREATE TABLE emp (id INT, salary INT)",
		"INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150), (3, 300), (3, 310), (4, 50)",
	} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddFD("emp", []string{"id"}, []string{"salary"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// bigJoinServerDB loads two n-row tables whose group join produces
// ~n^2/4 candidates — expensive enough that deadline tests abort it
// mid-flight.
func bigJoinServerDB(t *testing.T, n int) *hippo.DB {
	t.Helper()
	db := hippo.Open()
	for _, q := range []string{
		"CREATE TABLE a (id INT, grp INT)",
		"CREATE TABLE b (id INT, grp INT)",
	} {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	var rows []string
	for i := 0; i < n; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i, i%4))
	}
	for _, tbl := range []string{"a", "b"} {
		if _, _, err := db.Exec("INSERT INTO " + tbl + " VALUES " + strings.Join(rows, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddFD("a", []string{"id"}, []string{"grp"}); err != nil {
		t.Fatal(err)
	}
	return db
}

const serverGrpJoin = "SELECT * FROM a, b WHERE a.grp = b.grp"

func TestEndpoints(t *testing.T) {
	_, c := newTestServer(t, empDB(t), Config{})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	// Plain query sees the raw, inconsistent data.
	res, err := c.Query(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 6 || len(res.Rows) != 6 {
		t.Fatalf("plain query rows = %d, want 6", res.Count)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "id" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Consistent query keeps only rows in every repair.
	res, err = c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wireKey(res.Rows); got != "(2, 150) (4, 50)" {
		t.Fatalf("consistent answers = %q", got)
	}
	if res.Stats == nil || res.Stats.Answers != 2 || res.Stats.Strategy != "rewrite" {
		t.Fatalf("stats = %+v", res.Stats)
	}

	// The pinned prover tier agrees.
	pres, err := c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{Tier: "prover"})
	if err != nil {
		t.Fatal(err)
	}
	if wireKey(pres.Rows) != wireKey(res.Rows) {
		t.Fatalf("prover tier disagrees: %q vs %q", wireKey(pres.Rows), wireKey(res.Rows))
	}
	if pres.Stats.Strategy != "prover" {
		t.Fatalf("pinned run served by the %q tier", pres.Stats.Strategy)
	}

	// Exec write + batch, visible to subsequent queries.
	if _, n, err := c.Exec(ctx, "INSERT INTO emp VALUES (5, 500)"); err != nil || n != 1 {
		t.Fatalf("exec: n=%d err=%v", n, err)
	}
	counts, err := c.Batch(ctx, "INSERT INTO emp VALUES (6, 600)", "DELETE FROM emp WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("batch counts = %v", counts)
	}
	res, err = c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wireKey(res.Rows); got != "(2, 150) (4, 50) (6, 600)" {
		t.Fatalf("post-write answers = %q", got)
	}

	// Exec of a SELECT returns rows.
	sres, n, err := c.Exec(ctx, "SELECT * FROM emp WHERE id = 6")
	if err != nil || sres == nil || n != 1 {
		t.Fatalf("exec select: res=%v n=%d err=%v", sres, n, err)
	}

	// A failing batch reports sql_error and leaves nothing behind.
	if _, err := c.Batch(ctx, "INSERT INTO emp VALUES (7, 700)", "INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("bad batch succeeded")
	}
	res, _ = c.Query(ctx, "SELECT * FROM emp WHERE id = 7", hclient.QueryOpts{})
	if res.Count != 0 {
		t.Fatalf("failed batch left %d rows", res.Count)
	}

	// Stats endpoint.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch == 0 || st.MaxInFlight != 64 || st.Durable || st.Draining {
		t.Fatalf("stats = %+v", st)
	}
	if st.Version != hippo.Version {
		t.Fatalf("version = %q", st.Version)
	}

	// Checkpoint on an in-memory database is a client error.
	var apiErr *hclient.APIError
	if err := c.Checkpoint(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("in-memory checkpoint err = %v", err)
	}

	// An unsupported query shape is a 400 with the unsupported code.
	_, err = c.ConsistentQuery(ctx, "SELECT id FROM emp", hclient.QueryOpts{})
	if !errors.As(err, &apiErr) || apiErr.Code != CodeUnsupported {
		t.Fatalf("unsupported query err = %v", err)
	}
}

// A fresh in-memory server is fully configurable over the wire: schema
// and data via exec, the constraint via /v1/fd, then consistent answers
// reflect the declared FD.
func TestAddFDOverWire(t *testing.T) {
	_, c := newTestServer(t, hippo.Open(), Config{})
	ctx := context.Background()
	if _, _, err := c.Exec(ctx, "CREATE TABLE emp (id INT, salary INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(ctx, "INSERT INTO emp VALUES (1, 100), (1, 200), (2, 150)"); err != nil {
		t.Fatal(err)
	}
	// Before the FD is declared the data is conflict-free: all rows are
	// consistent answers.
	res, err := c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil || res.Count != 3 {
		t.Fatalf("pre-FD answers = %v err = %v", res, err)
	}
	if err := c.AddFD(ctx, "emp: id -> salary"); err != nil {
		t.Fatal(err)
	}
	res, err = c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wireKey(res.Rows); got != "(2, 150)" {
		t.Fatalf("post-FD answers = %q, want (2, 150)", got)
	}
	// A bad spec is a 400.
	if err := c.AddFD(ctx, "nosuch: a -> b"); err == nil {
		t.Fatal("FD on missing relation accepted")
	}
}

// wireKey serializes wire rows the way core tests serialize tuples:
// sorted "(a, b)" pairs joined by spaces. JSON numbers arrive float64.
func wireKey(rows [][]any) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case float64:
				vals[j] = fmt.Sprintf("%d", int64(x))
			default:
				vals[j] = fmt.Sprint(x)
			}
		}
		parts[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	sortStrings(parts)
	return strings.Join(parts, " ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Session lifecycle: pinned queries see one immutable state while the
// live database moves on; releasing (or reaping) the session lets the
// retired view's storage be reclaimed — the satellite-3 contract,
// observed end to end through the API's reclamation counters.
func TestSessionPinningAndReclamation(t *testing.T) {
	_, c := newTestServer(t, empDB(t), Config{})
	ctx := context.Background()

	// First consistent query publishes the initial view.
	if _, err := c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	id, epoch, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("session epoch 0")
	}
	base, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Move the live database: (2,150) becomes inconsistent.
	if _, _, err := c.Exec(ctx, "INSERT INTO emp VALUES (2, 999)"); err != nil {
		t.Fatal(err)
	}
	live, err := c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := wireKey(live.Rows); got != "(4, 50)" {
		t.Fatalf("live answers = %q", got)
	}

	// The pinned session still serves the pre-write state, on both the
	// consistent and the plain path.
	pinned, err := c.ConsistentQuery(ctx, "SELECT * FROM emp", hclient.QueryOpts{Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if got := wireKey(pinned.Rows); got != "(2, 150) (4, 50)" {
		t.Fatalf("pinned answers = %q", got)
	}
	if pinned.Stats.Epoch != epoch {
		t.Fatalf("pinned epoch = %d, want %d", pinned.Stats.Epoch, epoch)
	}
	plain, err := c.Query(ctx, "SELECT * FROM emp", hclient.QueryOpts{Session: id})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count != 6 {
		t.Fatalf("pinned plain rows = %d, want 6 (pre-write)", plain.Count)
	}

	// While the session holds the retired view, its slabs stay pinned.
	held, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if held.ViewsReclaimed != base.ViewsReclaimed {
		t.Fatalf("pinned view reclaimed early (%d -> %d)", base.ViewsReclaimed, held.ViewsReclaimed)
	}

	// Releasing the session lets reclamation proceed.
	if err := c.ReleaseSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.ViewsReclaimed != base.ViewsReclaimed+1 {
		t.Fatalf("views reclaimed %d -> %d, want exactly one more after release",
			base.ViewsReclaimed, after.ViewsReclaimed)
	}
	if after.SlabsReclaimed <= base.SlabsReclaimed {
		t.Fatalf("slabs reclaimed %d -> %d, want growth after release",
			base.SlabsReclaimed, after.SlabsReclaimed)
	}

	// The released session is gone.
	var apiErr *hclient.APIError
	if _, err := c.Query(ctx, "SELECT * FROM emp", hclient.QueryOpts{Session: id}); !errors.As(err, &apiErr) || !errors.Is(err, hclient.ErrUnknownSession) {
		t.Fatalf("query on released session: err = %v", err)
	}
	if err := c.ReleaseSession(ctx, id); !errors.Is(err, hclient.ErrUnknownSession) {
		t.Fatalf("double release: err = %v", err)
	}
}

// The reaper releases idle sessions, observable as the session count
// dropping and the session id turning unknown.
func TestIdleSessionReaper(t *testing.T) {
	_, c := newTestServer(t, empDB(t), Config{SessionIdle: 200 * time.Millisecond})
	ctx := context.Background()
	id, _, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not reaped after 5s (sessions=%d)", st.Sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Query(ctx, "SELECT * FROM emp", hclient.QueryOpts{Session: id}); !errors.Is(err, hclient.ErrUnknownSession) {
		t.Fatalf("reaped session query err = %v", err)
	}
}

// A 50ms client deadline kills a long consistent query promptly on the
// classifier's tier and on the pinned prover tier, and the failure
// arrives as a typed 504.
func TestDeadlineEnforcementOverHTTP(t *testing.T) {
	_, c := newTestServer(t, bigJoinServerDB(t, 3000), Config{})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts hclient.QueryOpts
	}{
		{"streamed", hclient.QueryOpts{Timeout: 50 * time.Millisecond}},
		{"prover", hclient.QueryOpts{Timeout: 50 * time.Millisecond, Tier: "prover"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Now()
			_, err := c.ConsistentQuery(ctx, serverGrpJoin, tc.opts)
			elapsed := time.Since(t0)
			if !errors.Is(err, hclient.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want deadline", err)
			}
			var apiErr *hclient.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
				t.Fatalf("err = %v, want http 504", err)
			}
			// Generous bound for loaded CI machines.
			if elapsed > time.Second {
				t.Fatalf("deadline enforcement took %v (deadline 50ms)", elapsed)
			}
		})
	}
}

// Admission control: with one in-flight slot a concurrent query is shed
// with a typed 429, and capacity returns once the slot frees.
func TestOverloadAdmission(t *testing.T) {
	_, c := newTestServer(t, bigJoinServerDB(t, 3000), Config{MaxInFlight: 1})
	ctx := context.Background()

	slow := make(chan error, 1)
	go func() {
		// Evaluating the 2.25M-row join takes 0.3-1 s on 2-core hosts, so
		// the deadline fires while the query is still evaluating.
		_, err := c.ConsistentQuery(ctx, serverGrpJoin, hclient.QueryOpts{Timeout: 100 * time.Millisecond})
		slow <- err
	}()
	// Wait until the slow query holds the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := c.Query(ctx, "SELECT * FROM a", hclient.QueryOpts{})
	if !errors.Is(err, hclient.ErrOverloaded) {
		t.Fatalf("overload err = %v, want ErrOverloaded", err)
	}
	var apiErr *hclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("overload err = %v, want http 429", err)
	}

	if err := <-slow; !errors.Is(err, hclient.ErrDeadline) {
		t.Fatalf("slow query err = %v, want deadline", err)
	}
	// Capacity is back.
	if _, err := c.Query(ctx, "SELECT * FROM a", hclient.QueryOpts{}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// Drain: in-flight queries are cancelled through their contexts, new
// requests are refused with 503, and Close is clean.
func TestDrainCancelsInFlight(t *testing.T) {
	srv, c := newTestServer(t, bigJoinServerDB(t, 3000), Config{})
	ctx := context.Background()

	slow := make(chan error, 1)
	go func() {
		_, err := c.ConsistentQuery(ctx, serverGrpJoin, hclient.QueryOpts{Timeout: 30 * time.Second})
		slow <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow query never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.Drain()
	select {
	case err := <-slow:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("drained query err = %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not cancel the in-flight query")
	}
	if _, err := c.Query(ctx, "SELECT * FROM a", hclient.QueryOpts{}); !errors.Is(err, hclient.ErrDraining) {
		t.Fatalf("post-drain err = %v, want ErrDraining", err)
	}
	if err := c.Health(ctx); !errors.Is(err, hclient.ErrDraining) {
		t.Fatalf("post-drain health = %v, want ErrDraining", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// A durable server checkpoints through the API and survives the final
// drain checkpoint; reopening the directory recovers the data.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	db, err := hippo.OpenOptions(hippo.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv)
	c := hclient.New(ts.URL, ts.Client())
	ctx := context.Background()

	if _, _, err := c.Exec(ctx, "CREATE TABLE d (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Exec(ctx, "INSERT INTO d VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil || !st.Durable {
		t.Fatalf("stats durable=%v err=%v", st != nil && st.Durable, err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: the served writes are durable.
	db2, err := hippo.OpenOptions(hippo.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query("SELECT * FROM d")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("recovered rows = %v err = %v", res, err)
	}
}

// Timeouts are clamped to MaxTimeout: a huge requested timeout still
// dies at the clamp.
func TestTimeoutClamp(t *testing.T) {
	_, c := newTestServer(t, bigJoinServerDB(t, 3000), Config{MaxTimeout: 50 * time.Millisecond})
	_, err := c.ConsistentQuery(context.Background(), serverGrpJoin,
		hclient.QueryOpts{Timeout: time.Hour})
	if !errors.Is(err, hclient.ErrDeadline) {
		t.Fatalf("err = %v, want deadline via clamp", err)
	}
}
