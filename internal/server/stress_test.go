package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"hippo"
	"hippo/internal/hclient"
)

// stressModel mirrors internal/core's stress harness over the wire: a
// deterministic update sequence on log(gid, val) under FD gid -> val,
// with the legal answer serializations of every prefix precomputed —
// one map for consistent answers (singleton gid groups) and one for
// plain-query answers (all live rows).
type serverStressStep struct {
	insert   bool
	gid, val int
}

func serverStressScript(steps int) (script []serverStressStep, legalCQ, legalPlain map[string]bool) {
	live := map[int][2]int{}
	next := 0
	legalCQ = map[string]bool{}
	legalPlain = map[string]bool{}
	snap := func() {
		count := map[int]int{}
		for _, r := range live {
			count[r[0]]++
		}
		var cq, plain []string
		for _, r := range live {
			row := fmt.Sprintf("(%d, %d)", r[0], r[1])
			plain = append(plain, row)
			if count[r[0]] == 1 {
				cq = append(cq, row)
			}
		}
		sortStrings(cq)
		sortStrings(plain)
		legalCQ[joinSpace(cq)] = true
		legalPlain[joinSpace(plain)] = true
	}
	snap()
	for i := 0; i < steps; i++ {
		var st serverStressStep
		if i%7 == 6 && len(live) > 0 {
			oldest := -1
			for k := range live {
				if oldest < 0 || k < oldest {
					oldest = k
				}
			}
			r := live[oldest]
			st = serverStressStep{insert: false, gid: r[0], val: r[1]}
			delete(live, oldest)
		} else {
			st = serverStressStep{insert: true, gid: i / 3, val: next}
			live[next] = [2]int{st.gid, st.val}
			next++
		}
		script = append(script, st)
		snap()
	}
	return script, legalCQ, legalPlain
}

func joinSpace(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// TestServerStressPrefixConsistency hammers the serving tier with
// concurrent HTTP clients — consistent queries (on the classifier's tier
// and pinned to the prover tier), plain queries, and session-pinned reads
// — racing one writer applying a deterministic update sequence through
// exec and batch. Every response must match a prefix of the update
// sequence and come from the tier the reader expects, epochs are monotone
// per reader, the drain leaves nothing running, and the process returns
// to its goroutine baseline. Run under -race in CI.
func TestServerStressPrefixConsistency(t *testing.T) {
	const steps = 160
	script, legalCQ, legalPlain := serverStressScript(steps)

	// Goroutine baseline before any server machinery exists.
	runtime.GC()
	baseline := runtime.NumGoroutine()

	db := hippo.Open()
	if _, _, err := db.Exec("CREATE TABLE log (gid INT, val INT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFD("log", []string{"gid"}, []string{"val"}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxInFlight: 128})
	ts := httptest.NewServer(srv)
	c := hclient.New(ts.URL, ts.Client())
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: the scripted statements in order, alternating the exec and
	// batch paths (a batch is atomic, so prefix legality is preserved:
	// readers see all of it or none of it).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		stmt := func(st serverStressStep) string {
			if st.insert {
				return fmt.Sprintf("INSERT INTO log VALUES (%d, %d)", st.gid, st.val)
			}
			return fmt.Sprintf("DELETE FROM log WHERE gid = %d AND val = %d", st.gid, st.val)
		}
		for i := 0; i < len(script); i++ {
			// Every 11th step, ship two consecutive statements as one
			// atomic batch. Its intermediate state is never visible, so
			// both the pre- and post-batch prefixes stay legal.
			if i%11 == 10 && i+1 < len(script) {
				if _, err := c.Batch(ctx, stmt(script[i]), stmt(script[i+1])); err != nil {
					t.Errorf("writer batch: %v", err)
					return
				}
				i++
				continue
			}
			if _, _, err := c.Exec(ctx, stmt(script[i])); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	// Consistent-query readers. Odd readers pin the prover tier, so
	// certification races with the writer's view publications; even
	// readers take the tier the classifier picks for a key FD, the
	// rewrite tier.
	const cqReaders = 4
	for r := 0; r < cqReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			opts := hclient.QueryOpts{Timeout: 30 * time.Second}
			wantTier := "rewrite"
			if r%2 == 1 {
				opts.Tier, wantTier = "prover", "prover"
			}
			lastEpoch := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := c.ConsistentQuery(ctx, "SELECT * FROM log", opts)
				if err != nil {
					t.Errorf("cq reader %d: %v", r, err)
					return
				}
				if res.Stats.Strategy != wantTier {
					t.Errorf("cq reader %d: served by the %q tier, want %q", r, res.Stats.Strategy, wantTier)
					return
				}
				if key := wireKey(res.Rows); !legalCQ[key] {
					t.Errorf("cq reader %d: answers %q match no prefix", r, key)
					return
				}
				if res.Stats.Epoch < lastEpoch {
					t.Errorf("cq reader %d: epoch went backwards (%d after %d)", r, res.Stats.Epoch, lastEpoch)
					return
				}
				lastEpoch = res.Stats.Epoch
			}
		}(r)
	}

	// Plain-query readers: the raw rows must also match a prefix (batch
	// atomicity holds on this path too).
	const plainReaders = 2
	for r := 0; r < plainReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := c.Query(ctx, "SELECT * FROM log", hclient.QueryOpts{})
				if err != nil {
					t.Errorf("plain reader %d: %v", r, err)
					return
				}
				if key := wireKey(res.Rows); !legalPlain[key] {
					t.Errorf("plain reader %d: rows %q match no prefix", r, key)
					return
				}
			}
		}(r)
	}

	// Session reader: create, read the pinned view repeatedly (it must
	// not drift and must be a legal prefix), release.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			id, _, err := c.NewSession(ctx)
			if err != nil {
				t.Errorf("session create: %v", err)
				return
			}
			var first string
			for i := 0; i < 3; i++ {
				res, err := c.ConsistentQuery(ctx, "SELECT * FROM log", hclient.QueryOpts{Session: id})
				if err != nil {
					t.Errorf("session query: %v", err)
					c.ReleaseSession(ctx, id)
					return
				}
				if res.Stats.Strategy != "rewrite" {
					t.Errorf("session query: served by the %q tier, want rewrite", res.Stats.Strategy)
					c.ReleaseSession(ctx, id)
					return
				}
				key := wireKey(res.Rows)
				if i == 0 {
					first = key
					if !legalCQ[key] {
						t.Errorf("session answers %q match no prefix", key)
						c.ReleaseSession(ctx, id)
						return
					}
				} else if key != first {
					t.Errorf("session view drifted: %q vs %q", key, first)
					c.ReleaseSession(ctx, id)
					return
				}
			}
			if err := c.ReleaseSession(ctx, id); err != nil {
				t.Errorf("session release: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	// The final state is the full sequence.
	res, err := c.ConsistentQuery(ctx, "SELECT * FROM log", hclient.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if key := wireKey(res.Rows); !legalCQ[key] {
		t.Fatalf("final answers %q match no prefix", key)
	}

	// Drain and tear everything down, then verify no goroutine leaked:
	// handlers, the reaper, and the HTTP stack must all unwind.
	srv.Drain()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// After Close, session creation and queries fail cleanly rather than
// pinning snapshots on a closed system.
func TestNoNewSessionsAfterClose(t *testing.T) {
	db := hippo.Open()
	if _, _, err := db.Exec("CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := hclient.New(ts.URL, ts.Client())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NewSession(context.Background()); !errors.Is(err, hclient.ErrDraining) {
		t.Fatalf("post-close session err = %v, want draining", err)
	}
}
