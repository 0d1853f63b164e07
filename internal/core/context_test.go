package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hippo/internal/constraint"
	"hippo/internal/engine"
)

// bigJoinSystem builds an instance whose self-join query is expensive to
// evaluate: n rows in two tables with a join predicate that matches many
// pairs, so full evaluation takes far longer than the deadlines the tests
// use.
func bigJoinSystem(t *testing.T, n int) *System {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE a (id INT, grp INT)")
	mustExec(db, "CREATE TABLE b (id INT, grp INT)")
	var rows []string
	for i := 0; i < n; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i, i%4))
	}
	mustExec(db, "INSERT INTO a VALUES "+strings.Join(rows, ", "))
	mustExec(db, "INSERT INTO b VALUES "+strings.Join(rows, ", "))
	s := NewSystem(db, []constraint.Constraint{
		constraint.FD{Rel: "a", LHS: []string{"id"}, RHS: []string{"grp"}},
	})
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// grpJoin matches n^2/4 pairs — expensive to evaluate, and (because every
// a-row appears in many candidates) expensive to certify too.
const grpJoin = "SELECT * FROM a, b WHERE a.grp = b.grp"

// A consistent query must die on an expired context: evaluation and
// certification both stop, and the context's error comes back.
func TestConsistentQueryContextDeadline(t *testing.T) {
	s := bigJoinSystem(t, 3000)
	t.Run("streamed", func(t *testing.T) {
		// Reference: unconstrained evaluation of this query takes far
		// longer than the deadline (it produces ~n^2/4 candidates), so
		// finishing quickly below proves the deadline aborted work.
		const deadline = 50 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		t0 := time.Now()
		_, _, err := s.ConsistentQueryContext(ctx, grpJoin, Options{})
		elapsed := time.Since(t0)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		// Generous bound for loaded CI machines.
		if elapsed > time.Second {
			t.Fatalf("deadline enforcement took %v (deadline %v)", elapsed, deadline)
		}
	})
}

func TestConsistentQueryContextAlreadyCancelled(t *testing.T) {
	s := bigJoinSystem(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ConsistentQueryContext(ctx, grpJoin, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A pinned-snapshot consistent query honors the context too.
func TestConsistentQueryAtContextDeadline(t *testing.T) {
	s := bigJoinSystem(t, 3000)
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := s.ConsistentQueryAtContext(ctx, sn, grpJoin, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// Plain (non-consistent) queries honor the context through the engine.
func TestPlainQueryContextDeadline(t *testing.T) {
	s := bigJoinSystem(t, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.DB().QueryContext(ctx, grpJoin); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A cancelled context aborts a batch whole: nothing of it becomes
// visible, and the error names the statement the cancellation hit.
func TestExecBatchContextCancelled(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE t (x INT)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecBatchContext(ctx, []string{
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES (2)",
	})
	var be *engine.BatchError
	if !errors.As(err, &be) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want BatchError wrapping context.Canceled", err)
	}
	res, err := db.Query("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("cancelled batch left %d visible rows, want 0", len(res.Rows))
	}
}
