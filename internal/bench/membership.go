package bench

import (
	"fmt"
	"time"

	"hippo/internal/conflict"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/envelope"
	"hippo/internal/prover"
	"hippo/internal/ra"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// naiveMembership is the paper's §2 base version of the prover's
// membership check, the "costly procedure" its optimizations eliminate:
// every check issues one unoptimized selection against the database,
// standing in for the per-check RDBMS round trip. The tuple index is still
// consulted afterwards to map the tuple to its hypergraph vertex (the query
// only establishes membership). queries counts the queries issued; a
// naiveMembership is not safe for concurrent use.
type naiveMembership struct {
	db      *engine.Snapshot
	ti      *conflict.TupleIndex
	queries int64
}

// Lookup runs a membership query, then resolves RowIDs via the index.
func (m *naiveMembership) Lookup(rel string, t value.Tuple) ([]storage.RowID, error) {
	table, err := m.db.Relation(rel)
	if err != nil {
		return nil, err
	}
	sch := table.Schema()
	if sch.Len() != len(t) {
		return nil, fmt.Errorf("bench: membership tuple arity %d vs relation %s arity %d",
			len(t), rel, sch.Len())
	}
	var pred ra.Expr
	for i, v := range t {
		var conj ra.Expr
		if v.IsNull() {
			conj = ra.IsNull{E: ra.Col{Index: i}}
		} else {
			conj = ra.Cmp{Op: ra.EQ, L: ra.Col{Index: i}, R: ra.Const{V: v}}
		}
		pred = ra.Conjoin(pred, conj)
	}
	plan := ra.Node(&ra.Scan{Table: table})
	if pred != nil {
		plan = &ra.Select{Child: plan, Pred: pred}
	}
	m.queries++
	res, err := m.db.RunPlanRaw(plan)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return m.ti.Lookup(rel, t)
}

// membershipRun is one E6 series: the prover certifying every candidate
// of the envelope through one membership backend.
type membershipRun struct {
	name    string
	prove   time.Duration // fastest repetition
	stats   prover.Stats  // one repetition's prover counters
	queries int64         // database queries one repetition's checks issued
	answers []value.Tuple // certified candidates, in envelope order
}

// e6Result is E6 on one query: the envelope's evaluation, then the naive
// and the indexed series over the same candidates.
type e6Result struct {
	eval       time.Duration // fastest envelope evaluation
	candidates int
	runs       []membershipRun // naive, then indexed
}

// runMemberships pins a snapshot of sys, evaluates sql's envelope on it
// once per repetition, and drives the prover by hand over the candidates,
// once with naive and once with indexed membership. The run issues no
// writes, so the system's live hypergraph is the snapshot's.
func runMemberships(sys *core.System, sql string, reps int) (e6Result, error) {
	var out e6Result
	snap, err := sys.Snapshot()
	if err != nil {
		return out, err
	}
	defer snap.Close()
	data := snap.Data()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return out, err
	}
	plan, err := data.PlanQuery(q)
	if err != nil {
		return out, err
	}
	env, err := envelope.Envelope(plan)
	if err != nil {
		return out, err
	}
	var cands []value.Tuple
	out.eval, err = timeIt(reps, func() error {
		res, err := data.RunPlan(env)
		if err == nil {
			cands = res.Rows
		}
		return err
	})
	if err != nil {
		return out, err
	}
	out.candidates = len(cands)

	graph := sys.Hypergraph()
	ti := conflict.NewSnapshotTupleIndex(data.Tables())
	naive := &naiveMembership{db: data, ti: ti}
	series := []struct {
		name   string
		member prover.Membership
	}{
		{"naive", naive},
		{"indexed", prover.IndexedMembership{TI: ti}},
	}
	for _, s := range series {
		r := membershipRun{name: s.name}
		r.prove, err = timeIt(reps, func() error {
			naive.queries = 0
			p := prover.New(graph, s.member)
			r.answers = r.answers[:0]
			for _, c := range cands {
				ok, err := p.IsConsistentAnswer(plan, c)
				if err != nil {
					return err
				}
				if ok {
					r.answers = append(r.answers, c)
				}
			}
			r.stats = p.Stats
			return nil
		})
		if err != nil {
			return out, err
		}
		r.queries = naive.queries // reset per repetition; only naive adds
		out.runs = append(out.runs, r)
	}
	return out, nil
}
