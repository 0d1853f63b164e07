package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hippo/internal/conflict"
	"hippo/internal/cqaplan"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/schema"
	"hippo/internal/value"
)

// TierSelect constrains the tiered answering planner's choice for one
// consistent-query run.
type TierSelect int

const (
	// TierAuto lets the classifier pick the fastest sound tier (default).
	TierAuto TierSelect = iota
	// TierForceProver routes the query through the prover tier
	// unconditionally — the differential-testing and benchmark baseline.
	TierForceProver
	// TierRequireRewrite fails the query with ErrRewriteIneligible when
	// the classifier routes it away from the rewrite tier, instead of
	// serving it through the prover; tests and benchmarks use it to
	// assert the fast path fires.
	TierRequireRewrite
)

// ErrRewriteIneligible reports a TierRequireRewrite run whose query the
// classifier routed away from the rewrite tier.
var ErrRewriteIneligible = errors.New("core: query is not eligible for the rewrite tier")

// TierCounters are lifetime counts of consistent-query runs by the tier
// that produced their answers.
type TierCounters struct {
	Rewrite int64
	// Hybrid is always 0: the classifier routes every query to the
	// rewrite or the prover tier. The field stays so existing readers of
	// TierCounters keep compiling.
	Hybrid int64
	Prover int64
	// Fallbacks is always 0: a rewrite-tier run runs the same engine on
	// the same view as the prover tier, so its errors reach the caller
	// instead of being re-served. The field stays so existing readers of
	// TierCounters keep compiling.
	Fallbacks int64
	// Certified counts the prover tier's candidates; Decided counts those
	// settled without a blocker search (a constant residual).
	Certified int64
	Decided   int64
}

// TierCounts reports the system's lifetime per-tier counters.
func (s *System) TierCounts() TierCounters {
	return TierCounters{
		Rewrite:   s.tierRewrite.Load(),
		Prover:    s.tierProver.Load(),
		Certified: s.certified.Load(),
		Decided:   s.decided.Load(),
	}
}

// tierDecision classifies the plan against the view's constraint profile.
// It takes no lock and never fails: classification trouble yields a
// prover-tier decision with reasons.
func tierDecision(v *queryView, plan ra.Node, opts Options) *cqaplan.Decision {
	if opts.Tier == TierForceProver {
		return &cqaplan.Decision{Tier: cqaplan.TierProver, Reasons: []cqaplan.Reason{
			{Code: cqaplan.ReasonForced, Detail: "prover tier forced by options"}}}
	}
	return cqaplan.Decide(v.profile, plan)
}

// answerRewrite serves a rewrite-tier query: the query plan itself,
// physically planned and run under conflict filters against the same view
// (servedPlan). No envelope is built and no candidate is certified — the
// plan's rows are the consistent answers.
func (s *System) answerRewrite(ctx context.Context, v *queryView, plan ra.Node, stats *Stats) (*engine.Result, error) {
	t0 := time.Now()
	phys, err := servedPlan(v, plan)
	if err != nil {
		return nil, err
	}
	stats.JoinOrder = planLeafOrder(phys)
	es := &ra.ExecStats{}
	res, err := v.snap.RunPlanRawContext(ra.WithExecStats(ctx, es), phys)
	if err != nil {
		return nil, err
	}
	stats.PeakIntermediate = es.PeakIntermediate()
	stats.Evaluation = time.Since(t0)
	return &engine.Result{Schema: plan.Schema(), Rows: res.Rows}, nil
}

// servedPlan is the physical plan the rewrite tier runs for a plan bound
// to v's snapshot: the query plan with every projection DISTINCT (the
// envelope's multiplicity), optimized, then filterConflicts.
func servedPlan(v *queryView, plan ra.Node) (ra.Node, error) {
	return filterConflicts(engine.Optimize(cqaplan.Distinctify(plan)), v, true)
}

// filterConflicts wraps the maximal Select chain over each positive leaf
// of a constrained relation in a conflictFilter on the view v. A leaf on
// the right side of a Diff is negative and stays unfiltered: the rewriting
// gives negative occurrences no residue, and the classifier limits that
// side to one atom. The filter sits above the pushed-down selections,
// where the rewriting's residues would sit.
//
// Why the filter is exact. The classifier admits the rewrite tier only
// under two conditions. Coverage: every constraint that mentions a scanned
// relation R is a unary or binary denial, whose residue on R drops a
// tuple t exactly when some partner tuple (t itself, for a unary denial)
// completes a violation with t. The constraint-interaction guard: R does
// not mix unary and binary constraints. Conflict detection adds a
// hyperedge for every violating combination, judged with the same
// three-valued comparisons the residue evaluates (a NULL neither equals
// nor differs from anything), so t fails some residue of R iff t is a
// vertex of some hyperedge, i.e. iff InConflict(t) holds in the view's
// hypergraph. Coverage rules out edges on R that no residue mirrors, and
// the guard is what makes "in no hyperedge" mean "in every repair": it
// keeps a unary denial's dead tuple from knocking out its binary partners,
// which would make the residues and this filter over-subtract alike.
func filterConflicts(n ra.Node, v *queryView, positive bool) (ra.Node, error) {
	if rel, ok := accessedRelation(n); ok {
		if positive && v.profile.Constrained(rel) {
			return newConflictFilter(n, rel, v), nil
		}
		return n, nil
	}
	kids := n.Children()
	_, diff := n.(*ra.Diff)
	out := make([]ra.Node, len(kids))
	for i, k := range kids {
		c, err := filterConflicts(k, v, positive && !(diff && i == 1))
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	switch t := n.(type) {
	case *ra.Select:
		return &ra.Select{Child: out[0], Pred: t.Pred}, nil
	case *ra.Project:
		return &ra.Project{Child: out[0], Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}, nil
	case *ra.DistinctNode:
		return &ra.DistinctNode{Child: out[0]}, nil
	case *ra.Join:
		return &ra.Join{L: out[0], R: out[1], Pred: t.Pred}, nil
	case *ra.Product:
		return &ra.Product{L: out[0], R: out[1]}, nil
	case *ra.Diff:
		return &ra.Diff{L: out[0], R: out[1]}, nil
	case *ra.Intersect:
		return &ra.Intersect{L: out[0], R: out[1]}, nil
	default:
		return nil, fmt.Errorf("core: unexpected operator %s in a rewrite-tier plan", n)
	}
}

// accessedRelation follows a chain of Selects down to a base-relation
// access and returns that relation's name as hypergraph vertices carry it
// (ok is false when the chain ends anywhere else).
func accessedRelation(n ra.Node) (string, bool) {
	for {
		switch t := n.(type) {
		case *ra.Select:
			n = t.Child
		case *ra.Scan:
			return strings.ToLower(t.Table.Name()), true
		case *ra.IndexLookup:
			return strings.ToLower(t.Table.Name()), true
		default:
			return "", false
		}
	}
}

// conflictFilter keeps the rows of one base relation whose tuples are
// vertices of no hyperedge in the view's conflict hypergraph. Its input
// reads the same view's snapshot, so rows and probes describe one cut
// under concurrent writes.
type conflictFilter struct {
	child ra.Node
	rel   string
	ti    *conflict.TupleIndex
	g     *conflict.Hypergraph
}

func newConflictFilter(child ra.Node, rel string, v *queryView) *conflictFilter {
	return &conflictFilter{child: child, rel: rel, ti: v.ti, g: v.hg.Graph()}
}

func (f *conflictFilter) Schema() schema.Schema { return f.child.Schema() }
func (f *conflictFilter) Children() []ra.Node   { return []ra.Node{f.child} }
func (f *conflictFilter) String() string        { return "ConflictFree(" + f.rel + ")" }

// EstimateCard estimates as its input.
func (f *conflictFilter) EstimateCard() int64 { return ra.EstimateCard(f.child) }

func (f *conflictFilter) Open(ctx context.Context) (ra.Iterator, error) {
	it, err := f.child.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &conflictFilterIter{child: it, f: f}, nil
}

// conflictFree reports whether row is in no hyperedge. A row the view's
// tuple index does not hold cannot come from the view's own snapshot; it
// is an error rather than a guess.
func (f *conflictFilter) conflictFree(row value.Tuple) (bool, error) {
	ids, err := f.ti.Lookup(f.rel, row)
	if err != nil {
		return false, err
	}
	if len(ids) == 0 {
		return false, fmt.Errorf("core: %s row %s is missing from the view's tuple index", f.rel, value.TupleString(row))
	}
	for _, id := range ids {
		if f.g.InConflict(conflict.Vertex{Rel: f.rel, Row: id}) {
			return false, nil
		}
	}
	return true, nil
}

type conflictFilterIter struct {
	child ra.Iterator
	f     *conflictFilter
}

func (it *conflictFilterIter) Next() (value.Tuple, bool, error) {
	for {
		row, ok, err := it.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		free, err := it.f.conflictFree(row)
		if err != nil {
			return nil, false, err
		}
		if free {
			return row, true, nil
		}
	}
}

func (it *conflictFilterIter) Close() error { return it.child.Close() }

// noteTier folds the run's strategy into the lifetime counters and
// snapshots them into the stats.
func (s *System) noteTier(stats *Stats) {
	if stats.Strategy == cqaplan.TierRewrite.String() {
		s.tierRewrite.Add(1)
	} else {
		s.tierProver.Add(1)
		s.certified.Add(stats.ProverStats.TuplesChecked)
		s.decided.Add(stats.ProverStats.Decided)
	}
	stats.Tiers = s.TierCounts()
}
