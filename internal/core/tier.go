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
	"hippo/internal/rewrite"
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
	// TierRequireRewrite fails the query with ErrRewriteIneligible unless
	// the rewrite tier serves it: when the classifier routes it away, and
	// when the compiled plan fails at run time, instead of silently
	// falling back; tests and benchmarks use it to assert the fast path
	// fires.
	TierRequireRewrite
)

// ErrRewriteIneligible reports a TierRequireRewrite run whose query the
// classifier routed away from the rewrite tier, or whose compiled plan
// failed at run time (the error then wraps the cause too).
var ErrRewriteIneligible = errors.New("core: query is not eligible for the rewrite tier")

// TierCounters are lifetime counts of consistent-query runs by the tier
// that produced their answers, plus rewrite-tier executions that failed
// mid-run and were silently re-served by the prover.
type TierCounters struct {
	Rewrite int64
	// Hybrid is always 0: the classifier routes every query to the
	// rewrite or the prover tier. The field stays so existing readers of
	// TierCounters keep compiling.
	Hybrid    int64
	Prover    int64
	Fallbacks int64
}

// TierCounts reports the system's lifetime per-tier counters.
func (s *System) TierCounts() TierCounters {
	return TierCounters{
		Rewrite:   s.tierRewrite.Load(),
		Prover:    s.tierProver.Load(),
		Fallbacks: s.tierFallback.Load(),
	}
}

// ConstraintEpoch returns the constraint-change counter: it advances on
// every AddConstraint and DDL statement, and keys the prepared rewriter.
func (s *System) ConstraintEpoch() uint64 { return s.cepoch.Load() }

// preparedRewriter returns the rewriter prepared for the current
// constraint set, rebuilding it only when the constraint epoch moved.
// This replaces the old behavior of constructing a fresh rewrite.Rewriter
// on every Rewriter/Support call.
func (s *System) preparedRewriter(epoch uint64) *rewrite.Rewriter {
	s.rwmu.Lock()
	defer s.rwmu.Unlock()
	if s.rwprep == nil || s.rwepoch != epoch {
		s.rwprep = rewrite.Prepare(s.db, s.Constraints())
		s.rwepoch = epoch
	}
	return s.rwprep
}

// tierDecision classifies the plan for this run. It never fails:
// classification trouble yields a prover-tier decision with reasons.
func (s *System) tierDecision(plan ra.Node, opts Options) *cqaplan.Decision {
	if opts.Tier == TierForceProver {
		return &cqaplan.Decision{Tier: cqaplan.TierProver, Reasons: []cqaplan.Reason{
			{Code: cqaplan.ReasonForced, Detail: "prover tier forced by options"}}}
	}
	return cqaplan.Classify(s.preparedRewriter(s.cepoch.Load()), s.Constraints(), plan)
}

// testTierExecHook, when set (tests only), runs at the top of every
// rewrite-tier execution; an error simulates a compiled plan failing at
// run time so the silent prover fallback (and its refusal under
// TierRequireRewrite) can be exercised.
var testTierExecHook func() error

// answerRewrite serves a rewrite-tier decision: the compiled plan is
// rebound to the view's snapshot and physically planned, its residue
// anti-joins become conflict probes against the same view (probeResidues),
// and the result streams through the planner's iterators. No envelope is
// built and no candidate is certified — the plan's rows are the
// consistent answers.
func (s *System) answerRewrite(ctx context.Context, v *queryView, dec *cqaplan.Decision, stats *Stats) (*engine.Result, error) {
	if h := testTierExecHook; h != nil {
		if err := h(); err != nil {
			return nil, err
		}
	}
	bound, err := engine.Rebind(dec.Plan, v.snap)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	phys, err := probeResidues(engine.Optimize(bound), v)
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
	return &engine.Result{Schema: bound.Schema(), Rows: res.Rows}, nil
}

// probeResidues replaces every chain of residue anti-joins over one base
// relation in a physical rewrite-tier plan with a single conflictFilter on
// the view v. The query's own scans and predicates stay as they are.
//
// Why the filter is exact. The classifier admits the rewrite tier only
// under two conditions. Coverage: every constraint that mentions a scanned
// relation R is a unary or binary denial, installed as residues on R. The
// constraint-interaction guard: R does not mix unary and binary
// constraints. A residue on R drops a tuple t exactly when some partner
// tuple (t itself, for a unary denial) completes a violation with t.
// Conflict detection adds a hyperedge for every violating combination,
// judged with the same three-valued comparisons the residue evaluates (a
// NULL neither equals nor differs from anything), so
// t fails some residue of R iff t is a vertex of some hyperedge, i.e. iff
// InConflict(t) holds in the view's hypergraph. Coverage rules out edges on
// R that no residue mirrors, and the guard is what makes "in no hyperedge"
// mean "in every repair": it keeps a unary denial's dead tuple from
// knocking out its binary partners, which would make the residues and this
// filter over-subtract alike.
//
// Finding the residues. envelope.CheckQuery rejects EXISTS and IN before
// classification, so every AntiJoin of a rewrite-tier plan is a residue.
// The shape is still checked: each partner side must be a Scan, and the
// chain must end at a Scan or IndexLookup under Selects. Any other shape
// is an error, which the caller turns into the silent prover fallback.
func probeResidues(n ra.Node, v *queryView) (ra.Node, error) {
	switch t := n.(type) {
	case *ra.AntiJoin:
		base := ra.Node(t)
		for {
			aj, ok := base.(*ra.AntiJoin)
			if !ok {
				break
			}
			if _, ok := aj.R.(*ra.Scan); !ok {
				return nil, fmt.Errorf("core: residue partner %s is not a base-relation scan", aj.R)
			}
			base = aj.L
		}
		rel, err := residueRelation(base)
		if err != nil {
			return nil, err
		}
		return newConflictFilter(base, rel, v), nil
	case *ra.Scan, *ra.IndexLookup:
		return n, nil
	case *ra.Select:
		c, err := probeResidues(t.Child, v)
		if err != nil {
			return nil, err
		}
		return &ra.Select{Child: c, Pred: t.Pred}, nil
	case *ra.Project:
		c, err := probeResidues(t.Child, v)
		if err != nil {
			return nil, err
		}
		return &ra.Project{Child: c, Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}, nil
	case *ra.DistinctNode:
		c, err := probeResidues(t.Child, v)
		if err != nil {
			return nil, err
		}
		return &ra.DistinctNode{Child: c}, nil
	case *ra.Join, *ra.Product, *ra.Diff, *ra.Intersect:
		kids := n.Children()
		l, err := probeResidues(kids[0], v)
		if err != nil {
			return nil, err
		}
		r, err := probeResidues(kids[1], v)
		if err != nil {
			return nil, err
		}
		switch t := n.(type) {
		case *ra.Join:
			return &ra.Join{L: l, R: r, Pred: t.Pred}, nil
		case *ra.Product:
			return &ra.Product{L: l, R: r}, nil
		case *ra.Diff:
			return &ra.Diff{L: l, R: r}, nil
		default:
			return &ra.Intersect{L: l, R: r}, nil
		}
	default:
		return nil, fmt.Errorf("core: unexpected operator %s in a rewrite-tier plan", n)
	}
}

// residueRelation follows a residue chain's input down through Selects to
// the base-relation access it must end at, and returns that relation's
// name as hypergraph vertices carry it.
func residueRelation(n ra.Node) (string, error) {
	for {
		switch t := n.(type) {
		case *ra.Select:
			n = t.Child
		case *ra.Scan:
			return strings.ToLower(t.Table.Name()), nil
		case *ra.IndexLookup:
			return strings.ToLower(t.Table.Name()), nil
		default:
			return "", fmt.Errorf("core: residue input %s is not a base-relation access", n)
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

// EstimateCard estimates like the anti-joins it replaces: as its input.
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

// noteTier folds the run's final strategy into the lifetime counters and
// snapshots them into the stats.
func (s *System) noteTier(stats *Stats) {
	if stats.TierFallback {
		s.tierFallback.Add(1)
	}
	switch stats.Strategy {
	case cqaplan.TierRewrite.String():
		s.tierRewrite.Add(1)
	default:
		s.tierProver.Add(1)
	}
	stats.Tiers = s.TierCounts()
}

// isCtxErr reports whether err is (or wraps) a context cancellation: such
// failures propagate to the caller instead of triggering a tier fallback.
func isCtxErr(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
