// Package rewrite implements first-order query rewriting for consistent
// query answering (Arenas, Bertossi & Chomicki, PODS 1999): the input
// query Q is rewritten into Q' such that evaluating Q' directly on the
// inconsistent database returns the consistent answers to Q.
//
// Rewriting attaches each constraint's *residue* to every positive
// occurrence of a relation. A binary denial constraint
//
//	¬(R(x) ∧ S(y) ∧ φ(x,y))
//
// contributes the residue ¬∃y (S(y) ∧ φ(x,y)) to the literal R(x): a tuple
// counts only if no partner tuple completes a violation with it. In
// algebra this is an anti-join of R against S on φ. Negative occurrences
// (the right side of a difference) receive no residues from denial
// constraints, matching the original method.
//
// As in the paper, this approach works only for the SJD query class (no
// union) in the presence of binary universal constraints (FDs, exclusion
// constraints); Hippo's hypergraph method strictly generalizes it. The
// package serves two callers with different tolerance for that gap:
//
//   - New is the strict constructor of the expressiveness baseline (E2):
//     it fails with a typed error when any constraint is outside the
//     method's class.
//   - Prepare is the lenient constructor behind the tiered answering
//     planner (internal/cqaplan): constraints the method cannot express
//     are recorded as structured Skips instead of failing the whole
//     rewriter, so the planner can still send queries over fully covered
//     relations to the rewrite tier and the rest to the prover.
//
// A Rewriter only ever *produces* ra.Node plans — it never executes them.
// The emitted trees are logical (no physical access paths), so callers
// may rebind them to any catalog (engine.Rebind) and run them through the
// cost-based planner like any other plan.
package rewrite

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/ra"
	"hippo/internal/sqlparse"
)

// ErrUnionNotSupported is returned for queries containing UNION: query
// rewriting handles only the SJD class.
var ErrUnionNotSupported = errors.New("rewrite: query rewriting supports only SJD queries (no UNION)")

// ErrConstraintNotBinary is returned when a constraint is not a binary
// denial (the class the rewriting method handles).
var ErrConstraintNotBinary = errors.New("rewrite: query rewriting requires binary universal constraints")

// Skip records one constraint the rewriting method cannot express,
// together with the relations it mentions (lowercased; nil when the
// constraint failed to lower and its atom list is unknown). The tiered
// planner uses Relations to decide whether a query's relations are fully
// covered by residues.
type Skip struct {
	Constraint string   // display form of the constraint
	Relations  []string // relations the constraint mentions (nil = unknown)
	Err        error    // typed reason (e.g. ErrConstraintNotBinary)
}

// Rewriter rewrites query plans against a fixed constraint set. It is
// immutable after construction and safe for concurrent use.
type Rewriter struct {
	db       *engine.DB
	residues []residue
	skipped  []Skip
}

// residue is one prepared anti-join obligation: positive occurrences of
// relation rel must have no partner in partnerRel satisfying pred (over
// the concatenated (rel, partnerRel) row).
type residue struct {
	rel        string
	partnerRel string
	pred       ra.Expr
	label      string
}

// New prepares a strict rewriter: every constraint must lower to a unary
// or binary denial, and the first one that does not fails construction
// with a typed error (the E2 expressiveness experiment tabulates these).
func New(db *engine.DB, constraints []constraint.Constraint) (*Rewriter, error) {
	rw := Prepare(db, constraints)
	if err := rw.Err(); err != nil {
		return nil, err
	}
	return rw, nil
}

// Prepare builds a rewriter from whatever subset of the constraints the
// method can express. Constraints outside the class (or failing to lower
// under the current catalog) are recorded as Skips rather than failing
// construction; Err reports the first skip for callers that need the
// strict behavior.
func Prepare(db *engine.DB, constraints []constraint.Constraint) *Rewriter {
	rw := &Rewriter{db: db}
	for _, c := range constraints {
		den, err := c.Denial(db)
		if err != nil {
			rw.skipped = append(rw.skipped, Skip{Constraint: c.String(), Err: err})
			continue
		}
		rels := make([]string, len(den.Atoms))
		for i, a := range den.Atoms {
			rels[i] = strings.ToLower(a.Rel)
		}
		switch den.Arity() {
		case 1:
			err = rw.addUnary(den)
		case 2:
			err = rw.addBinary(den)
		default:
			err = fmt.Errorf("%w: %s has %d atoms", ErrConstraintNotBinary, c, den.Arity())
		}
		if err != nil {
			rw.skipped = append(rw.skipped, Skip{Constraint: c.String(), Relations: rels, Err: err})
		}
	}
	return rw
}

// Err returns the reason the first skipped constraint was rejected, or
// nil when every constraint was expressed as residues.
func (rw *Rewriter) Err() error {
	if len(rw.skipped) == 0 {
		return nil
	}
	return rw.skipped[0].Err
}

// Skipped returns the constraints the rewriter could not express.
func (rw *Rewriter) Skipped() []Skip { return rw.skipped }

// ResidueCount returns the number of installed residues.
func (rw *Rewriter) ResidueCount() int { return len(rw.residues) }

// SkippedRelations returns the set of relations (lowercased) mentioned by
// skipped constraints. A skip whose relations are unknown (lowering
// failed) is reported under the empty key "", which callers must treat as
// covering every relation.
func (rw *Rewriter) SkippedRelations() map[string]bool {
	out := make(map[string]bool)
	for _, sk := range rw.skipped {
		if sk.Relations == nil {
			out[""] = true
			continue
		}
		for _, r := range sk.Relations {
			out[r] = true
		}
	}
	return out
}

// addUnary turns ¬(R(x) ∧ φ(x)) into the residue ¬φ(x), i.e. a selection.
// It is modeled as an anti-join of R against itself on identity + φ, which
// keeps the execution machinery uniform.
func (rw *Rewriter) addUnary(den constraint.Denial) error {
	a := den.Atoms[0]
	t, err := rw.db.Table(a.Rel)
	if err != nil {
		return err
	}
	sch := t.Schema().WithQualifier(strings.ToLower(a.Name()))
	pred, err := engine.PlanScalar(den.Where, sch)
	if err != nil {
		return fmt.Errorf("rewrite: constraint %s: %v", den.Label, err)
	}
	// Self-pairing on full row identity: left row i equals right row i.
	arity := sch.Len()
	var eq ra.Expr
	for i := 0; i < arity; i++ {
		eq = ra.Conjoin(eq, ra.Cmp{Op: ra.EQ, L: ra.Col{Index: i}, R: ra.Col{Index: i + arity}})
	}
	rw.residues = append(rw.residues, residue{
		rel:        strings.ToLower(a.Rel),
		partnerRel: strings.ToLower(a.Rel),
		pred:       ra.Conjoin(eq, pred),
		label:      den.Label,
	})
	return nil
}

// addBinary installs residues for both atoms of a binary denial.
func (rw *Rewriter) addBinary(den constraint.Denial) error {
	for self := 0; self < 2; self++ {
		other := 1 - self
		a, b := den.Atoms[self], den.Atoms[other]
		ta, err := rw.db.Table(a.Rel)
		if err != nil {
			return err
		}
		tb, err := rw.db.Table(b.Rel)
		if err != nil {
			return err
		}
		// Bind the condition against (self, other) column order.
		combined := ta.Schema().WithQualifier(strings.ToLower(a.Name())).
			Concat(tb.Schema().WithQualifier(strings.ToLower(b.Name())))
		pred, err := engine.PlanScalar(den.Where, combined)
		if err != nil {
			return fmt.Errorf("rewrite: constraint %s: %v", den.Label, err)
		}
		rw.residues = append(rw.residues, residue{
			rel:        strings.ToLower(a.Rel),
			partnerRel: strings.ToLower(b.Rel),
			pred:       pred,
			label:      den.Label,
		})
	}
	return nil
}

// RewriteSQL parses, plans, and rewrites a query in one step.
func (rw *Rewriter) RewriteSQL(sql string) (ra.Node, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	plan, err := rw.db.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return rw.Rewrite(plan)
}

// Rewrite transforms an SJD plan so that its direct evaluation returns
// consistent answers. The input plan is not mutated.
func (rw *Rewriter) Rewrite(plan ra.Node) (ra.Node, error) {
	return rw.rewrite(plan, true)
}

// rewrite walks the plan; positive controls whether scans receive
// residues (they do not under an odd number of negations, i.e. on the
// right side of a difference).
func (rw *Rewriter) rewrite(n ra.Node, positive bool) (ra.Node, error) {
	switch t := n.(type) {
	case *ra.Scan:
		if !positive {
			return &ra.Scan{Table: t.Table, Alias: t.Alias}, nil
		}
		return rw.applyResidues(t), nil
	case *ra.Select:
		child, err := rw.rewrite(t.Child, positive)
		if err != nil {
			return nil, err
		}
		return &ra.Select{Child: child, Pred: t.Pred}, nil
	case *ra.Project:
		child, err := rw.rewrite(t.Child, positive)
		if err != nil {
			return nil, err
		}
		return &ra.Project{Child: child, Exprs: t.Exprs, Names: t.Names, Distinct: t.Distinct}, nil
	case *ra.Product:
		l, err := rw.rewrite(t.L, positive)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(t.R, positive)
		if err != nil {
			return nil, err
		}
		return &ra.Product{L: l, R: r}, nil
	case *ra.Join:
		l, err := rw.rewrite(t.L, positive)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(t.R, positive)
		if err != nil {
			return nil, err
		}
		return &ra.Join{L: l, R: r, Pred: t.Pred}, nil
	case *ra.Diff:
		l, err := rw.rewrite(t.L, positive)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(t.R, !positive)
		if err != nil {
			return nil, err
		}
		return &ra.Diff{L: l, R: r}, nil
	case *ra.Intersect:
		l, err := rw.rewrite(t.L, positive)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(t.R, positive)
		if err != nil {
			return nil, err
		}
		return &ra.Intersect{L: l, R: r}, nil
	case *ra.DistinctNode:
		child, err := rw.rewrite(t.Child, positive)
		if err != nil {
			return nil, err
		}
		return &ra.DistinctNode{Child: child}, nil
	case *ra.Union:
		return nil, ErrUnionNotSupported
	default:
		return nil, fmt.Errorf("rewrite: unsupported operator %T", n)
	}
}

// applyResidues wraps a scan with one anti-join per residue on its
// relation: keep tuples with no violation partner. Residues that are the
// same filter — same partner relation, canonically equal predicate — are
// applied once: a symmetric binary denial (every FD and key) installs one
// residue per atom, and for a self-denial those two are mirror images of
// each other, so deduplication halves the anti-join work.
func (rw *Rewriter) applyResidues(s *ra.Scan) ra.Node {
	var out ra.Node = &ra.Scan{Table: s.Table, Alias: s.Alias}
	rel := strings.ToLower(s.Table.Name())
	seen := map[string]bool{}
	for _, res := range rw.residues {
		if res.rel != rel {
			continue
		}
		canon, ok := canonPred(res.pred)
		key := res.partnerRel + "\x00" + canon
		if ok && seen[key] {
			continue
		}
		seen[key] = true
		partner, err := rw.db.Table(res.partnerRel)
		if err != nil {
			continue // validated at Prepare time; defensive
		}
		out = &ra.AntiJoin{
			L:    out,
			R:    &ra.Scan{Table: partner, Alias: "_rw_" + res.partnerRel},
			Pred: res.pred,
		}
	}
	return out
}

// canonPred renders a predicate so that two equivalent residue conditions
// compare equal: conjuncts are sorted and the operands of symmetric
// comparisons (=, <>) are ordered. The two residues of a symmetric
// self-denial bind the condition against swapped column orders, which
// flips every conjunct's operands — canonicalization maps both to the
// same string. An asymmetric condition (x.b < y.b) canonicalizes to two
// distinct strings, so both residues stay. The rendering is structural,
// keyed on column *indices* — display names are identical across the two
// bindings and must not be trusted. ok is false when the predicate holds
// a node kind the renderer does not know; such residues are never
// deduplicated.
func canonPred(e ra.Expr) (string, bool) {
	cs := ra.Conjuncts(e)
	parts := make([]string, len(cs))
	ok := true
	for i, c := range cs {
		s, o := canonExpr(c)
		parts[i] = s
		ok = ok && o
	}
	sort.Strings(parts)
	return strings.Join(parts, "&"), ok
}

func canonExpr(e ra.Expr) (string, bool) {
	switch t := e.(type) {
	case ra.Col:
		return fmt.Sprintf("c%d", t.Index), true
	case ra.Const:
		return "k" + t.V.String(), true
	case ra.Cmp:
		l, lok := canonExpr(t.L)
		r, rok := canonExpr(t.R)
		if (t.Op == ra.EQ || t.Op == ra.NE) && l > r {
			l, r = r, l
		}
		return t.Op.String() + "(" + l + "," + r + ")", lok && rok
	case ra.And:
		l, lok := canonExpr(t.L)
		r, rok := canonExpr(t.R)
		return "and(" + l + "," + r + ")", lok && rok
	case ra.Or:
		l, lok := canonExpr(t.L)
		r, rok := canonExpr(t.R)
		return "or(" + l + "," + r + ")", lok && rok
	case ra.Not:
		s, o := canonExpr(t.E)
		return "not(" + s + ")", o
	case ra.IsNull:
		s, o := canonExpr(t.E)
		return fmt.Sprintf("isnull(%s,%v)", s, t.Negate), o
	case ra.Arith:
		l, lok := canonExpr(t.L)
		r, rok := canonExpr(t.R)
		return fmt.Sprintf("arith%d(%s,%s)", t.Op, l, r), lok && rok
	default:
		return fmt.Sprintf("?%T", e), false
	}
}

// Residues returns a human-readable description of the installed residues
// (used by hippoctl and the expressiveness experiment).
func (rw *Rewriter) Residues() []string {
	out := make([]string, len(rw.residues))
	for i, r := range rw.residues {
		out[i] = fmt.Sprintf("%s ▷ %s ON %s  [%s]", r.rel, r.partnerRel, r.pred, r.label)
	}
	return out
}
