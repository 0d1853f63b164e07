// Package prover implements Hippo's Prover stage: deciding, for one
// candidate tuple t and an SJUD query Q, whether t is a consistent answer
// — i.e. whether t ∈ Q(r) for every repair r — using only the conflict
// hypergraph and membership checks against the database, never
// materializing repairs.
//
// Membership of t in Q unfolds into a ground boolean formula over base
// relation atoms (BuildFormula). t is a consistent answer iff the negated
// formula is satisfied by no repair, which the Prover decides disjunct by
// disjunct over the formula's DNF with a blocking-edge search on the
// hypergraph (see Prover.IsConsistent).
//
// The serving path never builds that formula per candidate: Compile turns
// the plan once into a Template, and Prover.Certify folds each
// candidate's known atoms into the template's residual DNF; only a
// residual left with conflicted literals runs the blocking-edge search
// (see compile.go). BuildFormula and IsConsistentAnswer remain as the
// reference the compiled path is tested against and for E6's baselines.
package prover

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hippo/internal/ra"
	"hippo/internal/value"
)

// Atom is a ground base-relation membership fact: "tuple Tuple is in
// relation Rel".
type Atom struct {
	Rel   string
	Tuple value.Tuple
}

// Key returns the identity of the atom (relation + tuple value).
func (a Atom) Key() string { return a.Rel + "|" + a.Tuple.Key() }

// String renders the atom as rel(v1, v2, ...).
func (a Atom) String() string {
	return a.Rel + value.TupleString(a.Tuple)
}

// Formula is a ground boolean combination of atoms.
type Formula interface {
	fstring() string
}

// FTrue is the constant true formula.
type FTrue struct{}

// FFalse is the constant false formula.
type FFalse struct{}

// FAtom asserts membership of a tuple in a base relation.
type FAtom struct{ A Atom }

// FAnd is conjunction. An empty conjunction is true.
type FAnd struct{ Fs []Formula }

// FOr is disjunction. An empty disjunction is false.
type FOr struct{ Fs []Formula }

// FNot is negation.
type FNot struct{ F Formula }

func (FTrue) fstring() string  { return "true" }
func (FFalse) fstring() string { return "false" }
func (f FAtom) fstring() string {
	return f.A.String()
}
func (f FAnd) fstring() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = g.fstring()
	}
	return "(" + strings.Join(parts, " ∧ ") + ")"
}
func (f FOr) fstring() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = g.fstring()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}
func (f FNot) fstring() string { return "¬" + f.F.fstring() }

// FormulaString renders a formula for debugging.
func FormulaString(f Formula) string { return f.fstring() }

// BuildFormula unfolds "t ∈ node" into a ground formula whose leaves are
// base-relation atoms. The node must have passed envelope.CheckQuery; in
// particular projections are permutations of all input columns.
func BuildFormula(node ra.Node, t value.Tuple) (Formula, error) {
	if len(t) != node.Schema().Len() {
		return nil, fmt.Errorf("prover: tuple arity %d does not match plan arity %d",
			len(t), node.Schema().Len())
	}
	return buildFormula(node, t)
}

func buildFormula(node ra.Node, t value.Tuple) (Formula, error) {
	switch n := node.(type) {
	case *ra.Scan:
		return FAtom{A: Atom{Rel: n.Table.Name(), Tuple: t.Clone()}}, nil
	case *ra.Select:
		pass, err := ra.EvalPredicate(n.Pred, t)
		if err != nil {
			return nil, err
		}
		if !pass {
			return FFalse{}, nil
		}
		return buildFormula(n.Child, t)
	case *ra.Project:
		child, ok := reconstructWitness(n, t)
		if !ok {
			return FFalse{}, nil
		}
		return buildFormula(n.Child, child)
	case *ra.Product:
		return buildPair(n.L, n.R, nil, t)
	case *ra.Join:
		return buildPair(n.L, n.R, n.Pred, t)
	case *ra.Union:
		l, err := buildFormula(n.L, t)
		if err != nil {
			return nil, err
		}
		r, err := buildFormula(n.R, t)
		if err != nil {
			return nil, err
		}
		return FOr{Fs: []Formula{l, r}}, nil
	case *ra.Diff:
		l, err := buildFormula(n.L, t)
		if err != nil {
			return nil, err
		}
		r, err := buildFormula(n.R, t)
		if err != nil {
			return nil, err
		}
		return FAnd{Fs: []Formula{l, FNot{F: r}}}, nil
	case *ra.Intersect:
		l, err := buildFormula(n.L, t)
		if err != nil {
			return nil, err
		}
		r, err := buildFormula(n.R, t)
		if err != nil {
			return nil, err
		}
		return FAnd{Fs: []Formula{l, r}}, nil
	case *ra.DistinctNode:
		return buildFormula(n.Child, t)
	default:
		return nil, fmt.Errorf("prover: unsupported operator %T in consistent query", node)
	}
}

// buildPair handles Product and Join (a Join is σ_pred over the product).
func buildPair(l, r ra.Node, pred ra.Expr, t value.Tuple) (Formula, error) {
	la := l.Schema().Len()
	if pred != nil {
		pass, err := ra.EvalPredicate(pred, t)
		if err != nil {
			return nil, err
		}
		if !pass {
			return FFalse{}, nil
		}
	}
	lf, err := buildFormula(l, t[:la])
	if err != nil {
		return nil, err
	}
	rf, err := buildFormula(r, t[la:])
	if err != nil {
		return nil, err
	}
	return FAnd{Fs: []Formula{lf, rf}}, nil
}

// reconstructWitness inverts a safe (permutation) projection: it rebuilds
// the unique child tuple that projects to t, or reports ok=false when t is
// internally inconsistent (the same source column would need two values).
func reconstructWitness(p *ra.Project, t value.Tuple) (value.Tuple, bool) {
	childArity := p.Child.Schema().Len()
	child := make(value.Tuple, childArity)
	set := make([]bool, childArity)
	for i, e := range p.Exprs {
		c := e.(ra.Col) // guaranteed by CheckQuery
		if set[c.Index] {
			if !value.Equal(child[c.Index], t[i]) {
				return nil, false
			}
			continue
		}
		child[c.Index] = t[i]
		set[c.Index] = true
	}
	return child, true
}

// Literal is a signed atom in a DNF disjunct.
type Literal struct {
	A   Atom
	Neg bool
}

// Disjunct is one conjunction of literals: all Pos atoms must hold and all
// Neg atoms must fail in the sought repair.
type Disjunct struct {
	Pos []Atom
	Neg []Atom
}

// String renders the disjunct.
func (d Disjunct) String() string {
	parts := make([]string, 0, len(d.Pos)+len(d.Neg))
	for _, a := range d.Pos {
		parts = append(parts, a.String())
	}
	for _, a := range d.Neg {
		parts = append(parts, "¬"+a.String())
	}
	return strings.Join(parts, " ∧ ")
}

// ErrUnknownFormula reports a Formula implementation the DNF conversion
// does not know. It is an error, not a panic: IsConsistent is reachable
// from user queries, and an unknown shape must surface through
// ConsistentQuery's error return instead of crashing the process.
var ErrUnknownFormula = errors.New("prover: unknown formula")

// DNF converts ¬f (note: the caller usually wants the negation of the
// membership formula) into disjunctive normal form. Contradictory
// disjuncts (an atom both positive and negative) are dropped; duplicate
// literals are merged; duplicate disjuncts are removed.
func DNF(f Formula) ([]Disjunct, error) {
	raw, err := dnf(f, false)
	if err != nil {
		return nil, err
	}
	out := make([]Disjunct, 0, len(raw))
	seen := map[string]bool{}
	for _, lits := range raw {
		d, ok := normalizeDisjunct(lits)
		if !ok {
			continue
		}
		k := d.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out, nil
}

// NegationDNF returns DNF(¬f).
func NegationDNF(f Formula) ([]Disjunct, error) {
	return DNF(FNot{F: f})
}

// dnf returns the disjuncts of f (negated when neg is set) as literal
// lists. True is the empty disjunct list with one empty disjunct; false is
// the empty list.
func dnf(f Formula, neg bool) ([][]Literal, error) {
	switch t := f.(type) {
	case FTrue:
		if neg {
			return nil, nil
		}
		return [][]Literal{{}}, nil
	case FFalse:
		if neg {
			return [][]Literal{{}}, nil
		}
		return nil, nil
	case FAtom:
		return [][]Literal{{{A: t.A, Neg: neg}}}, nil
	case FNot:
		return dnf(t.F, !neg)
	case FAnd:
		if neg { // ¬(a∧b) = ¬a ∨ ¬b
			var out [][]Literal
			for _, g := range t.Fs {
				ds, err := dnf(g, true)
				if err != nil {
					return nil, err
				}
				out = append(out, ds...)
			}
			return out, nil
		}
		return crossProduct(t.Fs, false)
	case FOr:
		if neg { // ¬(a∨b) = ¬a ∧ ¬b
			return crossProduct(t.Fs, true)
		}
		var out [][]Literal
		for _, g := range t.Fs {
			ds, err := dnf(g, false)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w %T", ErrUnknownFormula, f)
	}
}

// crossProduct conjoins the DNFs of all fs (each negated when neg).
func crossProduct(fs []Formula, neg bool) ([][]Literal, error) {
	acc := [][]Literal{{}}
	for _, g := range fs {
		ds, err := dnf(g, neg)
		if err != nil {
			return nil, err
		}
		if len(ds) == 0 {
			return nil, nil // conjunction with false
		}
		next := make([][]Literal, 0, len(acc)*len(ds))
		for _, a := range acc {
			for _, d := range ds {
				merged := make([]Literal, 0, len(a)+len(d))
				merged = append(merged, a...)
				merged = append(merged, d...)
				next = append(next, merged)
			}
		}
		acc = next
	}
	return acc, nil
}

// normalizeDisjunct dedupes literals and detects contradictions.
func normalizeDisjunct(lits []Literal) (Disjunct, bool) {
	pos := map[string]Atom{}
	neg := map[string]Atom{}
	for _, l := range lits {
		k := l.A.Key()
		if l.Neg {
			neg[k] = l.A
		} else {
			pos[k] = l.A
		}
	}
	for k := range pos {
		if _, clash := neg[k]; clash {
			return Disjunct{}, false
		}
	}
	d := Disjunct{
		Pos: make([]Atom, 0, len(pos)),
		Neg: make([]Atom, 0, len(neg)),
	}
	for _, a := range pos {
		d.Pos = append(d.Pos, a)
	}
	for _, a := range neg {
		d.Neg = append(d.Neg, a)
	}
	sortAtoms(d.Pos)
	sortAtoms(d.Neg)
	return d, true
}

func sortAtoms(as []Atom) {
	sort.Slice(as, func(i, j int) bool { return as[i].Key() < as[j].Key() })
}
