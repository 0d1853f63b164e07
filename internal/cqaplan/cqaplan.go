// Package cqaplan implements the tiered answering planner: it classifies
// an incoming consistent query against the registered constraint set and
// decides which of two execution tiers serves it.
//
//   - Rewrite tier: sound only for self-join-free SJD plans (no UNION,
//     single-atom negative sides) whose relations are fully covered by
//     unary/binary denial residues, with the Koutris–Wijsen-inspired
//     guards below. On that class a tuple of a positive atom is in every
//     repair exactly when it is in no hyperedge, so the core serves the
//     query plan itself with a conflict filter over each positive atom —
//     zero per-candidate certification. Decide makes this decision from a
//     Profile of the constraint set, without compiling anything.
//     Classify applies the same guards and also compiles Decision.Plan,
//     the Arenas–Bertossi–Chomicki rewriting: a self-contained plan of
//     residue anti-joins that evaluates without a serving view. It is the
//     reference the differential tests and the benchmark's traced replay
//     evaluate.
//   - Prover tier: the hypergraph certification path, which serves every
//     query the rewrite tier cannot take.
//
// Classification is conservative: any shape the analysis cannot prove
// eligible goes to the prover tier, with the reasons recorded. Self-joins,
// equality of a key-position column with a constant, cyclic attack
// structure between query atoms, a relation mixing unary and binary
// constraints (the unary denial can kill a binary-conflict partner in
// every repair, so residues over-subtract), constraints outside the
// binary-denial class and a multi-atom negative side each rule the rewrite
// tier out.
package cqaplan

import (
	"fmt"
	"sort"
	"strings"

	"hippo/internal/constraint"
	"hippo/internal/envelope"
	"hippo/internal/ra"
	"hippo/internal/rewrite"
	"hippo/internal/schema"
)

// Tier identifies the execution path serving a consistent query.
type Tier int

const (
	// TierProver is the hypergraph certification path (fallback).
	TierProver Tier = iota
	// TierHybrid is never produced: Decide and Classify return only
	// TierRewrite or TierProver. The constant stays so existing readers keep compiling.
	TierHybrid
	// TierRewrite answers from the query plan under conflict filters,
	// with no certification.
	TierRewrite
)

// String names the tier as it appears in Stats.Strategy.
func (t Tier) String() string {
	switch t {
	case TierRewrite:
		return "rewrite"
	case TierHybrid:
		return "hybrid"
	default:
		return "prover"
	}
}

// ReasonCode labels one classification rule that ruled out the rewrite tier.
type ReasonCode string

// The classifier's demotion reasons; each sends the query to the prover
// tier.
const (
	ReasonUnsupportedShape ReasonCode = "unsupported-shape"      // outside SJUD / unsafe projection
	ReasonUnion            ReasonCode = "union"                  // disjunctive information needs the prover
	ReasonSelfJoin         ReasonCode = "self-join"              // a relation occurs more than once
	ReasonKeyConstant      ReasonCode = "constant-in-key"        // key-position column compared to a constant
	ReasonAttackCycle      ReasonCode = "attack-cycle"           // cyclic non-key join dependencies
	ReasonInteraction      ReasonCode = "constraint-interaction" // unary denial overlaps a binary constraint
	ReasonUncovered        ReasonCode = "constraint-uncovered"   // a scanned relation has a non-residue constraint
	ReasonNegativeJoin     ReasonCode = "join-under-negation"    // multi-atom negative side of a difference
	ReasonCompileFailed    ReasonCode = "compile-failed"         // residue application failed unexpectedly
	ReasonForced           ReasonCode = "forced"                 // caller options pinned the tier
)

// Reason is one demotion with its rule and a human-readable detail.
type Reason struct {
	Code   ReasonCode
	Detail string
}

// String renders "code: detail".
func (r Reason) String() string {
	if r.Detail == "" {
		return string(r.Code)
	}
	return string(r.Code) + ": " + r.Detail
}

// Decision is the planner's verdict for one (query plan, constraint set)
// pair. It is immutable once built.
type Decision struct {
	Tier Tier
	// Plan is the compiled rewriting, set only by Classify for the rewrite
	// tier; Decide leaves it nil.
	Plan ra.Node
	// Reasons records why the rewrite tier was ruled out (empty when it
	// was chosen).
	Reasons []Reason
	// Residues is the number of anti-join residues embedded in Plan.
	Residues int
}

// ReasonStrings renders the demotion reasons for Stats.
func (d *Decision) ReasonStrings() []string {
	if len(d.Reasons) == 0 {
		return nil
	}
	out := make([]string, len(d.Reasons))
	for i, r := range d.Reasons {
		out[i] = r.String()
	}
	return out
}

// Profile is what classification needs to know about a constraint set:
// the key columns and constraint interactions per relation, the relations
// some constraint mentions, and the relations carrying a constraint the
// rewriting cannot express. It is immutable once built, so a serving view
// carries the profile of the constraint set its hypergraph was built from.
type Profile struct {
	keys        map[string]map[string]bool
	interacting map[string]bool
	// uncovered holds the relations of constraints that do not lower to a
	// unary or binary denial; the key "" (lowering failed, relations
	// unknown) covers every relation.
	uncovered   map[string]bool
	constrained map[string]bool
}

// NewProfile profiles cs under the catalog's schemas.
func NewProfile(cat constraint.Catalog, cs []constraint.Constraint) *Profile {
	p := &Profile{
		keys:        keyColumns(cs),
		interacting: interactingRels(cs),
		uncovered:   map[string]bool{},
		constrained: map[string]bool{},
	}
	for _, c := range cs {
		den, err := c.Denial(cat)
		if err != nil {
			p.uncovered[""] = true
			continue
		}
		for _, a := range den.Atoms {
			rel := strings.ToLower(a.Rel)
			p.constrained[rel] = true
			if den.Arity() > 2 {
				p.uncovered[rel] = true
			}
		}
	}
	return p
}

// Constrained reports whether some constraint mentions rel (lowercased):
// only such a relation's tuples can be vertices of a hyperedge.
func (p *Profile) Constrained(rel string) bool { return p.constrained[rel] }

// Decide decides the execution tier for plan under the profiled
// constraint set. It never fails: anything it cannot prove eligible
// becomes a prover-tier decision with reasons.
func Decide(p *Profile, plan ra.Node) *Decision {
	d := &Decision{Tier: TierProver}
	if err := envelope.CheckQuery(plan); err != nil {
		// The prover path will surface the same error; classification
		// just routes it there.
		d.Reasons = append(d.Reasons, Reason{Code: ReasonUnsupportedShape, Detail: err.Error()})
		return d
	}
	sh := analyzeShape(plan)
	if sh.hasUnion {
		d.Reasons = append(d.Reasons, Reason{Code: ReasonUnion, Detail: "UNION answers may alternate between branches across repairs"})
		return d
	}

	// Guards that demote to the prover tier. They are deliberately
	// conservative: each names a shape for which the first-order
	// rewriting is not known to be complete in general (Koutris &
	// Wijsen), so we only claim the rewrite tier where the residue method
	// is provably exact. Relations are visited in name order, so the
	// reasons are the same on every run.
	rels := make([]string, 0, len(sh.relCount))
	for rel := range sh.relCount {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if n := sh.relCount[rel]; n > 1 {
			d.Reasons = append(d.Reasons, Reason{Code: ReasonSelfJoin, Detail: fmt.Sprintf("%s occurs %d times", rel, n)})
		}
	}
	if r, ok := keyConstant(sh, p.keys); ok {
		d.Reasons = append(d.Reasons, r)
	}
	if r, ok := attackCycle(sh, p.keys); ok {
		d.Reasons = append(d.Reasons, r)
	}
	for _, rel := range rels {
		if p.interacting[rel] || p.interacting["*"] {
			d.Reasons = append(d.Reasons, Reason{Code: ReasonInteraction,
				Detail: fmt.Sprintf("%s mixes unary and binary constraints", rel)})
		}
	}
	if len(d.Reasons) > 0 {
		return d
	}

	// Coverage: the rewrite tier requires every scanned relation's
	// constraints to be expressed as residues.
	for _, rel := range rels {
		if p.uncovered[rel] || p.uncovered[""] {
			d.Reasons = append(d.Reasons, Reason{Code: ReasonUncovered, Detail: rel})
		}
	}
	if sh.negComplex {
		d.Reasons = append(d.Reasons, Reason{Code: ReasonNegativeJoin, Detail: "difference with a multi-atom right side"})
	}
	if len(d.Reasons) == 0 {
		d.Tier = TierRewrite
	}
	return d
}

// Classify is Decide under the rewriter's own view of coverage (rw is
// built from the same constraint set as cs), plus the compiled rewriting
// for a rewrite-tier decision.
func Classify(rw *rewrite.Rewriter, cs []constraint.Constraint, plan ra.Node) *Decision {
	if rw == nil {
		return &Decision{Tier: TierProver, Reasons: []Reason{{Code: ReasonCompileFailed, Detail: "no rewriter"}}}
	}
	d := Decide(&Profile{keys: keyColumns(cs), interacting: interactingRels(cs), uncovered: rw.SkippedRelations()}, plan)
	if d.Tier != TierRewrite {
		return d
	}
	compiled, err := rw.Rewrite(plan)
	if err != nil {
		return &Decision{Tier: TierProver, Reasons: []Reason{{Code: ReasonCompileFailed, Detail: err.Error()}}}
	}
	d.Plan = Distinctify(compiled)
	d.Residues = countResidues(d.Plan)
	return d
}

// shape is what one plan walk collects for classification.
type shape struct {
	hasUnion bool
	// relCount counts scans per base relation (lowercased).
	relCount map[string]int
	// qualRel maps each scan's schema qualifier to its relation.
	qualRel map[string]string
	// preds pairs every predicate with the schema it is bound against.
	preds []boundPred
	// negComplex reports a Diff whose right subtree holds more than one
	// atom (or nested set operations): bare negative scans are exact only
	// for single-atom subtrahends.
	negComplex bool
}

type boundPred struct {
	pred ra.Expr
	sch  schema.Schema
}

func analyzeShape(plan ra.Node) *shape {
	sh := &shape{relCount: map[string]int{}, qualRel: map[string]string{}}
	sh.walk(plan)
	return sh
}

func (sh *shape) walk(n ra.Node) {
	switch t := n.(type) {
	case *ra.Scan:
		rel := strings.ToLower(t.Table.Name())
		sh.relCount[rel]++
		q := strings.ToLower(t.Alias)
		if q == "" {
			q = rel
		}
		sh.qualRel[q] = rel
	case *ra.Select:
		sh.preds = append(sh.preds, boundPred{pred: t.Pred, sch: t.Child.Schema()})
	case *ra.Join:
		sh.preds = append(sh.preds, boundPred{pred: t.Pred, sch: t.L.Schema().Concat(t.R.Schema())})
	case *ra.Union:
		sh.hasUnion = true
	case *ra.Diff:
		if countScans(t.R) > 1 || hasSetOps(t.R) {
			sh.negComplex = true
		}
	}
	for _, c := range n.Children() {
		sh.walk(c)
	}
}

func countScans(n ra.Node) int {
	total := 0
	ra.Walk(n, func(m ra.Node) {
		if _, ok := m.(*ra.Scan); ok {
			total++
		}
	})
	return total
}

func hasSetOps(n ra.Node) bool {
	found := false
	ra.Walk(n, func(m ra.Node) {
		switch m.(type) {
		case *ra.Diff, *ra.Union, *ra.Intersect:
			found = true
		}
	})
	return found
}

// interactingRels finds relations where per-constraint residues stop
// being exact: a single-atom denial kills its violators in EVERY repair,
// so when such a relation also participates in a binary constraint, a
// tuple's binary-conflict partner may itself be dead — the tuple then
// belongs to every repair despite having a partner, and the binary
// residue would wrongly discard it. Every relation of an affected binary constraint is reported; an
// unrecognized constraint type reports the wildcard "*".
func interactingRels(cs []constraint.Constraint) map[string]bool {
	unary := map[string]bool{}
	var binarySets [][]string
	wildcard := false
	for _, c := range cs {
		switch t := c.(type) {
		case constraint.FD:
			binarySets = append(binarySets, []string{strings.ToLower(t.Rel)})
		case constraint.Key:
			binarySets = append(binarySets, []string{strings.ToLower(t.Rel)})
		case constraint.Exclusion:
			binarySets = append(binarySets, []string{strings.ToLower(t.A.Rel), strings.ToLower(t.B.Rel)})
		case constraint.Denial:
			if t.Arity() == 1 {
				unary[strings.ToLower(t.Atoms[0].Rel)] = true
				continue
			}
			var rels []string
			for _, a := range t.Atoms {
				rels = append(rels, strings.ToLower(a.Rel))
			}
			binarySets = append(binarySets, rels)
		default:
			wildcard = true
		}
	}
	out := map[string]bool{}
	if wildcard {
		out["*"] = true
		return out
	}
	for _, rels := range binarySets {
		hit := false
		for _, r := range rels {
			if unary[r] {
				hit = true
				break
			}
		}
		if hit {
			for _, r := range rels {
				out[r] = true
			}
		}
	}
	return out
}

// keyColumns collects, per relation (lowercased), the columns that act as
// key positions: the determinant of any declared FD or Key.
func keyColumns(cs []constraint.Constraint) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	add := func(rel string, cols []string) {
		rel = strings.ToLower(rel)
		m := out[rel]
		if m == nil {
			m = map[string]bool{}
			out[rel] = m
		}
		for _, c := range cols {
			m[strings.ToLower(c)] = true
		}
	}
	for _, c := range cs {
		switch t := c.(type) {
		case constraint.FD:
			add(t.Rel, t.LHS)
		case constraint.Key:
			add(t.Rel, t.Cols)
		}
	}
	return out
}

// keyConstant reports an equality between a key-position column and a
// constant anywhere in the plan's predicates.
func keyConstant(sh *shape, keys map[string]map[string]bool) (Reason, bool) {
	for _, bp := range sh.preds {
		for _, e := range conjuncts(bp.pred) {
			cmp, ok := e.(ra.Cmp)
			if !ok || cmp.Op != ra.EQ {
				continue
			}
			for _, side := range [][2]ra.Expr{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
				col, okc := side[0].(ra.Col)
				_, okk := side[1].(ra.Const)
				if !okc || !okk {
					continue
				}
				rel, name, ok := resolveCol(sh, bp.sch, col.Index)
				if ok && keys[rel][name] {
					return Reason{Code: ReasonKeyConstant,
						Detail: fmt.Sprintf("%s.%s = constant", rel, name)}, true
				}
			}
		}
	}
	return Reason{}, false
}

// attackCycle builds a conservative attack graph over the query's atoms:
// atom A attacks atom B when A's relation has a declared key and a
// non-key column of A is equated with a column of B. A directed cycle
// means no atom's certainty can be decided independently of the others,
// so the query is served by the prover (mirroring the Koutris–Wijsen
// attack-graph dichotomy for the rewritable fragment).
func attackCycle(sh *shape, keys map[string]map[string]bool) (Reason, bool) {
	edges := map[string]map[string]bool{}
	for _, bp := range sh.preds {
		for _, e := range conjuncts(bp.pred) {
			cmp, ok := e.(ra.Cmp)
			if !ok || cmp.Op != ra.EQ {
				continue
			}
			lc, okl := cmp.L.(ra.Col)
			rc, okr := cmp.R.(ra.Col)
			if !okl || !okr {
				continue
			}
			lRel, lName, okL := resolveCol(sh, bp.sch, lc.Index)
			rRel, rName, okR := resolveCol(sh, bp.sch, rc.Index)
			if !okL || !okR {
				continue
			}
			lq, rq := qualAt(bp.sch, lc.Index), qualAt(bp.sch, rc.Index)
			if lq == rq {
				continue
			}
			if len(keys[lRel]) > 0 && !keys[lRel][lName] {
				addEdge(edges, lq, rq)
			}
			if len(keys[rRel]) > 0 && !keys[rRel][rName] {
				addEdge(edges, rq, lq)
			}
		}
	}
	if cyc := findCycle(edges); cyc != "" {
		return Reason{Code: ReasonAttackCycle, Detail: cyc}, true
	}
	return Reason{}, false
}

func addEdge(edges map[string]map[string]bool, from, to string) {
	m := edges[from]
	if m == nil {
		m = map[string]bool{}
		edges[from] = m
	}
	m[to] = true
}

// findCycle reports the first atom, in name order, from which a directed
// cycle is reachable ("" when acyclic).
func findCycle(edges map[string]map[string]bool) string {
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var dfs func(string) bool
	dfs = func(n string) bool {
		state[n] = visiting
		for m := range edges[n] {
			switch state[m] {
			case visiting:
				return true
			case done:
			default:
				if dfs(m) {
					return true
				}
			}
		}
		state[n] = done
		return false
	}
	starts := make([]string, 0, len(edges))
	for n := range edges {
		starts = append(starts, n)
	}
	sort.Strings(starts)
	for _, n := range starts {
		if state[n] == 0 && dfs(n) {
			return "atoms " + n + "..."
		}
	}
	return ""
}

// resolveCol maps a column index of a bound predicate to its (relation,
// column-name) pair via the schema's qualifier.
func resolveCol(sh *shape, sch schema.Schema, idx int) (rel, name string, ok bool) {
	if idx < 0 || idx >= sch.Len() {
		return "", "", false
	}
	c := sch.Columns[idx]
	rel, ok = sh.qualRel[strings.ToLower(c.Qualifier)]
	return rel, strings.ToLower(c.Name), ok
}

func qualAt(sch schema.Schema, idx int) string {
	if idx < 0 || idx >= sch.Len() {
		return ""
	}
	return strings.ToLower(sch.Columns[idx].Qualifier)
}

func conjuncts(e ra.Expr) []ra.Expr {
	if e == nil {
		return nil
	}
	return ra.Conjuncts(e)
}

// Distinctify mirrors the envelope's multiplicity on a rewrite-tier plan:
// every projection becomes DISTINCT, exactly as Envelope marks them, so
// rewrite-tier answers carry the same duplicates as prover-tier answers
// (set operators already deduplicate on both paths).
func Distinctify(n ra.Node) ra.Node {
	switch t := n.(type) {
	case *ra.Project:
		return &ra.Project{Child: Distinctify(t.Child), Exprs: t.Exprs, Names: t.Names, Distinct: true}
	case *ra.Select:
		return &ra.Select{Child: Distinctify(t.Child), Pred: t.Pred}
	case *ra.Product:
		return &ra.Product{L: Distinctify(t.L), R: Distinctify(t.R)}
	case *ra.Join:
		return &ra.Join{L: Distinctify(t.L), R: Distinctify(t.R), Pred: t.Pred}
	case *ra.Diff:
		return &ra.Diff{L: Distinctify(t.L), R: Distinctify(t.R)}
	case *ra.Intersect:
		return &ra.Intersect{L: Distinctify(t.L), R: Distinctify(t.R)}
	case *ra.DistinctNode:
		return &ra.DistinctNode{Child: Distinctify(t.Child)}
	case *ra.AntiJoin:
		// Residue anti-joins: the partner side is machinery, not a query
		// atom — leave it untouched.
		return &ra.AntiJoin{L: Distinctify(t.L), R: t.R, Pred: t.Pred}
	default:
		return n
	}
}

func countResidues(n ra.Node) int {
	total := 0
	ra.Walk(n, func(m ra.Node) {
		if _, ok := m.(*ra.AntiJoin); ok {
			total++
		}
	})
	return total
}
