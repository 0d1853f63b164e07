package prover

import (
	"fmt"
	"strings"

	"hippo/internal/conflict"
	"hippo/internal/ra"
	"hippo/internal/value"
)

// Compiled certification.
//
// The ground formula of "t ∈ Q" (BuildFormula) has the same shape for
// every candidate t: only the tuple bound into its atoms changes. Compile
// therefore turns the query plan once into a Template whose atoms are
// slots — a base relation plus the candidate columns that form the atom's
// tuple — and whose selection, join and duplicated-projection conditions
// are predicates over the candidate itself.
//
// Per candidate, each slot resolves through one membership lookup: a
// tuple that is present and in no hyperedge is in every repair, one that
// is absent is in none, and only a conflicted tuple stays a literal.
// Certify folds the known atoms and the predicates to constants while it
// builds the DNF of the negated template, short-circuiting as Kleene's
// three-valued logic does. A residual without literals is the same in
// every repair and is the verdict; otherwise its literals are conflicted
// vertices only, and the blocker search decides it.

// tkind tags a template node.
type tkind uint8

const (
	tAtom tkind = iota // slot membership
	tPred              // selection or join predicate over the candidate
	tEq                // duplicated projection columns must hold equal values
	tAnd
	tOr
	tNot
)

// tnode is one node of a compiled template.
type tnode struct {
	kind tkind
	kids []int32  // tAnd, tOr, tNot
	slot int      // tAtom
	pred ra.Expr  // tPred, remapped onto candidate columns
	eqs  [][2]int // tEq: candidate column pairs
}

// slot is one base-relation atom of a template: the relation and, for
// each of its columns, the candidate column holding the value. Scans and
// each side of a product map onto a contiguous range [lo, hi); only a
// reordering projection makes the map a permutation.
type slot struct {
	rel    string // lower-cased relation name, the hypergraph's vertex label
	cols   []int
	lo, hi int
	contig bool
}

// Template is a query plan compiled for certification. It is immutable
// and may be shared by any number of provers.
type Template struct {
	arity int
	nodes []tnode
	slots []slot
	root  int32
	width int // widest non-contiguous slot, for the provers' scratch tuple
}

// Compile turns a plan that passed envelope.CheckQuery into a certificate
// template. The plan's columns are the candidate's columns.
func Compile(plan ra.Node) (*Template, error) {
	tpl := &Template{arity: plan.Schema().Len()}
	m := make([]int, tpl.arity)
	for i := range m {
		m[i] = i
	}
	root, err := tpl.compile(plan, m)
	if err != nil {
		return nil, err
	}
	tpl.root = root
	return tpl, nil
}

func (tpl *Template) add(n tnode) int32 {
	tpl.nodes = append(tpl.nodes, n)
	return int32(len(tpl.nodes) - 1)
}

// and conjoins its non-negative operands, cheapest first as given: a
// predicate placed ahead of a subtree spares the subtree's lookups when it
// fails.
func (tpl *Template) and(kids ...int32) int32 {
	out := kids[:0]
	for _, k := range kids {
		if k >= 0 {
			out = append(out, k)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return tpl.add(tnode{kind: tAnd, kids: out})
}

// predNode adds a predicate remapped from node-local columns onto
// candidate columns; a nil predicate adds nothing (-1).
func (tpl *Template) predNode(pred ra.Expr, m []int) int32 {
	if pred == nil {
		return -1
	}
	return tpl.add(tnode{kind: tPred, pred: ra.MapColumns(pred, func(i int) int { return m[i] })})
}

// compile lowers node, whose column i is candidate column m[i].
func (tpl *Template) compile(node ra.Node, m []int) (int32, error) {
	switch n := node.(type) {
	case *ra.Scan:
		s := slot{rel: strings.ToLower(n.Table.Name()), cols: m, contig: true}
		for i, c := range m {
			if c != m[0]+i {
				s.contig = false
			}
		}
		if s.contig && len(m) > 0 {
			s.lo, s.hi = m[0], m[0]+len(m)
		}
		if !s.contig {
			tpl.width = max(tpl.width, len(m))
		}
		tpl.slots = append(tpl.slots, s)
		return tpl.add(tnode{kind: tAtom, slot: len(tpl.slots) - 1}), nil
	case *ra.Select:
		child, err := tpl.compile(n.Child, m)
		if err != nil {
			return 0, err
		}
		return tpl.and(tpl.predNode(n.Pred, m), child), nil
	case *ra.Project:
		cm := make([]int, n.Child.Schema().Len())
		for i := range cm {
			cm[i] = -1
		}
		var eqs [][2]int
		for i, e := range n.Exprs {
			c, ok := e.(ra.Col)
			if !ok || c.Index < 0 || c.Index >= len(cm) {
				return 0, fmt.Errorf("prover: projection expression %s is not a column of its input", e)
			}
			if cm[c.Index] >= 0 {
				eqs = append(eqs, [2]int{cm[c.Index], m[i]})
				continue
			}
			cm[c.Index] = m[i]
		}
		for c, at := range cm {
			if at < 0 {
				return 0, fmt.Errorf("prover: projection drops input column %d (existential projection)", c)
			}
		}
		child, err := tpl.compile(n.Child, cm)
		if err != nil {
			return 0, err
		}
		eq := int32(-1)
		if len(eqs) > 0 {
			eq = tpl.add(tnode{kind: tEq, eqs: eqs})
		}
		return tpl.and(eq, child), nil
	case *ra.Product:
		return tpl.compilePair(n.L, n.R, nil, m)
	case *ra.Join:
		return tpl.compilePair(n.L, n.R, n.Pred, m)
	case *ra.Union:
		return tpl.compileBinary(tOr, n.L, n.R, false, m)
	case *ra.Diff:
		return tpl.compileBinary(tAnd, n.L, n.R, true, m)
	case *ra.Intersect:
		return tpl.compileBinary(tAnd, n.L, n.R, false, m)
	case *ra.DistinctNode:
		return tpl.compile(n.Child, m)
	default:
		return 0, fmt.Errorf("prover: unsupported operator %T in consistent query", node)
	}
}

// compilePair lowers a product or join: the predicate (a join is σ over
// the product) ahead of both sides, each side on its contiguous share of
// the pair's columns.
func (tpl *Template) compilePair(l, r ra.Node, pred ra.Expr, m []int) (int32, error) {
	la := l.Schema().Len()
	p := tpl.predNode(pred, m)
	lk, err := tpl.compile(l, m[:la:la])
	if err != nil {
		return 0, err
	}
	rk, err := tpl.compile(r, m[la:])
	if err != nil {
		return 0, err
	}
	return tpl.and(p, lk, rk), nil
}

// compileBinary lowers union (or), intersection (and) and difference (and
// with the right side negated); both sides share the node's columns.
func (tpl *Template) compileBinary(kind tkind, l, r ra.Node, negR bool, m []int) (int32, error) {
	lk, err := tpl.compile(l, m)
	if err != nil {
		return 0, err
	}
	rk, err := tpl.compile(r, m)
	if err != nil {
		return 0, err
	}
	if negR {
		rk = tpl.add(tnode{kind: tNot, kids: []int32{rk}})
	}
	return tpl.add(tnode{kind: kind, kids: []int32{lk, rk}}), nil
}

// holds evaluates a predicate or equality leaf on the candidate.
func (n *tnode) holds(t value.Tuple) (bool, error) {
	if n.kind == tEq {
		for _, e := range n.eqs {
			if !value.Equal(t[e[0]], t[e[1]]) {
				return false, nil
			}
		}
		return true, nil
	}
	return ra.EvalPredicate(n.pred, t)
}

// resolveSlot looks up slot s's tuple in the candidate. A present tuple
// in no hyperedge (in every repair) or an absent one (in none) is known,
// with in saying which; a conflicted tuple comes back as its vertex and
// component.
func (p *Prover) resolveSlot(tpl *Template, s int, t value.Tuple) (l rlit, known, in bool, err error) {
	sl := &tpl.slots[s]
	var tup value.Tuple
	if sl.contig {
		tup = t[sl.lo:sl.hi:sl.hi]
	} else {
		if cap(p.tbuf) < tpl.width {
			p.tbuf = make(value.Tuple, tpl.width)
		}
		tup = p.tbuf[:len(sl.cols)]
		for i, c := range sl.cols {
			tup[i] = t[c]
		}
	}
	p.Stats.MembershipChecks++
	ids, err := p.Member.Lookup(sl.rel, tup)
	if err != nil || len(ids) == 0 {
		return rlit{}, true, false, err
	}
	// Set semantics: identical duplicate rows share one logical tuple,
	// represented by its first occurrence (as in resolve).
	v := conflict.Vertex{Rel: sl.rel, Row: ids[0]}
	ref, conflicted := p.H.ComponentOf(v)
	if !conflicted {
		return rlit{}, true, true, nil
	}
	return rlit{v: v, comp: ref.ID}, false, false, nil
}

// Certify reports whether candidate t is a consistent answer. It builds
// the residual DNF of the negated template; no disjunct means the
// candidate holds in every repair, one empty disjunct that it holds in
// none, and either counts as Decided. Any other residual goes to the
// blocker search: t is consistent iff no disjunct is satisfiable in some
// repair. A conflict-free candidate allocates nothing once the prover's
// scratch has grown.
func (p *Prover) Certify(tpl *Template, t value.Tuple) (bool, error) {
	if len(t) != tpl.arity {
		return false, fmt.Errorf("prover: tuple arity %d does not match plan arity %d", len(t), tpl.arity)
	}
	p.Stats.TuplesChecked++
	p.lits, p.spans = p.lits[:0], p.spans[:0]
	lo, hi, err := p.dnf(tpl, tpl.root, true, t)
	if err != nil {
		return false, err
	}
	ds := p.spans[lo:hi]
	if len(ds) == 0 || len(ds) == 1 && ds[0].n == 0 {
		p.Stats.Decided++
		return len(ds) == 0, nil
	}
	for _, d := range ds {
		p.Stats.Disjuncts++
		sat, err := p.satisfiable(p.lits[d.off : d.off+d.n])
		if err != nil || sat {
			return false, err
		}
	}
	return true, nil
}

// span is one disjunct of a residual DNF: a run of p.lits.
type span struct{ off, n int }

// dnf appends the disjuncts of node i (negated when neg) to p.spans and
// returns their range, which starts at the length of p.spans on entry and
// ends at its length on return. A constant true is one empty disjunct, a
// constant false none. Literal runs are appended to p.lits and never
// moved, so a span stays valid while later spans are built.
func (p *Prover) dnf(tpl *Template, i int32, neg bool, t value.Tuple) (lo, hi int, err error) {
	n := &tpl.nodes[i]
	lo = len(p.spans)
	constant := func(b bool) (int, int, error) {
		if b != neg {
			p.spans = append(p.spans, span{off: len(p.lits)})
			return lo, lo + 1, nil
		}
		return lo, lo, nil
	}
	switch n.kind {
	case tAtom:
		l, known, in, err := p.resolveSlot(tpl, n.slot, t)
		if err != nil {
			return lo, lo, err
		}
		if known {
			return constant(in)
		}
		l.neg = neg
		p.spans = append(p.spans, span{off: len(p.lits), n: 1})
		p.lits = append(p.lits, l)
		return lo, lo + 1, nil
	case tPred, tEq:
		ok, err := n.holds(t)
		if err != nil {
			return lo, lo, err
		}
		return constant(ok)
	case tNot:
		return p.dnf(tpl, n.kids[0], !neg, t)
	}
	if (n.kind == tAnd) != neg {
		return p.dnfProduct(tpl, n.kids, neg, t)
	}
	return p.dnfUnion(tpl, n.kids, neg, t)
}

// dnfUnion concatenates the operands' disjuncts; an operand that is
// constant true absorbs the rest.
func (p *Prover) dnfUnion(tpl *Template, kids []int32, neg bool, t value.Tuple) (lo, hi int, err error) {
	lo = len(p.spans)
	end := lo
	for _, k := range kids {
		clo, chi, err := p.dnf(tpl, k, neg, t)
		if err != nil {
			return lo, lo, err
		}
		for _, d := range p.spans[clo:chi] {
			if d.n == 0 {
				p.spans = append(p.spans[:lo], d)
				return lo, lo + 1, nil
			}
		}
		end = chi
	}
	return lo, end, nil
}

// dnfProduct distributes the conjunction of the operands' DNFs; an operand
// that is constant false empties it, one that is constant true is skipped.
func (p *Prover) dnfProduct(tpl *Template, kids []int32, neg bool, t value.Tuple) (lo, hi int, err error) {
	lo = len(p.spans)
	p.spans = append(p.spans, span{off: len(p.lits)})
	hi = lo + 1
	for _, k := range kids {
		clo, chi, err := p.dnf(tpl, k, neg, t)
		if err != nil {
			return lo, lo, err
		}
		switch {
		case clo == chi:
			p.spans = p.spans[:lo]
			return lo, lo, nil
		case chi-clo == 1 && p.spans[clo].n == 0:
			p.spans = p.spans[:hi]
			continue
		}
		start := len(p.spans)
		for a := lo; a < hi; a++ {
			for c := clo; c < chi; c++ {
				da, dc := p.spans[a], p.spans[c]
				off := len(p.lits)
				p.lits = append(p.lits, p.lits[da.off:da.off+da.n]...)
				p.lits = append(p.lits, p.lits[dc.off:dc.off+dc.n]...)
				p.spans = append(p.spans, span{off: off, n: da.n + dc.n})
			}
		}
		n := copy(p.spans[lo:], p.spans[start:])
		p.spans = p.spans[:lo+n]
		hi = lo + n
	}
	return lo, hi, nil
}
