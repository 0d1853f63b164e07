package prover

import (
	"slices"
	"strings"

	"hippo/internal/conflict"
	"hippo/internal/ra"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// Membership answers base-relation membership checks, returning the live
// RowIDs holding the tuple (empty when absent). IndexedMembership, the one
// the serving path uses, answers from in-memory structures ("without
// executing any queries on the database", paper §2); the paper's base
// version, one database query per check, lives with the E6 experiment in
// internal/bench.
type Membership interface {
	Lookup(rel string, t value.Tuple) ([]storage.RowID, error)
}

// IndexedMembership resolves membership through the conflict stage's
// full-row tuple index.
type IndexedMembership struct {
	TI *conflict.TupleIndex
}

// Lookup returns the live rows equal to t.
func (m IndexedMembership) Lookup(rel string, t value.Tuple) ([]storage.RowID, error) {
	return m.TI.Lookup(rel, t)
}

// Stats counts the work a Prover performed.
type Stats struct {
	TuplesChecked    int64 // candidate tuples processed
	Disjuncts        int64 // DNF disjuncts examined
	MembershipChecks int64 // base-relation membership checks
	BlockerChoices   int64 // blocking-edge assignments explored
	Pruned           int64 // DFS branches cut by early independence checks
	Components       int64 // per-component sub-searches solved
	// Decided counts the candidates whose residual folded to a constant,
	// settled without a blocker search (see Certify); TuplesChecked -
	// Decided were searched.
	Decided int64
}

// Add accumulates o into s; the core uses it to merge per-worker counters
// after parallel candidate certification.
func (s *Stats) Add(o Stats) {
	s.TuplesChecked += o.TuplesChecked
	s.Disjuncts += o.Disjuncts
	s.MembershipChecks += o.MembershipChecks
	s.BlockerChoices += o.BlockerChoices
	s.Pruned += o.Pruned
	s.Components += o.Components
	s.Decided += o.Decided
}

// Deps lists everything a certification verdict depended on, for precise
// cache invalidation (internal/verdictcache; no serving path uses either —
// they stay for the benchmark module's traced build): the membership status of every atom the prover
// resolved, and the conflict components it searched. The verdict stays
// valid exactly while all of those are unchanged — an update that neither
// flips a listed atom's membership nor touches a listed component cannot
// change the outcome, because the blocker search never leaves the
// components of the resolved vertices.
type Deps struct {
	Atoms []string // DepAtomKey of every membership status consulted
	Comps []conflict.ComponentRef
}

// DepAtomKey is the canonical dependency key for "tuple t ∈ rel": the
// verdict cache indexes entries by it and the core derives the same key
// from DML deltas to invalidate them.
func DepAtomKey(rel string, t value.Tuple) string {
	return strings.ToLower(rel) + "|" + t.Key()
}

// depTracker deduplicates dependencies during one certification.
type depTracker struct {
	atoms map[string]struct{}
	comps map[uint64]uint64 // component id -> fingerprint
}

// Prover checks candidate tuples against the conflict hypergraph H.
type Prover struct {
	H      *conflict.Hypergraph
	Member Membership

	deps  *depTracker
	Stats Stats

	// Scratch reused across candidates: the residual DNF's literals and
	// disjunct spans, the tuple of a slot that a projection reorders, and
	// the blocker search's component groups, vertex sets, blocker lists
	// and edge remainders.
	lits     []rlit
	spans    []span
	tbuf     value.Tuple
	groups   []compGroup
	nset     conflict.VertexSet
	sset     conflict.VertexSet
	blockers [][]conflict.Edge
	rems     []conflict.Vertex
}

// New creates a prover over a conflict hypergraph with the given
// membership source.
func New(h *conflict.Hypergraph, m Membership) *Prover {
	return &Prover{H: h, Member: m}
}

// IsConsistentAnswer reports whether t is a consistent answer to the query
// plan: whether t ∈ plan holds in every repair.
func (p *Prover) IsConsistentAnswer(plan ra.Node, t value.Tuple) (bool, error) {
	f, err := BuildFormula(plan, t)
	if err != nil {
		return false, err
	}
	return p.IsConsistent(f)
}

// CertifyAnswer is IsConsistentAnswer plus dependency tracking: it also
// returns what the verdict depended on, for the verdict cache. Tracking
// only spans this call. The serving path certifies with Certify instead;
// this stays for the benchmark module's traced build.
func (p *Prover) CertifyAnswer(plan ra.Node, t value.Tuple) (bool, Deps, error) {
	p.deps = &depTracker{atoms: make(map[string]struct{}), comps: make(map[uint64]uint64)}
	ok, err := p.IsConsistentAnswer(plan, t)
	d := Deps{}
	for a := range p.deps.atoms {
		d.Atoms = append(d.Atoms, a)
	}
	for id, fp := range p.deps.comps {
		d.Comps = append(d.Comps, conflict.ComponentRef{ID: id, FP: fp})
	}
	p.deps = nil
	return ok, d, err
}

// IsConsistent reports whether the ground formula f holds in every repair.
// It negates f, converts to DNF, and checks that no disjunct is satisfied
// by any repair.
func (p *Prover) IsConsistent(f Formula) (bool, error) {
	p.Stats.TuplesChecked++
	disjuncts, err := NegationDNF(f)
	if err != nil {
		return false, err
	}
	for _, d := range disjuncts {
		p.Stats.Disjuncts++
		sat, err := p.SatisfiableInSomeRepair(d)
		if err != nil {
			return false, err
		}
		if sat {
			return false, nil
		}
	}
	return true, nil
}

// SatisfiableInSomeRepair decides whether some repair contains every
// positive atom of d and none of its negative atoms.
//
// The positive atoms must exist in the database and be jointly independent.
// Each negative atom present in the database must be excluded from the
// repair; since repairs are *maximal* independent sets, exclusion of n must
// be forced by a blocking hyperedge e ∋ n whose remaining vertices all
// belong to the repair. The search assigns a blocking edge to every
// negative atom such that the union S of positive atoms and blocker
// remainders stays independent and avoids all negative atoms; any maximal
// independent extension of such an S is a witnessing repair.
//
// Atoms whose status is the same in every repair reduce to constants
// first: an absent positive atom or a present conflict-free negative one
// refutes the disjunct, while a conflict-free positive atom or an absent
// negative one constrains nothing. What remains is a conjunction of
// conflicted vertices (see satisfiable).
func (p *Prover) SatisfiableInSomeRepair(d Disjunct) (bool, error) {
	var lits []rlit
	for _, a := range d.Pos {
		v, inDB, err := p.resolve(a)
		if err != nil || !inDB {
			return false, err
		}
		if ref, ok := p.H.ComponentOf(v); ok {
			lits = append(lits, rlit{v: v, comp: ref.ID})
		}
	}
	for _, a := range d.Neg {
		v, inDB, err := p.resolve(a)
		if err != nil {
			return false, err
		}
		if !inDB {
			continue // absent from every repair for free
		}
		ref, ok := p.H.ComponentOf(v)
		if !ok {
			return false, nil // conflict-free tuples survive in every repair
		}
		lits = append(lits, rlit{v: v, comp: ref.ID, neg: true})
	}
	return p.satisfiable(lits)
}

// rlit is a residual literal: a conflicted vertex that the sought repair
// must contain (neg=false) or exclude (neg=true), with its component.
type rlit struct {
	v    conflict.Vertex
	comp uint64
	neg  bool
}

// compTask is one component's share of a disjunct: the positive vertices
// that must be jointly independent and the negative vertices that each
// need a blocking edge, all within a single component.
type compTask struct {
	pos []conflict.Vertex
	neg []conflict.Vertex
}

// compGroup pairs a component id with its task. Disjuncts touch very few
// components, so groups live in a linearly scanned slice — cheaper than a
// map on the per-candidate hot path.
type compGroup struct {
	id uint64
	compTask
}

// satisfiable decides a conjunction of conflicted-vertex literals. A
// vertex required both in and out refutes it; otherwise the literals are
// grouped by component and, because no hyperedge crosses a component
// boundary, each component is searched on its own — cost exponential only
// in the largest component, never in the whole disjunct.
func (p *Prover) satisfiable(lits []rlit) (bool, error) {
	groups := p.groups[:0]
	nset := p.nset
	clear(nset)
next:
	for i, l := range lits {
		for _, m := range lits[:i] {
			if m.v == l.v {
				if m.neg != l.neg {
					return false, nil // required both in and out
				}
				continue next
			}
		}
		g := -1
		for j := range groups {
			if groups[j].id == l.comp {
				g = j
				break
			}
		}
		if g < 0 {
			// Reuse a previous disjunct's group and its slices.
			if g = len(groups); g < cap(groups) {
				groups = groups[:g+1]
				groups[g] = compGroup{id: l.comp, compTask: compTask{pos: groups[g].pos[:0], neg: groups[g].neg[:0]}}
			} else {
				groups = append(groups, compGroup{id: l.comp})
			}
		}
		if !l.neg {
			groups[g].pos = append(groups[g].pos, l.v)
			continue
		}
		if nset == nil {
			nset = conflict.VertexSet{}
			p.nset = nset
		}
		nset[l.v] = true
		groups[g].neg = append(groups[g].neg, l.v)
	}
	p.groups = groups
	for i := range groups {
		ok, err := p.solveComponent(&groups[i].compTask, nset)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// solveComponent runs the positive-independence check and blocking-edge
// search for one component's share of a disjunct.
func (p *Prover) solveComponent(tk *compTask, nset conflict.VertexSet) (bool, error) {
	p.Stats.Components++
	if p.sset == nil {
		p.sset = conflict.VertexSet{}
	}
	s := p.sset
	clear(s)
	for _, v := range tk.pos {
		if !p.H.IndependentWith(s, v) {
			return false, nil
		}
		s[v] = true
	}
	p.rems = p.rems[:0]
	blockers := p.blockers[:0]
	for _, v := range tk.neg {
		blockers = append(blockers, p.blockerCandidates(v, p.H.EdgesContaining(v)))
	}
	p.blockers = blockers
	// Cheapest-first ordering shrinks the search tree.
	sortByLen(blockers)
	return p.assignBlockers(s, nset, blockers, 0)
}

// blockerCandidates precomputes, for a negative vertex v, each candidate
// edge's "remainder" (the edge without v). Remainders are carved from the
// prover's scratch arena, which solveComponent resets per component; a
// slice carved before the arena grows keeps its own backing array.
func (p *Prover) blockerCandidates(v conflict.Vertex, edges []conflict.Edge) []conflict.Edge {
	out := make([]conflict.Edge, 0, len(edges))
	for _, e := range edges {
		start := len(p.rems)
		for _, u := range e.Verts {
			if u != v {
				p.rems = append(p.rems, u)
			}
		}
		out = append(out, conflict.Edge{Verts: p.rems[start:len(p.rems):len(p.rems)], Label: e.Label})
	}
	return out
}

// assignBlockers tries every combination of blocking edges depth-first,
// cutting a branch as soon as its vertex set stops being independent.
func (p *Prover) assignBlockers(s, nset conflict.VertexSet, blockers [][]conflict.Edge, i int) (bool, error) {
	if i == len(blockers) {
		return true, nil
	}
nextEdge:
	for _, rem := range blockers[i] {
		p.Stats.BlockerChoices++
		var added []conflict.Vertex
		for _, u := range rem.Verts {
			if nset[u] {
				continue nextEdge // blocker would force a forbidden tuple in
			}
			if !s[u] {
				added = append(added, u)
			}
		}
		if !p.H.IndependentWith(s, added...) {
			p.Stats.Pruned++
			continue
		}
		for _, u := range added {
			s[u] = true
		}
		ok, err := p.assignBlockers(s, nset, blockers, i+1)
		for _, u := range added {
			delete(s, u)
		}
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// resolve maps an atom to its hypergraph vertex, if present in the DB.
// When dependency tracking is active it records the consulted membership
// status and, for conflicting vertices, the component searched.
func (p *Prover) resolve(a Atom) (conflict.Vertex, bool, error) {
	p.Stats.MembershipChecks++
	if p.deps != nil {
		p.deps.atoms[DepAtomKey(a.Rel, a.Tuple)] = struct{}{}
	}
	ids, err := p.Member.Lookup(a.Rel, a.Tuple)
	if err != nil {
		return conflict.Vertex{}, false, err
	}
	if len(ids) == 0 {
		return conflict.Vertex{}, false, nil
	}
	// Set semantics assumed: identical duplicate rows would share one
	// logical tuple; use the first occurrence as the vertex.
	v := conflict.Vertex{Rel: strings.ToLower(a.Rel), Row: ids[0]}
	if p.deps != nil {
		if ref, ok := p.H.ComponentOf(v); ok {
			p.deps.comps[ref.ID] = ref.FP
		}
	}
	return v, true, nil
}

func sortByLen(bs [][]conflict.Edge) {
	slices.SortStableFunc(bs, func(a, b []conflict.Edge) int {
		return len(a) - len(b)
	})
}
