package conflict

import (
	"sort"
	"strings"
	"testing"

	"hippo/internal/constraint"
	"hippo/internal/engine"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// newDB builds an employee table with two FD-violating clusters:
// id 1 has salaries 100/200 (2 tuples), id 3 has salaries 300/300/400.
func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New()
	mustExec(db, "CREATE TABLE emp (id INT, name TEXT, salary INT)")
	mustExec(db, `INSERT INTO emp VALUES
		(1, 'ann', 100),
		(1, 'ann', 200),
		(2, 'bob', 150),
		(3, 'cat', 300),
		(3, 'kat', 300),
		(3, 'cat', 400)`)
	return db
}

func fdSalary() constraint.FD {
	return constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"salary"}}
}

func detect(t *testing.T, db *engine.DB, cs ...constraint.Constraint) (*Hypergraph, *TupleIndex, DetectStats) {
	t.Helper()
	h, ti, st, err := NewDetector(db).Detect(cs)
	if err != nil {
		t.Fatal(err)
	}
	return h, ti, st
}

// denialForms rewrites each constraint as its denial form, which Detect
// evaluates on the generic denial-join path whatever the constraint's type.
func denialForms(t *testing.T, db *engine.DB, cs ...constraint.Constraint) []constraint.Constraint {
	t.Helper()
	out := make([]constraint.Constraint, len(cs))
	for i, c := range cs {
		den, err := c.Denial(db)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = den
	}
	return out
}

func edgeStrings(h *Hypergraph) []string {
	out := make([]string, 0, h.NumEdges())
	for _, e := range h.Edges() {
		out = append(out, e.String())
	}
	sort.Strings(out)
	return out
}

func TestDetectFD(t *testing.T) {
	db := newDB(t)
	h, _, st := detect(t, db, fdSalary())
	// id=1: rows 0,1 conflict (1 edge). id=3: rows {3,4} vs row 5 → 2 edges.
	got := edgeStrings(h)
	want := []string{"{emp#0, emp#1}", "{emp#3, emp#5}", "{emp#4, emp#5}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("edges = %v, want %v", got, want)
	}
	if h.NumConflictingVertices() != 5 {
		t.Errorf("conflicting vertices = %d, want 5", h.NumConflictingVertices())
	}
	if st.Constraints != 1 || st.Combinations == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFDFastPathMatchesGeneric(t *testing.T) {
	db := newDB(t)
	fast, _, _ := detect(t, db, fdSalary())
	slow, _, _ := detect(t, db, denialForms(t, db, fdSalary())...)
	f, s := edgeStrings(fast), edgeStrings(slow)
	if strings.Join(f, "|") != strings.Join(s, "|") {
		t.Errorf("fast path %v != generic path %v", f, s)
	}
}

func TestDetectGeneralDenial(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE staff (ssn INT, name TEXT)")
	mustExec(db, "CREATE TABLE contractor (ssn INT, firm TEXT)")
	mustExec(db, "INSERT INTO staff VALUES (1, 'ann'), (2, 'bob')")
	mustExec(db, "INSERT INTO contractor VALUES (2, 'acme'), (3, 'init')")
	d, err := constraint.ParseDenial("staff s, contractor c WHERE s.ssn = c.ssn")
	if err != nil {
		t.Fatal(err)
	}
	h, ti, _ := detect(t, db, d)
	got := edgeStrings(h)
	if len(got) != 1 || got[0] != "{contractor#0, staff#1}" {
		t.Errorf("edges = %v", got)
	}
	// TupleIndex covers both relations.
	ids, err := ti.Lookup("staff", value.Tuple{value.Int(2), value.Text("bob")})
	if err != nil || len(ids) != 1 {
		t.Errorf("lookup = %v, %v", ids, err)
	}
}

func TestDetectUnaryDenial(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE acct (id INT, bal INT)")
	mustExec(db, "INSERT INTO acct VALUES (1, 50), (2, -10), (3, -99)")
	d, err := constraint.ParseDenial("acct a WHERE a.bal < 0")
	if err != nil {
		t.Fatal(err)
	}
	h, _, _ := detect(t, db, d)
	got := edgeStrings(h)
	want := []string{"{acct#1}", "{acct#2}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("edges = %v", got)
	}
	// Self-conflicting tuples are excluded from every repair.
	if !h.InConflict(Vertex{Rel: "acct", Row: 1}) {
		t.Error("acct#1 should be in conflict")
	}
}

func TestDetectTernaryDenial(t *testing.T) {
	// No path may exist a->b->c with total weight > 10.
	db := engine.New()
	mustExec(db, "CREATE TABLE edge (src INT, dst INT, w INT)")
	mustExec(db, "INSERT INTO edge VALUES (1, 2, 6), (2, 3, 7), (2, 4, 1), (9, 9, 100)")
	d, err := constraint.ParseDenial(
		"edge e1, edge e2 WHERE e1.dst = e2.src AND e1.w + e2.w > 10")
	if err != nil {
		t.Fatal(err)
	}
	h, _, _ := detect(t, db, d)
	got := edgeStrings(h)
	// (1,2,6)+(2,3,7)=13 violates; (1,2,6)+(2,4,1)=7 ok; (9,9,100) self-joins:
	// e1=e2=(9,9,100), 200>10 violates → unary edge after dedup.
	want := []string{"{edge#0, edge#1}", "{edge#3}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("edges = %v, want %v", got, want)
	}
}

func TestMultipleConstraints(t *testing.T) {
	db := newDB(t)
	nameFD := constraint.FD{Rel: "emp", LHS: []string{"id"}, RHS: []string{"name"}}
	h, _, st := detect(t, db, fdSalary(), nameFD)
	// salary FD: edges {0,1},{3,5},{4,5}. name FD: id=3 names cat,kat,cat →
	// edges {3,4},{4,5}; {4,5} violates both FDs and dedupes to one edge.
	if h.NumEdges() != 4 {
		t.Errorf("edges = %v", edgeStrings(h))
	}
	if st.Constraints != 2 {
		t.Errorf("constraints = %d", st.Constraints)
	}
}

func TestHypergraphIndependence(t *testing.T) {
	h := NewHypergraph()
	a := Vertex{Rel: "r", Row: 0}
	b := Vertex{Rel: "r", Row: 1}
	c := Vertex{Rel: "r", Row: 2}
	d := Vertex{Rel: "r", Row: 3}
	h.AddEdge([]Vertex{a, b}, "e1")
	h.AddEdge([]Vertex{b, c, d}, "e2")

	if !h.IndependentWith(NewVertexSet(), a, c, d) {
		t.Error("{a,c,d} should be independent")
	}
	if h.IndependentWith(NewVertexSet(), a, b) {
		t.Error("{a,b} contains edge e1")
	}
	if !h.IndependentWith(NewVertexSet(), b, c) {
		t.Error("{b,c} is a strict subset of e2, independent")
	}
	s := NewVertexSet(a, c)
	if !h.IndependentWith(s, d) {
		t.Error("{a,c}+d should be independent")
	}
	if len(s) != 2 {
		t.Error("IndependentWith must not mutate the set")
	}
	s2 := NewVertexSet(c, d)
	if h.IndependentWith(s2, b) {
		t.Error("{c,d}+b completes e2")
	}
	clone := s2.Clone()
	clone[b] = true
	if len(s2) != 2 {
		t.Error("Clone shares storage")
	}
}

func TestHypergraphDedupAndStats(t *testing.T) {
	h := NewHypergraph()
	a := Vertex{Rel: "r", Row: 0}
	b := Vertex{Rel: "r", Row: 1}
	if !h.AddEdge([]Vertex{a, b}, "x") {
		t.Error("first add should succeed")
	}
	if h.AddEdge([]Vertex{b, a}, "x") {
		t.Error("reordered duplicate should dedupe")
	}
	if h.AddEdge(nil, "x") {
		t.Error("empty edge should be rejected")
	}
	if !h.AddEdge([]Vertex{a, a}, "self") { // dedups to unary {a}
		t.Error("self pair should become a unary edge")
	}
	st := h.Stats()
	if st.Edges != 2 || st.ConflictingVertices != 2 || st.MaxDegree != 2 || st.MaxEdgeSize != 2 {
		t.Errorf("stats = %+v", st)
	}
	if h.Degree(a) != 2 || h.Degree(Vertex{Rel: "z", Row: 9}) != 0 {
		t.Error("degree wrong")
	}
	if len(h.EdgesContaining(a)) != 2 {
		t.Error("EdgesContaining wrong")
	}
}

func TestTupleIndexAfterDelete(t *testing.T) {
	db := newDB(t)
	_, ti, _ := detect(t, db, fdSalary())
	tup := value.Tuple{value.Int(2), value.Text("bob"), value.Int(150)}
	ids, err := ti.Lookup("emp", tup)
	if err != nil || len(ids) != 1 {
		t.Fatalf("lookup = %v, %v", ids, err)
	}
	row, ok := ti.Row(Vertex{Rel: "emp", Row: ids[0]})
	if !ok || !value.TuplesEqual(row, tup) {
		t.Errorf("Row = %v", row)
	}
	if _, err := ti.Lookup("nope", tup); err == nil {
		t.Error("unknown relation should error")
	}
	if _, ok := ti.Row(Vertex{Rel: "nope", Row: 0}); ok {
		t.Error("unknown relation Row should fail")
	}
	mustExec(db, "DELETE FROM emp WHERE id = 2")
	ids, _ = ti.Lookup("emp", tup)
	if len(ids) != 0 {
		t.Errorf("deleted tuple still found: %v", ids)
	}
}

func TestDetectErrors(t *testing.T) {
	db := engine.New()
	mustExec(db, "CREATE TABLE r (a INT)")
	_, _, _, err := NewDetector(db).Detect([]constraint.Constraint{
		constraint.FD{Rel: "missing", LHS: []string{"a"}, RHS: []string{"b"}},
	})
	if err == nil {
		t.Error("missing relation should error")
	}
	d, _ := constraint.ParseDenial("r x, r y WHERE x.nope = y.a")
	_, _, _, err = NewDetector(db).Detect([]constraint.Constraint{d})
	if err == nil {
		t.Error("bad column in denial should error")
	}
}

// TestHypergraphRemoveAndCompact exercises edge/vertex removal and the
// tombstone compaction that keeps a long-lived, incrementally maintained
// graph at O(live edges).
func TestHypergraphRemoveAndCompact(t *testing.T) {
	h := NewHypergraph()
	v := func(i int) Vertex { return Vertex{Rel: "r", Row: storage.RowID(i)} }

	h.AddEdge([]Vertex{v(0), v(1)}, "c")
	h.AddEdge([]Vertex{v(0), v(2)}, "c")
	h.AddEdge([]Vertex{v(3), v(4)}, "c")
	if got := h.RemoveVertex(v(0)); got != 2 {
		t.Fatalf("RemoveVertex removed %d edges, want 2", got)
	}
	if h.NumEdges() != 1 || h.Degree(v(1)) != 0 || !h.InConflict(v(3)) {
		t.Fatalf("unexpected state after RemoveVertex: edges=%d", h.NumEdges())
	}
	if !h.RemoveEdge([]Vertex{v(4), v(3)}) { // any vertex order
		t.Fatal("RemoveEdge did not find the edge")
	}
	if h.RemoveEdge([]Vertex{v(3), v(4)}) {
		t.Fatal("RemoveEdge removed an already-dead edge")
	}
	// Re-adding a previously removed edge must work (dedup key was freed).
	if !h.AddEdge([]Vertex{v(3), v(4)}, "c") {
		t.Fatal("re-adding a removed edge failed")
	}

	// Churn enough edges to trigger compaction, then verify the graph
	// still answers correctly and stopped growing.
	h = NewHypergraph()
	for i := 0; i < 500; i++ {
		h.AddEdge([]Vertex{v(2 * i), v(2*i + 1)}, "c")
		if i%2 == 1 {
			h.RemoveVertex(v(2 * i))
		}
	}
	if h.NumEdges() != 250 {
		t.Fatalf("edges=%d, want 250", h.NumEdges())
	}
	if len(h.st.edges) >= 500 {
		t.Fatalf("compaction never ran: %d slots for %d live edges", len(h.st.edges), h.NumEdges())
	}
	for i := 0; i < 500; i++ {
		want := i%2 == 0
		if h.InConflict(v(2*i)) != want {
			t.Fatalf("vertex %d conflict=%v, want %v", 2*i, !want, want)
		}
	}

	// Clone is independent of the original.
	c := h.Clone()
	h.RemoveVertex(v(0))
	if c.NumEdges() != 250 || h.NumEdges() != 249 {
		t.Fatalf("clone not independent: clone=%d orig=%d", c.NumEdges(), h.NumEdges())
	}
}
