package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"hippo/internal/storage"
)

// referenceComponents computes the connected components of h from scratch
// — the ground truth incremental maintenance must match. It returns the
// partition as a map from vertex to a canonical part index.
func referenceComponents(h *Hypergraph) map[Vertex]int {
	adj := make(map[Vertex][]Vertex)
	for _, e := range h.Edges() {
		for _, v := range e.Verts {
			adj[v] = append(adj[v], e.Verts...)
		}
	}
	part := make(map[Vertex]int)
	next := 0
	for v := range adj {
		if _, ok := part[v]; ok {
			continue
		}
		queue := []Vertex{v}
		part[v] = next
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if _, ok := part[w]; !ok {
					part[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return part
}

// checkComponents asserts that the maintained labeling is exactly the
// from-scratch partition: same vertex set, same grouping, consistent
// per-component vertex/edge counts, and fingerprints that are equal for
// equal edge sets (checked indirectly via recomputation).
func checkComponents(t *testing.T, h *Hypergraph, ctx string) {
	t.Helper()
	want := referenceComponents(h)
	// Same conflicting-vertex set.
	if got := len(h.st.compOf); got != len(want) {
		t.Fatalf("%s: labeled %d vertices, reference has %d", ctx, got, len(want))
	}
	// The maintained labels induce the same partition.
	refToID := make(map[int]uint64)
	idToRef := make(map[uint64]int)
	for v, ref := range want {
		got, ok := h.ComponentOf(v)
		if !ok {
			t.Fatalf("%s: vertex %v unlabeled, reference part %d", ctx, v, ref)
		}
		if id, seen := refToID[ref]; seen && id != got.ID {
			t.Fatalf("%s: reference part %d maps to ids %d and %d", ctx, ref, id, got.ID)
		}
		if r, seen := idToRef[got.ID]; seen && r != ref {
			t.Fatalf("%s: id %d maps to reference parts %d and %d", ctx, got.ID, r, ref)
		}
		refToID[ref] = got.ID
		idToRef[got.ID] = ref
	}
	// Component records agree with recomputation from the edge list.
	sizes := make(map[uint64]map[Vertex]bool)
	edgeCount := make(map[uint64]int)
	fps := make(map[uint64]uint64)
	for _, e := range h.Edges() {
		ref, ok := h.ComponentOf(e.Verts[0])
		if !ok {
			t.Fatalf("%s: edge %v has unlabeled vertex", ctx, e)
		}
		for _, v := range e.Verts {
			r2, _ := h.ComponentOf(v)
			if r2.ID != ref.ID {
				t.Fatalf("%s: edge %v spans components %d and %d", ctx, e, ref.ID, r2.ID)
			}
			if sizes[ref.ID] == nil {
				sizes[ref.ID] = make(map[Vertex]bool)
			}
			sizes[ref.ID][v] = true
		}
		edgeCount[ref.ID]++
		fps[ref.ID] ^= edgeHash(e.key())
	}
	if got := h.NumComponents(); got != len(sizes) {
		t.Fatalf("%s: NumComponents=%d, edges induce %d", ctx, got, len(sizes))
	}
	for _, c := range h.Components() {
		if c.Verts != len(sizes[c.ID]) {
			t.Fatalf("%s: component %d records %d verts, has %d", ctx, c.ID, c.Verts, len(sizes[c.ID]))
		}
		if c.Edges != edgeCount[c.ID] {
			t.Fatalf("%s: component %d records %d edges, has %d", ctx, c.ID, c.Edges, edgeCount[c.ID])
		}
		if c.FP != fps[c.ID] {
			t.Fatalf("%s: component %d fingerprint %x, recomputed %x", ctx, c.ID, c.FP, fps[c.ID])
		}
	}
}

func v(rel string, row int) Vertex { return Vertex{Rel: rel, Row: storage.RowID(row)} }

func TestComponentMergeOnInsert(t *testing.T) {
	h := NewHypergraph()
	h.AddEdge([]Vertex{v("r", 1), v("r", 2)}, "c1")
	h.AddEdge([]Vertex{v("r", 3), v("r", 4)}, "c1")
	checkComponents(t, h, "two components")
	if h.NumComponents() != 2 {
		t.Fatalf("want 2 components, got %d", h.NumComponents())
	}
	a, _ := h.ComponentOf(v("r", 1))
	b, _ := h.ComponentOf(v("r", 3))
	if a.ID == b.ID {
		t.Fatalf("disjoint edges share component %d", a.ID)
	}

	h.AddEdge([]Vertex{v("r", 2), v("r", 3)}, "c2")
	checkComponents(t, h, "after merge")
	if h.NumComponents() != 1 {
		t.Fatalf("want 1 merged component, got %d", h.NumComponents())
	}
	merged, _ := h.ComponentOf(v("r", 1))
	if merged.ID == a.ID || merged.ID == b.ID {
		t.Fatalf("merge must mint a fresh id, reused %d", merged.ID)
	}
}

func TestComponentGrowKeepsIDChangesFingerprint(t *testing.T) {
	h := NewHypergraph()
	h.AddEdge([]Vertex{v("r", 1), v("r", 2)}, "c")
	before, _ := h.ComponentOf(v("r", 1))
	h.AddEdge([]Vertex{v("r", 2), v("r", 3)}, "c")
	after, _ := h.ComponentOf(v("r", 1))
	if after.ID != before.ID {
		t.Fatalf("growing a single component must keep its id: %d -> %d", before.ID, after.ID)
	}
	if after.FP == before.FP {
		t.Fatalf("fingerprint must change when the edge set grows")
	}
	checkComponents(t, h, "after growth")
}

func TestComponentSplitOnDelete(t *testing.T) {
	// Chain 1-2, 2-3, 3-4: removing the middle edge splits the component.
	h := NewHypergraph()
	h.AddEdge([]Vertex{v("r", 1), v("r", 2)}, "c")
	h.AddEdge([]Vertex{v("r", 2), v("r", 3)}, "c")
	h.AddEdge([]Vertex{v("r", 3), v("r", 4)}, "c")
	if h.NumComponents() != 1 {
		t.Fatalf("want 1 component, got %d", h.NumComponents())
	}
	if !h.RemoveEdge([]Vertex{v("r", 2), v("r", 3)}) {
		t.Fatal("middle edge not found")
	}
	checkComponents(t, h, "after split")
	if h.NumComponents() != 2 {
		t.Fatalf("want 2 components after split, got %d", h.NumComponents())
	}
	left, _ := h.ComponentOf(v("r", 1))
	right, _ := h.ComponentOf(v("r", 4))
	if left.ID == right.ID {
		t.Fatal("split parts share a component id")
	}
}

func TestComponentReclamation(t *testing.T) {
	h := NewHypergraph()
	h.AddEdge([]Vertex{v("r", 1), v("r", 2)}, "c")
	h.AddEdge([]Vertex{v("r", 1), v("r", 3)}, "c")
	if n := h.RemoveVertex(v("r", 1)); n != 2 {
		t.Fatalf("RemoveVertex removed %d edges, want 2", n)
	}
	if h.NumComponents() != 0 {
		t.Fatalf("want 0 components after reclamation, got %d", h.NumComponents())
	}
	if len(h.st.compOf) != 0 {
		t.Fatalf("compOf retains %d stale vertices", len(h.st.compOf))
	}
	checkComponents(t, h, "after reclamation")
}

func TestComponentSnapshotImmutability(t *testing.T) {
	h := NewHypergraph()
	h.AddEdge([]Vertex{v("r", 1), v("r", 2)}, "c")
	snap := h.Snapshot()
	ref, _ := snap.ComponentOf(v("r", 1))
	h.AddEdge([]Vertex{v("r", 2), v("r", 3)}, "c")
	h.RemoveEdge([]Vertex{v("r", 1), v("r", 2)})
	got, ok := snap.ComponentOf(v("r", 1))
	if !ok || got != ref {
		t.Fatalf("snapshot component changed under mutation: %+v -> %+v (ok=%v)", ref, got, ok)
	}
	if snap.NumComponents() != 1 {
		t.Fatalf("snapshot component count changed: %d", snap.NumComponents())
	}
}

// TestComponentRandomizedVsReference drives a random add/remove sequence
// (including multi-vertex hyperedges and vertex removals) and checks the
// incremental labeling against the from-scratch reference after every
// mutation, across enough steps to trigger slot compaction.
func TestComponentRandomizedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHypergraph()
	var live [][]Vertex
	vertex := func() Vertex { return v("r", rng.Intn(30)) }
	for step := 0; step < 800; step++ {
		ctx := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // add an edge of size 1..3
			size := 1 + rng.Intn(3)
			verts := make([]Vertex, size)
			for i := range verts {
				verts[i] = vertex()
			}
			if h.AddEdge(verts, "rnd") {
				live = append(live, verts)
			}
		case op < 8: // remove a random live edge
			i := rng.Intn(len(live))
			if !h.RemoveEdge(live[i]) {
				t.Fatalf("%s: live edge %v missing", ctx, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // remove a random vertex and every edge through it
			u := vertex()
			h.RemoveVertex(u)
			keep := live[:0]
			for _, verts := range live {
				hit := false
				for _, w := range verts {
					if w == u {
						hit = true
						break
					}
				}
				if !hit {
					keep = append(keep, verts)
				}
			}
			live = keep
		}
		checkComponents(t, h, ctx)
	}
	if len(h.st.edges) >= 64+2*h.st.liveEdges {
		t.Fatalf("compaction never ran: %d slots for %d live edges", len(h.st.edges), h.st.liveEdges)
	}
}
