package verdictcache

import (
	"fmt"
	"testing"

	"hippo/internal/conflict"
)

func ref(id, fp uint64) conflict.ComponentRef { return conflict.ComponentRef{ID: id, FP: fp} }

func TestLookupStoreEpochGating(t *testing.T) {
	c := New(0)
	c.Advance(3, nil, nil) // cache now at epoch 3
	key := Key("plan", "cand")

	// A store from a superseded view must be rejected.
	c.Store(key, 2, true, []string{"r|a"}, nil)
	if _, ok := c.Lookup(key, 3, nil); ok {
		t.Fatal("stale store was accepted")
	}

	c.Store(key, 3, true, []string{"r|a"}, []conflict.ComponentRef{ref(7, 99)})
	if v, ok := c.Lookup(key, 3, nil); !ok || !v {
		t.Fatalf("want hit with verdict=true, got ok=%v v=%v", ok, v)
	}
	// A pinned view older than the store epoch must miss...
	if _, ok := c.Lookup(key, 2, nil); ok {
		t.Fatal("entry served to a view older than its store epoch")
	}
	// ...but the entry survives untouched advances and serves newer views.
	c.Advance(4, []string{"r|other"}, []uint64{8})
	if v, ok := c.Lookup(key, 4, nil); !ok || !v {
		t.Fatalf("entry lost across an unrelated advance: ok=%v v=%v", ok, v)
	}
	// And a pinned epoch between store and present is also valid.
	if v, ok := c.Lookup(key, 3, nil); !ok || !v {
		t.Fatal("entry not served to a pinned intermediate epoch")
	}
}

func TestAtomAndComponentInvalidation(t *testing.T) {
	c := New(0)
	byAtom := Key("q", "a")
	byComp := Key("q", "b")
	both := Key("q", "c")
	c.Store(byAtom, 0, true, []string{"r|x"}, nil)
	c.Store(byComp, 0, false, nil, []conflict.ComponentRef{ref(1, 10)})
	c.Store(both, 0, true, []string{"r|y"}, []conflict.ComponentRef{ref(2, 20)})

	c.Advance(1, []string{"r|x"}, []uint64{2})
	if _, ok := c.Lookup(byAtom, 1, nil); ok {
		t.Fatal("atom-invalidated entry survived")
	}
	if _, ok := c.Lookup(both, 1, nil); ok {
		t.Fatal("component-invalidated entry survived")
	}
	if v, ok := c.Lookup(byComp, 1, nil); !ok || v {
		t.Fatalf("untouched entry lost or corrupted: ok=%v v=%v", ok, v)
	}
	st := c.Stats()
	if st.Invalidated != 2 {
		t.Fatalf("Invalidated=%d, want 2", st.Invalidated)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries=%d, want 1", st.Entries)
	}
}

func TestReset(t *testing.T) {
	c := New(0)
	c.Store(Key("q", "a"), 0, true, []string{"r|x"}, nil)
	c.Reset(5)
	if _, ok := c.Lookup(Key("q", "a"), 5, nil); ok {
		t.Fatal("entry survived Reset")
	}
	// Stores at the new epoch work again.
	c.Store(Key("q", "a"), 5, true, nil, nil)
	if _, ok := c.Lookup(Key("q", "a"), 5, nil); !ok {
		t.Fatal("store after Reset missed")
	}
}

func TestEvictionBound(t *testing.T) {
	// Bound 16 over 16 shards: at most one entry per shard.
	c := New(16)
	for i := 0; i < 200; i++ {
		c.Store(Key("q", fmt.Sprint(i)), 0, true, []string{fmt.Sprintf("r|%d", i)}, nil)
	}
	if n := c.Len(); n > 16 {
		t.Fatalf("cache grew to %d entries, bound is 16", n)
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatal("no evictions recorded")
	}
	// Overwriting a surviving key must not evict an unrelated entry.
	before := c.Len()
	evictedBefore := st.Evicted
	for i := 0; i < 200; i++ {
		key := Key("q", fmt.Sprint(i))
		if _, ok := c.Lookup(key, 0, nil); ok {
			c.Store(key, 0, false, []string{fmt.Sprintf("r|%d", i)}, nil)
			break
		}
	}
	if c.Len() != before {
		t.Fatalf("overwrite changed entry count %d -> %d", before, c.Len())
	}
	if got := c.Stats().Evicted; got != evictedBefore {
		t.Fatalf("overwrite evicted an unrelated entry (%d -> %d)", evictedBefore, got)
	}
	// Index maps must not leak evicted keys: invalidating every atom must
	// leave the cache empty without over-counting.
	var atoms []string
	for i := 0; i < 200; i++ {
		atoms = append(atoms, fmt.Sprintf("r|%d", i))
	}
	c.Advance(1, atoms, nil)
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries left after invalidating every atom", n)
	}
}

func TestFingerprintMismatchDropsEntry(t *testing.T) {
	c := New(0)
	key := Key("q", "a")
	c.Store(key, 0, true, nil, []conflict.ComponentRef{ref(7, 99)})
	current := func(fp uint64, ok bool) ComponentResolver {
		return func(id uint64) (conflict.Component, bool) {
			return conflict.Component{ComponentRef: ref(id, fp)}, ok
		}
	}
	// Matching fingerprint: hit.
	if v, ok := c.Lookup(key, 0, current(99, true)); !ok || !v {
		t.Fatalf("matching fingerprint missed: ok=%v v=%v", ok, v)
	}
	// Changed fingerprint: the entry is provably stale — dropped, miss.
	if _, ok := c.Lookup(key, 0, current(98, true)); ok {
		t.Fatal("entry served despite a changed component fingerprint")
	}
	if _, ok := c.Lookup(key, 0, nil); ok {
		t.Fatal("stale entry not dropped")
	}
	if st := c.Stats(); st.Invalidated != 1 {
		t.Fatalf("Invalidated=%d, want 1", st.Invalidated)
	}
	// A vanished component is equally fatal.
	c.Store(key, 0, true, nil, []conflict.ComponentRef{ref(7, 99)})
	if _, ok := c.Lookup(key, 0, current(99, false)); ok {
		t.Fatal("entry served for a vanished component")
	}
}

// TestStoreDuringAdvanceDoesNotSurvive pins the order of Advance's two
// steps: a reader still on view e that stores a verdict while the
// publisher is between the steps of Advance(e+1) must not leave an entry
// that view e+1 serves. With invalidation before the seal, the store lands
// on a shard already walked but not yet sealed and survives.
func TestStoreDuringAdvanceDoesNotSurvive(t *testing.T) {
	c := New(0)
	c.Advance(1, nil, nil)
	key := Key("q", "a")
	c.betweenSteps = func() {
		c.Store(key, 1, true, []string{"r|x"}, nil)
	}
	c.Advance(2, []string{"r|x"}, nil)
	c.betweenSteps = nil
	if _, ok := c.Lookup(key, 2, nil); ok {
		t.Fatal("a store from the superseded view survived into the new epoch")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries left, want 0", n)
	}
}

func TestOverwriteRelinksDeps(t *testing.T) {
	c := New(0)
	key := Key("q", "a")
	c.Store(key, 0, true, []string{"r|old"}, nil)
	c.Store(key, 0, false, []string{"r|new"}, nil)
	// Old dependency must no longer invalidate the entry.
	c.Advance(1, []string{"r|old"}, nil)
	if v, ok := c.Lookup(key, 1, nil); !ok || v {
		t.Fatalf("overwritten entry lost or stale: ok=%v v=%v", ok, v)
	}
	c.Advance(2, []string{"r|new"}, nil)
	if _, ok := c.Lookup(key, 2, nil); ok {
		t.Fatal("entry survived invalidation of its new dependency")
	}
}
