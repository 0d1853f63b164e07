// Package verdictcache memoizes certification verdicts across published
// query views. A verdict — "candidate tuple t is (not) a consistent
// answer to query Q" — is a pure function of the query plan, the
// membership status of the atoms the prover resolved, and the exact edge
// sets of the conflict components it searched (prover.Deps). The cache
// therefore keys entries by (query signature, candidate key) and indexes
// them by those dependencies; when the core publishes a new view it feeds
// the applied DML deltas and the hypergraph change log through Advance,
// which drops exactly the entries whose dependencies changed. Components
// are identified by (id, fingerprint): an untouched component keeps both,
// so on steady-state workloads with localized updates only verdicts whose
// component fingerprints changed are re-certified.
//
// Entries are epoch-stamped: an entry stored at epoch e stays valid for
// every later epoch until an Advance invalidates it, and — because
// invalidation is monotone — also for any pinned intermediate epoch ≥ e.
// Stores from queries still running against a superseded view are
// rejected, and Advance seals the new epoch before it invalidates, so a
// slow reader can never poison the cache for newer views.
//
// The cache is sharded by entry key so concurrent certification workers
// — the lock-free snapshot-serving read path — do not contend on one
// mutex for every candidate: Lookup and Store take only their shard's
// lock, while the single view publisher walks all shards in Advance and
// Reset. All methods are safe for concurrent use.
package verdictcache

import (
	"encoding/hex"
	"hash/fnv"
	"hash/maphash"
	"sync"

	"hippo/internal/conflict"
)

// DefaultMaxEntries bounds the cache; past it, stores evict arbitrary
// entries (map order) to stay within budget.
const DefaultMaxEntries = 1 << 16

// numShards spreads entry keys over independently locked shards. The
// entry bound is enforced per shard (maxEntries/numShards each, rounded
// up), so tiny caches may hold up to one entry per shard.
const numShards = 16

// Stats counts cache traffic. Entries is a point-in-time gauge; the rest
// accumulate over the cache's lifetime.
type Stats struct {
	Hits        int64
	Misses      int64
	Stores      int64
	Invalidated int64 // entries dropped by dependency invalidation
	Evicted     int64 // entries dropped by the size bound
	Resets      int64 // full clears (full re-detections)
	Entries     int64
}

// Sub returns the counter-wise difference s - o (Entries is copied).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Stores:      s.Stores - o.Stores,
		Invalidated: s.Invalidated - o.Invalidated,
		Evicted:     s.Evicted - o.Evicted,
		Resets:      s.Resets - o.Resets,
		Entries:     s.Entries,
	}
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stores += o.Stores
	s.Invalidated += o.Invalidated
	s.Evicted += o.Evicted
	s.Resets += o.Resets
	s.Entries += o.Entries
}

type entry struct {
	verdict bool
	epoch   uint64 // view epoch the verdict was computed at
	atoms   []string
	comps   []conflict.ComponentRef
}

// shard is one independently locked slice of the cache. Dependency
// indexes are shard-local: an entry and its index references always live
// in the same shard.
type shard struct {
	mu      sync.Mutex
	epoch   uint64 // epoch this shard's entries are valid through
	entries map[string]*entry
	byAtom  map[string]map[string]struct{} // dependency atom key -> entry keys
	byComp  map[uint64]map[string]struct{} // component id -> entry keys
	stats   Stats
}

// Cache is the verdict memo. The zero value is not usable; call New.
type Cache struct {
	shards      [numShards]shard
	maxPerShard int
	seed        maphash.Seed
	// betweenSteps, when non-nil, runs inside Advance after the seal and
	// before the invalidation walk (tests only).
	betweenSteps func()
}

// New creates an empty cache bounded to maxEntries (DefaultMaxEntries
// when <= 0).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	c := &Cache{
		maxPerShard: (maxEntries + numShards - 1) / numShards,
		seed:        maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i].reset()
	}
	return c
}

func (sh *shard) reset() {
	sh.entries = make(map[string]*entry)
	sh.byAtom = make(map[string]map[string]struct{})
	sh.byComp = make(map[uint64]map[string]struct{})
}

func (c *Cache) shardOf(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// Key builds the entry key for a candidate of a query. The query
// signature must identify the plan (callers digest the formatted plan
// tree once per query — see QuerySignature) and the candidate key the
// tuple value (value.Tuple.Key).
func Key(querySig, candKey string) string { return querySig + "\x00" + candKey }

// QuerySignature digests a formatted query plan into a short stable
// signature, so cache keys don't embed (and lookups don't re-hash) the
// full plan text per candidate. FNV-128a keeps accidental collisions out
// of the question.
func QuerySignature(formattedPlan string) string {
	f := fnv.New128a()
	f.Write([]byte(formattedPlan))
	return hex.EncodeToString(f.Sum(nil))
}

// ComponentResolver reports the current state of a component id in the
// hypergraph a lookup is served against (conflict.Hypergraph.Component).
type ComponentResolver func(id uint64) (conflict.Component, bool)

// Lookup returns the memoized verdict for key as seen from a view at
// viewEpoch. A hit requires the entry to have been computed at or before
// that epoch: entries survive Advance only while their dependencies are
// unchanged, so validity extends monotonically from the store epoch
// through the present — which covers every pinned epoch in between.
//
// A non-nil resolver adds the fingerprint check: every component the
// verdict depended on must still exist with the fingerprint recorded at
// store time. Invalidation by touched ids already guarantees this, so a
// mismatch indicates a gap — the entry is dropped (counted under
// Invalidated) and the lookup misses, keeping served verdicts provably
// tied to the exact edge sets they were computed from.
func (c *Cache) Lookup(key string, viewEpoch uint64, resolve ComponentResolver) (verdict, ok bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, present := sh.entries[key]
	if !present || e.epoch > viewEpoch {
		sh.stats.Misses++
		return false, false
	}
	if resolve != nil {
		for _, ref := range e.comps {
			cur, ok := resolve(ref.ID)
			if !ok || cur.FP != ref.FP {
				sh.unlink(key, e)
				delete(sh.entries, key)
				sh.stats.Invalidated++
				sh.stats.Misses++
				return false, false
			}
		}
	}
	sh.stats.Hits++
	return e.verdict, true
}

// Store memoizes a verdict computed against the view at viewEpoch with
// the given dependencies. Stores from superseded views (viewEpoch below
// the cache's current epoch) are dropped: their dependencies may already
// have been invalidated.
func (c *Cache) Store(key string, viewEpoch uint64, verdict bool, atoms []string, comps []conflict.ComponentRef) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if viewEpoch < sh.epoch {
		return
	}
	if old, ok := sh.entries[key]; ok {
		sh.unlink(key, old)
		delete(sh.entries, key) // an overwrite must not trigger an eviction
	}
	for len(sh.entries) >= c.maxPerShard {
		for k, e := range sh.entries { // arbitrary victim
			sh.unlink(k, e)
			delete(sh.entries, k)
			sh.stats.Evicted++
			break
		}
	}
	e := &entry{verdict: verdict, epoch: viewEpoch, atoms: atoms, comps: comps}
	sh.entries[key] = e
	for _, a := range atoms {
		set := sh.byAtom[a]
		if set == nil {
			set = make(map[string]struct{})
			sh.byAtom[a] = set
		}
		set[key] = struct{}{}
	}
	for _, ref := range comps {
		set := sh.byComp[ref.ID]
		if set == nil {
			set = make(map[string]struct{})
			sh.byComp[ref.ID] = set
		}
		set[key] = struct{}{}
	}
	sh.stats.Stores++
}

// unlink removes an entry's index references (not the entry itself). The
// caller holds the shard lock.
func (sh *shard) unlink(key string, e *entry) {
	for _, a := range e.atoms {
		if set := sh.byAtom[a]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(sh.byAtom, a)
			}
		}
	}
	for _, ref := range e.comps {
		if set := sh.byComp[ref.ID]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(sh.byComp, ref.ID)
			}
		}
	}
}

// Advance moves the cache to a freshly published epoch, dropping every
// entry that depends on an invalidated atom (a tuple inserted or deleted
// by the drained deltas, or newly drawn into a conflict) or on a touched
// component (one whose edge set — and hence fingerprint — changed).
// Entries depending on neither survive into the new epoch. Only the view
// publisher calls Advance, and it is the one place that orders the two
// steps: seal first, invalidate second. Once a shard is sealed, a Store
// from a reader still on an older view is rejected there; a Store that
// landed before the seal is an ordinary entry, which the invalidation
// walk then drops if its dependencies changed. (In the opposite order, a
// Store at the old epoch could land on a shard the walk had already
// passed but not yet sealed, and survive into the new epoch with a stale
// dependency.)
func (c *Cache) Advance(newEpoch uint64, atoms []string, comps []uint64) {
	c.sealEpoch(newEpoch)
	if c.betweenSteps != nil {
		c.betweenSteps()
	}
	c.invalidate(atoms, comps)
}

// invalidate drops every entry depending on one of the given atoms or
// touched component ids, without moving the epoch.
func (c *Cache) invalidate(atoms []string, comps []uint64) {
	if len(atoms) == 0 && len(comps) == 0 {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		drop := make(map[string]struct{})
		for _, a := range atoms {
			for key := range sh.byAtom[a] {
				drop[key] = struct{}{}
			}
		}
		for _, id := range comps {
			for key := range sh.byComp[id] {
				drop[key] = struct{}{}
			}
		}
		for key := range drop {
			if e, ok := sh.entries[key]; ok {
				sh.unlink(key, e)
				delete(sh.entries, key)
				sh.stats.Invalidated++
			}
		}
		sh.mu.Unlock()
	}
}

// sealEpoch moves every key shard to the freshly published epoch, after
// which stores from superseded views are rejected.
func (c *Cache) sealEpoch(newEpoch uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.epoch = newEpoch
		sh.mu.Unlock()
	}
}

// Reset clears the cache entirely (full re-detection: component ids and
// fingerprints restart from scratch) and moves to the new epoch.
func (c *Cache) Reset(newEpoch uint64) {
	cleared := false
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.entries) > 0 {
			cleared = true
		}
		sh.reset()
		sh.epoch = newEpoch
		sh.mu.Unlock()
	}
	if cleared {
		sh := &c.shards[0]
		sh.mu.Lock()
		sh.stats.Resets++
		sh.mu.Unlock()
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters, summed over shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st := sh.stats
		st.Entries = int64(len(sh.entries))
		sh.mu.Unlock()
		out.add(st)
	}
	return out
}
