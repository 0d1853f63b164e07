// Package core implements the Hippo system pipeline from Figure 1 of the
// paper:
//
//	IC + DB ──► Conflict Detection ──► Conflict Hypergraph
//	Query ──► Enveloping ──► Candidates ──► Evaluation (RDBMS)
//	Candidates + Hypergraph ──► Prover ──► Answer Set
//
// A System wraps a database and a constraint set; Analyze runs conflict
// detection once, and ConsistentQuery computes the consistent answers to
// an SJUD query without materializing repairs.
//
// # Concurrency model
//
// The serving path is snapshot-isolated. Writers stream DML deltas into a
// queue; when a consistent query finds the queue non-empty it briefly
// freezes writers, folds the deltas into the hypergraph, snapshots the
// storage (copy-on-write slabs, O(slabs)), and atomically publishes an
// immutable query view: {storage snapshot, hypergraph snapshot, tuple
// index, stats}. That reader is the only publisher; concurrent readers
// that also find the view stale wait for it rather than serve an older
// view. While the queue is empty every query runs entirely lock-free
// against the published view, so any number of ConsistentQuery calls
// proceed concurrently with each other and with writers. Retired views
// are reclaimed by epoch: a pinned Snapshot keeps its view (and the slabs
// only it references) alive until Close.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/cqaplan"
	"hippo/internal/engine"
	"hippo/internal/envelope"
	"hippo/internal/prover"
	"hippo/internal/ra"
	"hippo/internal/repair"
	"hippo/internal/rewrite"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/value"
	"hippo/internal/verdictcache"
	"hippo/internal/wal"
)

// Options tune a consistent-query run.
type Options struct {
	// Tier constrains the tiered answering planner: TierAuto (default)
	// lets the classifier route eligible queries to the rewrite tier and
	// the rest to the prover tier, TierForceProver pins the certification
	// path, and TierRequireRewrite errors unless the rewrite tier serves
	// the query.
	Tier TierSelect
}

// Stats reports one ConsistentQuery run, stage by stage (mirroring the
// paper's Figure 1 components).
type Stats struct {
	Envelope   time.Duration // Enveloping: plan validation + rewrite
	Evaluation time.Duration // Evaluation of the envelope by the engine
	ProverTime time.Duration // Prover over all candidates
	Total      time.Duration
	Candidates int // tuples produced by the envelope
	Answers    int // consistent answers
	// CacheHits and CacheMisses are always 0: no verdict cache sits on the
	// serving path (every candidate is certified against the view it runs
	// on). The fields stay so existing readers of Stats keep compiling.
	CacheHits   int64
	CacheMisses int64
	ProverStats prover.Stats
	DetectStats conflict.DetectStats
	GraphStats  conflict.Stats
	Maintenance MaintenanceStats // hypergraph upkeep since system creation
	Epoch       uint64           // epoch of the query view the run was served from
	Workers     int              // certification worker-pool size used
	// JoinOrder is the planner-chosen base-relation access order of the
	// executed physical plan.
	JoinOrder string
	// PeakIntermediate is the per-query intermediate high-water mark in
	// rows: the largest row set any single blocking operator held
	// materialized.
	PeakIntermediate int64
	// Strategy names the tier that produced the answers: "rewrite" (the
	// query plan under conflict filters, zero certification) or "prover"
	// (full certification).
	Strategy string
	// TierReasons lists the classifier's reasons for ruling out the
	// rewrite tier (empty when the rewrite tier served the query).
	TierReasons []string
	// Classify is the tier-classification time, which bounds the
	// overhead ineligible queries pay.
	Classify time.Duration
	// Tiers snapshots the system's lifetime per-tier counters after this
	// run was counted.
	Tiers TierCounters
}

// MaintenanceStats accumulates conflict-hypergraph and snapshot upkeep
// over the system's lifetime: the incremental-detector counters (how many
// DML deltas were folded in and what they did to the edge set), how often
// a full Detect rescan was still required (first analysis, DDL, or
// constraint changes), and the epoch-reclamation counters of the
// snapshot-serving path.
type MaintenanceStats struct {
	conflict.IncrementalStats
	FullRebuilds   int64 // full Detect runs (incl. the first analysis)
	ViewsPublished int64 // query views published (== current epoch)
	ViewsReclaimed int64 // retired views dropped after their last unpin
	SlabsReclaimed int64 // storage slabs uniquely retired by those views
	// Migrations is always 0: the hypergraph is one unsharded graph, so no
	// component ever moves. The field stays so existing readers of
	// MaintenanceStats keep compiling.
	Migrations int64
	// EagerFolds is always 0: views are published only by the reader that
	// finds the published view stale, never in the background. The field
	// stays so existing readers of MaintenanceStats keep compiling.
	EagerFolds int64
	// PendingOverflows counts delta-queue overflows that discarded the
	// queue and forced a full re-detection (see maxPendingDeltas).
	PendingOverflows int64
}

// Sub returns the counter-wise difference m - o.
func (m MaintenanceStats) Sub(o MaintenanceStats) MaintenanceStats {
	return MaintenanceStats{
		IncrementalStats: m.IncrementalStats.Sub(o.IncrementalStats),
		FullRebuilds:     m.FullRebuilds - o.FullRebuilds,
		ViewsPublished:   m.ViewsPublished - o.ViewsPublished,
		ViewsReclaimed:   m.ViewsReclaimed - o.ViewsReclaimed,
		SlabsReclaimed:   m.SlabsReclaimed - o.SlabsReclaimed,
		PendingOverflows: m.PendingOverflows - o.PendingOverflows,
	}
}

// queryView is one immutable published serving state. Everything a
// consistent query reads lives here, so queries need no locks.
type queryView struct {
	epoch      uint64
	snap       *engine.Snapshot
	hg         *conflict.HypergraphSnapshot
	ti         *conflict.TupleIndex
	profile    *cqaplan.Profile // the constraint set hg was built from
	detStats   conflict.DetectStats
	graphStats conflict.Stats
	maint      MaintenanceStats
}

// retiredView is a replaced view still pinned by at least one Snapshot,
// plus the slab count uniquely retired when it was replaced.
type retiredView struct {
	v     *queryView
	slabs int
}

// System is a Hippo instance: a database, its integrity constraints, and
// the conflict hypergraph computed from them. It subscribes to the
// engine's change feed: DML deltas queue up and are folded into the
// hypergraph incrementally by the next consistent query, while DDL and
// constraint changes force a full re-detection.
type System struct {
	db *engine.DB

	// view is the atomically published immutable serving state; stale
	// flags that queued work invalidates it. The fast path loads stale
	// then view and never locks. Publication happens inside the engine
	// write freeze in the order view.Store then stale.Store(false), so a
	// reader that observes stale==false loads at least that publication's
	// view — which contains every write sequenced before it.
	view  atomic.Pointer[queryView]
	stale atomic.Bool

	// mu serializes view publication and guards the analysis state below.
	mu          sync.RWMutex
	constraints []constraint.Constraint
	profile     *cqaplan.Profile // classifier profile of constraints, per full analysis
	hg          *conflict.Hypergraph
	inc         *conflict.IncrementalDetector
	detStats    conflict.DetectStats
	epoch       uint64
	maint       MaintenanceStats

	// qmu guards the delta queue shared with the engine's change feed.
	// Writers only ever take qmu (never mu), so DML is never blocked
	// behind a long analysis.
	qmu      sync.Mutex
	pending  []conflict.Delta // queued DML deltas awaiting application
	analyzed bool             // a hypergraph exists
	needFull bool             // DDL/constraint change since it was built

	// pmu guards epoch pins and retired views.
	pmu     sync.Mutex
	pins    map[uint64]int
	retired []retiredView

	// tierRewrite, tierProver, certified and decided back TierCounts.
	tierRewrite, tierProver atomic.Int64
	certified, decided      atomic.Int64

	// store is the WAL/checkpoint store of a durable system (nil when
	// in-memory); ckptMu serializes checkpoints and ckptBytes is the
	// automatic rotation threshold. The automatic checkpointer runs as a
	// background goroutine nudged by the change feed (ckptCh) and stopped
	// by Close (ckptStop/ckptDone); a failed automatic checkpoint parks in
	// ckptFail until TakeCheckpointError collects it. See durable.go.
	store     *wal.Store
	ckptMu    sync.Mutex
	ckptBytes int64
	ckptCh    chan struct{}
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	ckptFail  atomic.Pointer[errBox]

	// overflows is atomic: the change-feed callbacks that tick it run
	// under the engine write sequencer and must not take mu.
	overflows atomic.Int64
	closeOnce sync.Once
}

// errBox wraps an error for atomic storage.
type errBox struct{ err error }

// NewSystem creates a Hippo system over db with the given constraints and
// subscribes it to db's change feed. Call Analyze (or let the first query
// trigger it) before querying, and Close when discarding the system while
// the database lives on.
func NewSystem(db *engine.DB, cs []constraint.Constraint) *System {
	s := &System{
		db:          db,
		constraints: cs,
		pins:        make(map[uint64]int),
	}
	s.stale.Store(true)
	db.AddListener(s)
	return s
}

// Close unsubscribes the system from the database's change feed, drops
// any queued deltas, and — for durable systems — stops the automatic
// checkpointer (letting it take a final checkpoint if one is due),
// detaches the commit log, and seals the WAL. An automatic-checkpoint
// failure nobody collected yet is returned here rather than dropped.
// Close is idempotent; the system must not be queried afterwards.
func (s *System) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.db.RemoveListener(s)
		if s.store != nil {
			if s.ckptStop != nil {
				close(s.ckptStop)
				<-s.ckptDone
			}
			s.db.SetCommitLog(nil)
			err = s.store.Close()
			if cerr := s.TakeCheckpointError(); cerr != nil && err == nil {
				err = cerr
			}
		}
		s.qmu.Lock()
		defer s.qmu.Unlock()
		s.pending = nil
	})
	return err
}

// DB exposes the underlying engine (for loading data and running ordinary
// SQL).
func (s *System) DB() *engine.DB { return s.db }

// Constraints returns a copy of the constraint set.
func (s *System) Constraints() []constraint.Constraint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]constraint.Constraint, len(s.constraints))
	copy(out, s.constraints)
	return out
}

// AddConstraint validates the constraint against the current catalog and
// registers it, scheduling a full re-detection (incremental probes are
// compiled per constraint set). Validation is eager so a typo'd relation
// or column is reported here, not by a later query — and, on a durable
// system, never reaches the log. Durable systems log the constraint —
// synced — before registering it, so a declaration either survives
// restarts or reports why it will not.
func (s *System) AddConstraint(c constraint.Constraint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validateConstraintLocked(c); err != nil {
		return fmt.Errorf("core: invalid constraint %s: %w", c, err)
	}
	if s.store != nil {
		if err := s.store.AppendConstraint(c); err != nil {
			return fmt.Errorf("core: logging constraint %s: %w", c, err)
		}
	}
	s.constraints = append(s.constraints, c)
	s.invalidateLocked()
	return nil
}

// validateConstraintLocked checks that the constraint lowers to a denial
// under the current catalog and that every atom names an existing table.
// (A denial's condition is validated by compilation at detection time;
// schema changes after registration surface there too.)
func (s *System) validateConstraintLocked(c constraint.Constraint) error {
	d, err := c.Denial(s.db)
	if err != nil {
		return err
	}
	for _, a := range d.Atoms {
		if _, err := s.db.TableSchema(a.Rel); err != nil {
			return err
		}
	}
	return nil
}

// invalidateLocked schedules a full re-detection and marks the published
// view stale. The caller must hold mu: holding it excludes a concurrent
// refreshViewLocked, whose stale.Store(false) could otherwise land after
// our stale.Store(true) and permanently strand needFull behind a "fresh"
// view. (SchemaChanged is the one caller that cannot take mu — see its
// ordering argument.)
func (s *System) invalidateLocked() {
	s.qmu.Lock()
	s.needFull = true
	s.pending = nil
	s.qmu.Unlock()
	s.stale.Store(true)
}

// maxPendingDeltas caps the delta queue. Past it, a bulk load is under
// way and one full re-detection is both cheaper than replaying the queue
// probe by probe and O(1) in queued memory. A variable so overflow tests
// can force the path without queueing 64k deltas.
var maxPendingDeltas = 65536

// DataBatch queues one commit's change feed in one lock acquisition. It
// implements engine.ChangeListener: the engine hands each committed
// statement or batch here whole, so a bulk load reaches the next drain as
// one contiguous run of deltas.
func (s *System) DataBatch(changes []storage.TableChange) {
	s.qmu.Lock()
	if s.analyzed && !s.needFull {
		if len(s.pending)+len(changes) > maxPendingDeltas {
			s.needFull = true
			s.pending = nil
			s.overflows.Add(1)
		} else {
			for _, tc := range changes {
				s.pending = append(s.pending, conflict.Delta{Table: tc.Table, Change: tc.Change})
			}
		}
	}
	s.qmu.Unlock()
	s.stale.Store(true)
	s.nudgeCheckpointer()
}

// SchemaChanged schedules a full re-detection: DDL changes the relation
// set the tuple index and compiled probes are built over. It implements
// engine.ChangeListener.
//
// It must NOT take mu: the caller holds the engine write sequencer, and
// a publisher holding mu acquires that sequencer (FreezeWrites) — taking
// mu here would deadlock. The mu-free ordering is still safe: DDL holds
// the sequencer, so this call can only run before a publisher's frozen
// section (the drain then observes needFull) or after it (our
// stale.Store(true) lands after the publisher's stale.Store(false)).
func (s *System) SchemaChanged(string) {
	s.qmu.Lock()
	s.needFull = true
	s.pending = nil
	s.qmu.Unlock()
	s.stale.Store(true)
	s.nudgeCheckpointer()
}

// Invalidate forces a full re-detection before the next consistent query.
// DML no longer requires it (deltas are maintained automatically); it
// remains for callers that mutate storage behind the engine's back.
func (s *System) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateLocked()
}

// Analyze runs Conflict Detection and builds the Conflict Hypergraph from
// scratch, discarding any queued deltas (the rescan subsumes them), then
// publishes a fresh query view.
func (s *System) Analyze() (conflict.DetectStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateLocked()
	if _, err := s.refreshViewLocked(); err != nil {
		return conflict.DetectStats{}, err
	}
	return s.detStats, nil
}

// analyzeFullFrozen runs a full detection. The caller holds mu and the
// engine write freeze, so the scan is a consistent cut.
func (s *System) analyzeFullFrozen() error {
	h, _, st, err := conflict.NewDetector(s.db).Detect(s.constraints)
	if err != nil {
		return err
	}
	inc, err := conflict.NewIncrementalDetector(s.db, h, s.constraints)
	if err != nil {
		return err
	}
	s.hg, s.inc, s.detStats = h, inc, st
	s.profile = cqaplan.NewProfile(s.db, s.constraints)
	s.maint.FullRebuilds++
	s.qmu.Lock()
	s.analyzed, s.needFull = true, false
	s.pending = nil
	s.qmu.Unlock()
	return nil
}

// Hypergraph returns the live conflict graph (Analyze must have run). The
// graph is mutated in place by later delta drains; callers that keep it
// across queries running concurrently with DML should use a Snapshot
// instead.
func (s *System) Hypergraph() *conflict.Hypergraph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.hg == nil {
		return nil
	}
	return s.hg
}

// GraphStats summarizes the live hypergraph under the system lock.
func (s *System) GraphStats() conflict.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.hg == nil {
		return conflict.Stats{}
	}
	return s.hg.Stats()
}

// Maintenance reports accumulated hypergraph-maintenance statistics.
func (s *System) Maintenance() MaintenanceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.maint
	m.PendingOverflows = s.overflows.Load()
	return m
}

// CacheStats returns zero counters: no verdict cache sits on the serving
// path. It stays so existing readers keep compiling.
func (s *System) CacheStats() verdictcache.Stats { return verdictcache.Stats{} }

// Epoch returns the epoch of the most recently published query view (0
// before the first publication).
func (s *System) Epoch() uint64 {
	if v := s.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// PendingDeltas returns the number of queued DML deltas not yet folded
// into the hypergraph.
func (s *System) PendingDeltas() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.pending)
}

// currentView returns a query view to serve from, publishing a fresh one
// if the current publication is stale. The fast path — no queued work —
// is lock-free. A reader that finds the view stale always takes mu and
// refreshes: it either publishes itself or waits for the publisher ahead
// of it and then finds that publication fresh. It never serves an older
// view, so every caller reads its own writes.
func (s *System) currentView() (*queryView, error) {
	if !s.stale.Load() {
		if v := s.view.Load(); v != nil {
			return v, nil
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshViewLocked()
}

// refreshViewLocked brings the analysis up to date and publishes a fresh
// view; it is the only place a view is published. The caller holds mu
// (exclusive). If the published view is already fresh (another goroutine
// got here first) it is returned unchanged.
func (s *System) refreshViewLocked() (*queryView, error) {
	if !s.stale.Load() {
		if v := s.view.Load(); v != nil {
			return v, nil
		}
	}
	// Freeze writers: no write is in flight, every delivered delta is
	// queued, and nothing can change until release. Analysis and the
	// storage snapshot therefore describe the same consistent cut.
	release := s.db.FreezeWrites()
	s.qmu.Lock()
	pending := s.pending
	s.pending = nil
	full := !s.analyzed || s.needFull
	s.qmu.Unlock()
	var err error
	if full {
		err = s.analyzeFullFrozen()
	} else if len(pending) > 0 {
		err = s.applyDeltasFrozen(pending)
	}
	if err != nil {
		release()
		return nil, err
	}
	// Build and publish the whole view inside the frozen section, and
	// only then clear staleness: writers are excluded, so no delta can
	// slip between the drain and the publication, and a reader that
	// observes stale==false is guaranteed to load (at least) this view —
	// which contains every write sequenced before it. That ordering is
	// what makes single-threaded read-your-writes hold.
	snap := s.db.SnapshotFrozen()
	hgSnap := s.hg.Snapshot()
	s.epoch++
	s.maint.ViewsPublished++
	s.maint.PendingOverflows = s.overflows.Load()
	v := &queryView{
		epoch:      s.epoch,
		snap:       snap,
		hg:         hgSnap,
		ti:         conflict.NewSnapshotTupleIndex(snap.Tables()),
		profile:    s.profile,
		detStats:   s.detStats,
		graphStats: hgSnap.Stats(),
	}
	if old := s.view.Load(); old != nil {
		s.retireLocked(old, v)
	}
	v.maint = s.maint
	s.view.Store(v)
	s.stale.Store(false)
	release()
	return v, nil
}

// applyDeltasFrozen folds queued deltas into the hypergraph; a probe
// failure falls back to a full rescan rather than serving wrong answers.
// The caller holds mu and the engine write freeze. Deltas fold in
// statement order.
func (s *System) applyDeltasFrozen(pending []conflict.Delta) error {
	before := s.inc.Stats()
	for _, d := range pending {
		if err := s.inc.Apply(d); err != nil {
			return s.analyzeFullFrozen()
		}
	}
	s.maint.IncrementalStats.Add(s.inc.Stats().Sub(before))
	return nil
}

// retireLocked accounts for a replaced view: reclaimed immediately when
// nothing pins its epoch, otherwise parked until the last unpin. The
// caller holds mu.
func (s *System) retireLocked(old, next *queryView) {
	slabs := old.snap.RetiredSlabs(next.snap)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.pins[old.epoch] > 0 {
		s.retired = append(s.retired, retiredView{v: old, slabs: slabs})
		return
	}
	s.maint.ViewsReclaimed++
	s.maint.SlabsReclaimed += int64(slabs)
}

// sweepRetired drops parked views whose epoch is no longer pinned. The
// caller holds mu and pmu.
func (s *System) sweepRetiredLocked() {
	keep := s.retired[:0]
	for _, r := range s.retired {
		if s.pins[r.v.epoch] > 0 {
			keep = append(keep, r)
			continue
		}
		s.maint.ViewsReclaimed++
		s.maint.SlabsReclaimed += int64(r.slabs)
	}
	s.retired = keep
}

// Snapshot pins the current query view, refreshing it first if stale. The
// returned snapshot serves any number of consistent queries and plain
// SELECTs from one immutable database state; Close releases the pin so
// epoch reclamation can drop the view's retired slabs.
func (s *System) Snapshot() (*Snapshot, error) {
	if _, err := s.currentView(); err != nil {
		return nil, err
	}
	// Re-load and pin under the shared lock: retirement happens under the
	// exclusive lock, so the view loaded here cannot be retired before
	// its pin is recorded (pinning after a plain load could race with a
	// publisher counting the view as reclaimed).
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.view.Load()
	s.pmu.Lock()
	s.pins[v.epoch]++
	s.pmu.Unlock()
	return &Snapshot{sys: s, v: v}, nil
}

// Snapshot is a pinned query view: a consistent database state plus the
// conflict analysis matching it exactly. It is safe for concurrent use.
type Snapshot struct {
	sys  *System
	v    *queryView
	once sync.Once
}

// Epoch identifies the pinned view.
func (sn *Snapshot) Epoch() uint64 { return sn.v.epoch }

// Query evaluates a plain SELECT against the pinned state (ignoring
// inconsistency).
func (sn *Snapshot) Query(sql string) (*engine.Result, error) {
	return sn.v.snap.Query(sql)
}

// Data exposes the underlying engine snapshot.
func (sn *Snapshot) Data() *engine.Snapshot { return sn.v.snap }

// Close releases the pin. It is idempotent; the snapshot must not be used
// afterwards.
func (sn *Snapshot) Close() {
	sn.once.Do(func() {
		s := sn.sys
		s.mu.Lock()
		defer s.mu.Unlock()
		s.pmu.Lock()
		defer s.pmu.Unlock()
		if n := s.pins[sn.v.epoch]; n > 1 {
			s.pins[sn.v.epoch] = n - 1
		} else {
			delete(s.pins, sn.v.epoch)
			s.sweepRetiredLocked()
		}
	})
}

// ConsistentQueryAt computes consistent answers against a pinned
// snapshot: repeated calls observe the same database state regardless of
// concurrent writers.
func (s *System) ConsistentQueryAt(sn *Snapshot, sql string, opts Options) (*engine.Result, *Stats, error) {
	return s.ConsistentQueryAtContext(context.Background(), sn, sql, opts)
}

// ConsistentQueryAtContext is ConsistentQueryAt under ctx (see
// ConsistentQueryContext for the cancellation contract).
func (s *System) ConsistentQueryAtContext(ctx context.Context, sn *Snapshot, sql string, opts Options) (*engine.Result, *Stats, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	return s.runQueryView(ctx, sn.v, q, opts)
}

// ConsistentQuery computes the consistent answers to an SJUD SQL query
// against the current query view. A top-level ORDER BY / LIMIT decorates
// the certified answer set: the SJUD core is certified first, then
// ordering and truncation apply to the consistent answers (certainty is a
// property of the set, so this is the only coherent reading).
func (s *System) ConsistentQuery(sql string, opts Options) (*engine.Result, *Stats, error) {
	return s.ConsistentQueryContext(context.Background(), sql, opts)
}

// ConsistentQueryContext is ConsistentQuery honoring ctx: cancellation or
// an expired deadline aborts the run — envelope evaluation stops within a
// bounded number of rows and certification workers stop between
// candidates — returning the context's error.
func (s *System) ConsistentQueryContext(ctx context.Context, sql string, opts Options) (*engine.Result, *Stats, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	v, err := s.currentView()
	if err != nil {
		return nil, nil, err
	}
	return s.runQueryView(ctx, v, q, opts)
}

// runQueryView plans q on the view's snapshot and executes the
// classify/envelope/evaluate/certify pipeline against that immutable
// view, so evaluation and certification see one consistent cut even
// while writers are active. It takes no locks.
func (s *System) runQueryView(ctx context.Context, v *queryView, q *sqlparse.Query, opts Options) (*engine.Result, *Stats, error) {
	plan, err := v.snap.PlanQuery(q)
	if err != nil {
		return nil, nil, err
	}
	// Peel trailing Sort/Limit decorators (outermost first).
	var decorators []func(ra.Node) ra.Node
	for {
		switch p := plan.(type) {
		case *ra.Sort:
			keys := p.Keys
			decorators = append(decorators, func(n ra.Node) ra.Node { return &ra.Sort{Child: n, Keys: keys} })
			plan = p.Child
			continue
		case *ra.Limit:
			nLim := p.N
			decorators = append(decorators, func(n ra.Node) ra.Node { return &ra.Limit{Child: n, N: nLim} })
			plan = p.Child
			continue
		}
		break
	}
	start := time.Now()
	stats := &Stats{
		DetectStats: v.detStats,
		GraphStats:  v.graphStats,
		Maintenance: v.maint,
		Epoch:       v.epoch,
	}

	// Tier classification: eligible queries run their own plan under
	// conflict filters (rewrite tier, zero certification); everything else
	// takes the prover tier.
	tc0 := time.Now()
	dec := tierDecision(v, plan, opts)
	stats.Classify = time.Since(tc0)
	stats.Strategy = dec.Tier.String()
	stats.TierReasons = dec.ReasonStrings()
	if opts.Tier == TierRequireRewrite && dec.Tier != cqaplan.TierRewrite {
		return nil, nil, fmt.Errorf("%w: %s", ErrRewriteIneligible, strings.Join(stats.TierReasons, "; "))
	}

	var answers *engine.Result
	if dec.Tier == cqaplan.TierRewrite {
		if answers, err = s.answerRewrite(ctx, v, plan, stats); err != nil {
			return nil, nil, err
		}
	} else {
		// Enveloping.
		t0 := time.Now()
		env, err := envelope.Envelope(plan)
		if err != nil {
			return nil, nil, err
		}
		stats.Envelope = time.Since(t0)

		// Evaluation + Prover: envelope rows stream straight into the
		// certification workers, so evaluation and proving overlap.
		answers, err = s.certifyStreaming(ctx, v, plan, env, stats)
		if err != nil {
			return nil, nil, err
		}
	}
	stats.Answers = len(answers.Rows)
	s.noteTier(stats)

	// Re-apply ORDER BY / LIMIT to the certified answers (innermost
	// decorator first, i.e. reverse peel order).
	if len(decorators) > 0 {
		node := ra.Node(&ra.Values{Sch: answers.Schema, Rows: answers.Rows})
		for i := len(decorators) - 1; i >= 0; i-- {
			node = decorators[i](node)
		}
		rows, err := ra.Materialize(ctx, node)
		if err != nil {
			return nil, nil, err
		}
		answers = &engine.Result{Schema: node.Schema(), Rows: rows}
	}
	stats.Total = time.Since(start)
	return answers, stats, nil
}

// firstCertErr selects the error a certification run reports, from the
// evaluation error plus the per-worker errors. A non-cancellation failure
// wins: a worker error cancels the shared context, so cancellation echoes
// from the other workers may coexist with the root cause. When only the
// caller's own cancellation fired, that context error is what comes back.
func firstCertErr(evalErr error, errs []error) error {
	var first error
	for _, err := range append([]error{evalErr}, errs...) {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// certBatchMin and certBatchMax bound how many candidates the producer
// hands a worker at once. Batches start small, so a query with a few
// hundred candidates still reaches every worker while the envelope is
// being evaluated, and double up to the maximum, where the channel send
// and the batch allocation vanish per candidate.
const (
	certBatchMin = 16
	certBatchMax = 256
)

// certBatch is one hand-off of the streaming pipeline. The producer fills
// rows, exactly one worker writes keep, and the producer reads keep after
// the workers are joined.
type certBatch struct {
	rows []value.Tuple
	keep []bool
}

// certifyStreaming evaluates the envelope through the cost-based planner
// as a pull iterator and certifies candidates as they are produced: the
// envelope evaluation and the prover overlap instead of running in
// sequence. The plan is compiled once (prover.Compile); each worker
// certifies whole batches with its own prover, so a candidate costs one
// lookup per atom and, only when conflicted tuples leave its residual
// open, a blocker search. Worker errors cancel the iterator tree via
// context, and the pipeline's context descends from the caller's, so an
// outside deadline or cancellation kills evaluation and certification
// together (workers check it between candidates); answers keep candidate
// production order, matching the sequential run.
func (s *System) certifyStreaming(ctx context.Context, v *queryView, plan, env ra.Node, stats *Stats) (*engine.Result, error) {
	t0 := time.Now()
	tpl, err := prover.Compile(plan)
	if err != nil {
		return nil, err
	}
	phys := engine.Optimize(env)
	stats.JoinOrder = planLeafOrder(phys)

	es := &ra.ExecStats{}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx = ra.WithExecStats(ctx, es)

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	stats.Workers = workers
	queue := make(chan *certBatch, workers*2)
	provers := make([]*prover.Prover, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := prover.New(v.hg.Graph(), prover.IndexedMembership{TI: v.ti})
		provers[w] = p
		wg.Add(1)
		go func(w int, p *prover.Prover) {
			defer wg.Done()
			done := ctx.Done()
			stopped := func() bool {
				if failed.Load() {
					return true
				}
				select {
				case <-done:
					errs[w] = ctx.Err()
					failed.Store(true)
					return true
				default:
					return false
				}
			}
			// After a failure the loop keeps draining the queue, so the
			// producer never blocks.
			for b := range queue {
				for i, row := range b.rows {
					if stopped() {
						break
					}
					ok, err := p.Certify(tpl, row)
					if err != nil {
						errs[w] = err
						failed.Store(true)
						cancel()
						break
					}
					b.keep[i] = ok
				}
			}
		}(w, p)
	}

	var batches []*certBatch
	var cur *certBatch
	flush := func() {
		if cur != nil {
			queue <- cur
			cur = nil
		}
	}
	candidates, size := 0, certBatchMin
	it, err := v.snap.OpenPlan(ctx, phys)
	var evalErr error
	if err != nil {
		evalErr = err
	} else {
		for !failed.Load() {
			row, ok, err := it.Next()
			if err != nil {
				evalErr = err
				break
			}
			if !ok {
				break
			}
			if cur == nil {
				cur = &certBatch{rows: make([]value.Tuple, 0, size), keep: make([]bool, size)}
				batches = append(batches, cur)
			}
			cur.rows = append(cur.rows, row)
			candidates++
			if len(cur.rows) == size {
				flush()
				size = min(2*size, certBatchMax)
			}
		}
		if cerr := it.Close(); cerr != nil && evalErr == nil {
			evalErr = cerr
		}
	}
	flush()
	close(queue)
	wg.Wait()

	stats.Candidates = candidates
	stats.PeakIntermediate = es.PeakIntermediate()
	if err := firstCertErr(evalErr, errs); err != nil {
		return nil, err
	}
	kept := 0
	for _, b := range batches {
		for _, k := range b.keep[:len(b.rows)] {
			if k {
				kept++
			}
		}
	}
	answers := &engine.Result{Schema: plan.Schema(), Rows: make([]value.Tuple, 0, kept)}
	for _, b := range batches {
		for i, row := range b.rows {
			if b.keep[i] {
				answers.Rows = append(answers.Rows, row)
			}
		}
	}
	// Evaluation and proving overlap in this path; both report the
	// pipeline's wall time.
	stats.Evaluation = time.Since(t0)
	stats.ProverTime = stats.Evaluation
	for _, p := range provers {
		stats.ProverStats.Add(p.Stats)
	}
	return answers, nil
}

// planLeafOrder renders the planner-chosen access order of a physical
// plan: the base relations left to right, as they land in the executed
// join tree.
func planLeafOrder(phys ra.Node) string {
	var names []string
	ra.Walk(phys, func(n ra.Node) {
		switch t := n.(type) {
		case *ra.Scan:
			names = append(names, t.Table.Name())
		case *ra.IndexLookup:
			names = append(names, t.Table.Name()+"[idx]")
		}
	})
	return strings.Join(names, ",")
}

// Rewriter prepares the query-rewriting baseline for this system's
// current constraints (erroring if they are outside its class). Each call
// prepares afresh; callers that rewrite many queries prepare once and
// reuse the rewriter.
func (s *System) Rewriter() (*rewrite.Rewriter, error) {
	return rewrite.New(s.db, s.Constraints())
}

// RepairEnumerator returns the exponential repair oracle over the current
// query view (small instances only). The enumerator reads the view's
// immutable storage and hypergraph snapshots directly — no defensive
// clone — so later delta drains cannot race with it.
func (s *System) RepairEnumerator() (*repair.Enumerator, error) {
	v, err := s.currentView()
	if err != nil {
		return nil, err
	}
	return &repair.Enumerator{DB: v.snap, H: v.hg.Graph()}, nil
}

// SupportSummary describes which execution strategies can handle a query,
// powering the expressiveness matrix of experiment E2.
type SupportSummary struct {
	Query   string
	Hippo   error // nil when supported
	Rewrite error // nil when supported
}

// Support probes whether Hippo and the rewriting baseline accept the
// query/constraint combination without executing it.
func (s *System) Support(sql string) (SupportSummary, error) {
	out := SupportSummary{Query: sql}
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return out, err
	}
	plan, err := s.db.PlanQuery(q)
	if err != nil {
		return out, err
	}
	out.Hippo = envelope.CheckQuery(plan)
	rw := rewrite.Prepare(s.db, s.Constraints())
	if out.Rewrite = rw.Err(); out.Rewrite == nil {
		_, out.Rewrite = rw.Rewrite(plan)
	}
	return out, nil
}

// FormatStats renders a run's statistics as a compact multi-line report.
func FormatStats(st *Stats) string {
	order := st.JoinOrder
	if order == "" {
		order = "-"
	}
	reasons := strings.Join(st.TierReasons, "; ")
	if reasons == "" {
		reasons = "-"
	}
	return fmt.Sprintf(
		"tier=%s classify=%v reasons=%s\n"+
			"tier-totals: rewrite=%d prover=%d\n"+
			"candidates=%d answers=%d workers=%d epoch=%d\n"+
			"planner: join-order=%s peak-intermediate-rows=%d\n"+
			"envelope=%v evaluation=%v prover=%v total=%v\n"+
			"prover: decided=%d searched=%d membership-checks=%d disjuncts=%d blocker-choices=%d\n"+
			"hypergraph: edges=%d conflicting-tuples=%d max-degree=%d components=%d max-component=%d\n"+
			"maintenance: deltas=%d edges+%d edges-%d full-rebuilds=%d overflows=%d\n"+
			"snapshots: published=%d reclaimed=%d slabs-reclaimed=%d",
		st.Strategy, st.Classify, reasons,
		st.Tiers.Rewrite, st.Tiers.Prover,
		st.Candidates, st.Answers, st.Workers, st.Epoch,
		order, st.PeakIntermediate,
		st.Envelope, st.Evaluation, st.ProverTime, st.Total,
		st.ProverStats.Decided, st.ProverStats.TuplesChecked-st.ProverStats.Decided,
		st.ProverStats.MembershipChecks, st.ProverStats.Disjuncts,
		st.ProverStats.BlockerChoices,
		st.GraphStats.Edges, st.GraphStats.ConflictingVertices, st.GraphStats.MaxDegree,
		st.GraphStats.Components, st.GraphStats.MaxComponent,
		st.Maintenance.DeltasApplied, st.Maintenance.EdgesAdded,
		st.Maintenance.EdgesRemoved, st.Maintenance.FullRebuilds,
		st.Maintenance.PendingOverflows,
		st.Maintenance.ViewsPublished, st.Maintenance.ViewsReclaimed,
		st.Maintenance.SlabsReclaimed)
}
