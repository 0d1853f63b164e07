// Package hippo is a from-scratch Go implementation of Hippo (Chomicki,
// Marcinkowski & Staworko, EDBT 2004): a system that computes consistent
// answers to SJUD SQL queries (selection, join/product, union, difference)
// over databases violating denial constraints — functional dependencies,
// key constraints, exclusion constraints, and general denial constraints.
//
// A consistent answer is a tuple contained in the query result of every
// repair of the database, where a repair is a maximal consistent subset of
// the data. Hippo never materializes repairs (there may be exponentially
// many); instead it builds the conflict hypergraph of constraint
// violations once, evaluates a cheap envelope query for candidates, and
// certifies each candidate with a polynomial-time prover over the
// hypergraph. A tiered planner classifies each query first: when the
// query/constraint combination is provably rewritable, the query's own
// plan answers it under conflict filters with zero certification, and
// everything else goes through the certification pipeline (see
// WithProverTier / WithRequireRewriteTier to pin a tier).
//
// Quickstart:
//
//	db := hippo.Open()
//	for _, q := range []string{
//		"CREATE TABLE emp (id INT, salary INT)",
//		"INSERT INTO emp VALUES (1,100), (1,200), (2,150)",
//	} {
//		if _, _, err := db.Exec(q); err != nil {
//			log.Fatal(err)
//		}
//	}
//	db.AddFD("emp", []string{"id"}, []string{"salary"})
//	res, stats, err := db.ConsistentQuery("SELECT * FROM emp")
//	// res.Rows == [(2,150)] — the only tuple present in every repair.
package hippo

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hippo/internal/aggregate"
	"hippo/internal/constraint"
	"hippo/internal/core"
	"hippo/internal/engine"
	"hippo/internal/envelope"
	"hippo/internal/prover"
	"hippo/internal/repair"
	"hippo/internal/value"
	"hippo/internal/wal"
)

// DB is a Hippo database handle: an embedded SQL engine plus a set of
// integrity constraints and the machinery to answer queries consistently.
type DB struct {
	sys *core.System
}

// Result is a materialized query result (schema + rows).
type Result = engine.Result

// Stats reports a consistent-query run stage by stage.
type Stats = core.Stats

// Value is a single SQL value.
type Value = value.Value

// Tuple is a row of values.
type Tuple = value.Tuple

// Open creates an empty in-memory Hippo database.
func Open() *DB {
	return &DB{sys: core.NewSystem(engine.New(), nil)}
}

// Options configure OpenOptions.
type Options struct {
	// Dir, when non-empty, selects durable mode: all tables, indexes, and
	// constraints persist under this directory through a write-ahead log
	// and periodic checkpoints, and opening an existing directory recovers
	// its exact pre-crash state (committed batches are atomic on disk: a
	// crash never resurfaces a batch prefix). Empty Dir opens the same
	// in-memory database Open does.
	Dir string
	// NoSync skips the per-commit fsync. Commits then survive a process
	// crash (the OS page cache holds them) but not an OS crash.
	NoSync bool
	// CheckpointBytes bounds the live WAL segment: once a committed write
	// pushes the segment past this size, a background checkpointer
	// snapshots the database into a checkpoint and rotates the log
	// (keeping recovery time proportional to the threshold, not to
	// history) without stalling the writer. 0 selects the default (8 MiB);
	// negative disables automatic checkpoints, leaving rotation to
	// explicit Checkpoint calls.
	CheckpointBytes int64
	// WrapSyncer, when set, wraps every file the durable store opens for
	// writing — a fault-injection hook for crash and degraded-maintenance
	// testing (see wal.Options.WrapSyncer). Leave nil in production.
	WrapSyncer func(name string, s wal.Syncer) wal.Syncer
}

// OpenOptions creates a Hippo database per o — in-memory when o.Dir is
// empty, durable otherwise. Durable opening fails if the directory's log
// or checkpoint is damaged (errors.Is(err, ErrCorrupt)); a torn trailing
// record from a crash mid-commit is not damage and recovers cleanly.
func OpenOptions(o Options) (*DB, error) {
	if o.Dir == "" {
		return Open(), nil
	}
	sys, err := core.OpenDurable(core.DurableOptions{
		Dir:             o.Dir,
		NoSync:          o.NoSync,
		CheckpointBytes: o.CheckpointBytes,
		WrapSyncer:      o.WrapSyncer,
	})
	if err != nil {
		return nil, err
	}
	return &DB{sys: sys}, nil
}

// Checkpoint serializes the current database state, installs it durably,
// and truncates the write-ahead log — bounding the work the next open
// must replay. It errors on an in-memory database.
func (db *DB) Checkpoint() error { return db.sys.Checkpoint() }

// Close releases the database: for durable mode it flushes and seals the
// write-ahead log. With default syncing every committed write is already
// on disk; in NoSync mode the flush here is what makes a clean shutdown
// durable. The handle must not be used afterwards.
func (db *DB) Close() error { return db.sys.Close() }

// ErrCorrupt marks damaged durable state: OpenOptions refuses to guess
// past a checksum-failed record or checkpoint and returns an error
// matching this sentinel instead of silently skipping committed writes.
var ErrCorrupt = wal.ErrCorrupt

// ErrCheckpoint marks an automatic-checkpoint failure surfaced by Exec or
// ExecBatch. Automatic checkpoints run on a background goroutine, so the
// failure may surface on a later write than the one whose commit grew the
// log past the threshold; either way the reporting statement COMMITTED —
// it is durable in the log and visible to queries; only the
// log-compaction checkpoint failed. Callers must not retry the statement
// on an error matching this sentinel. Close also drains an uncollected
// failure.
var ErrCheckpoint = errors.New("hippo: automatic checkpoint failed")

// checkpointHealth surfaces a background-checkpoint failure after a
// committed write, wrapping it in ErrCheckpoint so it cannot be mistaken
// for a failed statement.
func (db *DB) checkpointHealth() error {
	if err := db.sys.TakeCheckpointError(); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	return nil
}

// Wrap builds a Hippo handle over an existing engine database.
func Wrap(db *engine.DB) *DB {
	return &DB{sys: core.NewSystem(db, nil)}
}

// Engine exposes the underlying engine for advanced use (e.g. plain SQL
// and plan execution that bypass consistent answering). In durable mode,
// writes issued directly on the engine are logged like any other commit
// and — because the automatic checkpointer rides the engine's change
// feed, not this wrapper — still trigger automatic checkpoints; no manual
// Checkpoint calls are needed to bound the log.
func (db *DB) Engine() *engine.DB { return db.sys.DB() }

// Exec runs any SQL statement (DDL, DML, or SELECT) directly against the
// stored — possibly inconsistent — database. The conflict analysis stays
// current automatically: inserts and deletes stream to the conflict stage
// as deltas and are folded into the hypergraph incrementally by the next
// consistent query, while DDL forces a full re-detection.
func (db *DB) Exec(sql string) (*Result, int, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec honoring ctx: an already-expired context is
// rejected before any work is dispatched, SELECT evaluation dies within a
// bounded number of rows of cancellation, and long INSERT/DELETE
// statements abort between rows.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, int, error) {
	res, n, err := db.sys.DB().ExecContext(ctx, sql)
	// Only writes report checkpoint health; a SELECT (non-nil result)
	// must not report a background checkpoint failure.
	if err == nil && res == nil {
		err = db.checkpointHealth()
	}
	return res, n, err
}

// ExecBatch applies a sequence of DML statements (INSERT/DELETE) as one
// atomic group commit and returns the per-statement affected-row counts.
// The whole batch runs under a single hold of the write sequencer: no
// published query view — and hence no ConsistentQuery — ever observes a
// prefix of it, statements see the effects of earlier statements in the
// batch, and a failing statement rolls the entire batch back (the typed
// *BatchError names it). The batch's change feed is coalesced
// before it reaches the conflict stage, so a row inserted and deleted
// within one batch costs no delta probe and no cache invalidation, and
// the next consistent query folds the whole batch into the hypergraph
// under one freeze and one view publication.
func (db *DB) ExecBatch(sqls ...string) ([]int, error) {
	return db.ExecBatchContext(context.Background(), sqls...)
}

// ExecBatchContext is ExecBatch honoring ctx. Cancellation mid-batch
// rolls the entire batch back (atomicity is never traded for latency: a
// deadline aborts a batch, it cannot truncate one) and reports a
// *BatchError wrapping the context's error.
func (db *DB) ExecBatchContext(ctx context.Context, sqls ...string) ([]int, error) {
	counts, err := db.sys.DB().ExecBatchContext(ctx, sqls)
	if err == nil {
		err = db.checkpointHealth()
	}
	return counts, err
}

// Query evaluates a SELECT directly on the stored database, ignoring
// inconsistency — the "plain SQL" baseline of the paper's demonstration.
func (db *DB) Query(sql string) (*Result, error) {
	return db.sys.DB().Query(sql)
}

// QueryContext is Query honoring ctx: evaluation aborts within a bounded
// number of rows of cancellation or an expired deadline.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.sys.DB().QueryContext(ctx, sql)
}

// AddFD declares the functional dependency rel: lhs → rhs. The
// constraint is validated against the catalog — rel must exist and the
// columns must resolve — and rejected here rather than by a later query;
// in durable mode the error also reports a failure to persist the
// declaration. A constraint that errors is not registered.
func (db *DB) AddFD(rel string, lhs, rhs []string) error {
	return db.sys.AddConstraint(constraint.FD{Rel: rel, LHS: lhs, RHS: rhs})
}

// AddKey declares cols as a key of rel (an FD cols → all other columns).
// See AddFD for the validation and error contract.
func (db *DB) AddKey(rel string, cols ...string) error {
	return db.sys.AddConstraint(constraint.Key{Rel: rel, Cols: cols})
}

// AddFDSpec parses an FD of the form "rel: a,b -> c".
func (db *DB) AddFDSpec(spec string) error {
	fd, err := constraint.ParseFD(spec)
	if err != nil {
		return err
	}
	return db.sys.AddConstraint(fd)
}

// AddDenial parses and registers a general denial constraint, written as
// an atom list with a condition, e.g.
//
//	"emp e1, emp e2 WHERE e1.id = e2.id AND e1.salary <> e2.salary"
//
// meaning no combination of tuples may jointly satisfy the condition.
func (db *DB) AddDenial(spec string) error {
	d, err := constraint.ParseDenial(spec)
	if err != nil {
		return err
	}
	return db.sys.AddConstraint(d)
}

// Constraints returns string forms of the registered constraints.
func (db *DB) Constraints() []string {
	cs := db.sys.Constraints()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// AnalysisReport summarizes conflict detection.
type AnalysisReport struct {
	Constraints         int
	Edges               int
	ConflictingTuples   int
	MaxDegree           int
	MaxEdgeSize         int
	CombinationsChecked int64
}

// Analyze runs conflict detection and builds the conflict hypergraph. It
// is also run implicitly by the first consistent query.
func (db *DB) Analyze() (AnalysisReport, error) {
	det, err := db.sys.Analyze()
	if err != nil {
		return AnalysisReport{}, err
	}
	gs := db.sys.GraphStats()
	return AnalysisReport{
		Constraints:         det.Constraints,
		Edges:               gs.Edges,
		ConflictingTuples:   gs.ConflictingVertices,
		MaxDegree:           gs.MaxDegree,
		MaxEdgeSize:         gs.MaxEdgeSize,
		CombinationsChecked: det.Combinations,
	}, nil
}

// Option tunes ConsistentQuery.
type Option func(*core.Options)

// WithoutVerdictCache is a no-op: no verdict cache sits on the serving
// path, so every prover-tier candidate is always certified against the
// view the query runs on. It stays so existing callers keep compiling.
func WithoutVerdictCache() Option {
	return func(*core.Options) {}
}

// WithProverTier pins this query to the prover (certification) tier,
// bypassing the tiered planner's rewrite fast path. It is the baseline
// for tier benchmarks and differential tests.
func WithProverTier() Option {
	return func(o *core.Options) { o.Tier = core.TierForceProver }
}

// WithRequireRewriteTier fails the query with core.ErrRewriteIneligible
// when the classifier routes it to the prover instead of the rewrite
// tier. Use it to assert a hot query stays on the fast path.
func WithRequireRewriteTier() Option {
	return func(o *core.Options) { o.Tier = core.TierRequireRewrite }
}

// TierCounters counts consistent queries answered by each planner tier.
type TierCounters = core.TierCounters

// TierCounts reports how many consistent queries each tier has answered
// over this database's lifetime.
func (db *DB) TierCounts() TierCounters { return db.sys.TierCounts() }

// ErrRewriteIneligible re-exports the sentinel WithRequireRewriteTier
// fails with when the classifier routes the query away from the rewrite
// tier.
var ErrRewriteIneligible = core.ErrRewriteIneligible

// ConsistentQuery computes the consistent answers to an SJUD query: the
// tuples present in the query result of every repair. Any number of
// ConsistentQuery calls run concurrently with each other and with
// writers: each is served from an immutable snapshot-isolated query view
// (see Snapshot for pinning one view across several queries).
func (db *DB) ConsistentQuery(sql string, opts ...Option) (*Result, *Stats, error) {
	return db.ConsistentQueryContext(context.Background(), sql, opts...)
}

// ConsistentQueryContext is ConsistentQuery honoring ctx: cancellation or
// an expired deadline aborts the run — envelope evaluation stops within a
// bounded number of rows and certification stops between candidates —
// returning the context's error.
func (db *DB) ConsistentQueryContext(ctx context.Context, sql string, opts ...Option) (*Result, *Stats, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	return db.sys.ConsistentQueryContext(ctx, sql, o)
}

// Snap is a pinned snapshot-isolated view of the database: a consistent
// point-in-time state plus the conflict analysis matching it exactly.
// Queries at a Snap observe that state regardless of concurrent writers.
// Close it when done so retired storage can be reclaimed.
type Snap = core.Snapshot

// Snapshot pins the current query view (refreshing it first if writes
// are queued). The snapshot is safe for concurrent use.
func (db *DB) Snapshot() (*Snap, error) {
	return db.sys.Snapshot()
}

// ConsistentQueryAt computes consistent answers against a pinned
// snapshot: repeated calls see one immutable database state.
func (db *DB) ConsistentQueryAt(sn *Snap, sql string, opts ...Option) (*Result, *Stats, error) {
	return db.ConsistentQueryAtContext(context.Background(), sn, sql, opts...)
}

// ConsistentQueryAtContext is ConsistentQueryAt honoring ctx (see
// ConsistentQueryContext for the cancellation contract).
func (db *DB) ConsistentQueryAtContext(ctx context.Context, sn *Snap, sql string, opts ...Option) (*Result, *Stats, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	return db.sys.ConsistentQueryAtContext(ctx, sn, sql, o)
}

// RewrittenQuery computes consistent answers via the query-rewriting
// baseline (Arenas–Bertossi–Chomicki). It fails for queries or constraints
// outside that method's class (e.g. UNION queries, non-binary denials).
func (db *DB) RewrittenQuery(sql string) (*Result, error) {
	rw, err := db.sys.Rewriter()
	if err != nil {
		return nil, err
	}
	plan, err := rw.RewriteSQL(sql)
	if err != nil {
		return nil, err
	}
	return db.sys.DB().RunPlan(plan)
}

// Repairs materializes every repair of the database (exponential; guarded
// by an internal limit — intended for small demonstrations and tests).
func (db *DB) Repairs() ([]*engine.DB, error) {
	en, err := db.sys.RepairEnumerator()
	if err != nil {
		return nil, err
	}
	return en.Materialize()
}

// CountRepairs returns the number of repairs.
func (db *DB) CountRepairs() (int, error) {
	en, err := db.sys.RepairEnumerator()
	if err != nil {
		return 0, err
	}
	return en.Count()
}

// OracleConsistentQuery computes consistent answers by brute force over
// all repairs — the ground truth Hippo is tested against.
func (db *DB) OracleConsistentQuery(sql string) ([]Tuple, error) {
	en, err := db.sys.RepairEnumerator()
	if err != nil {
		return nil, err
	}
	return en.ConsistentAnswers(sql)
}

// Support reports whether Hippo and the rewriting baseline can handle the
// query under the registered constraints; the errors explain why not.
func (db *DB) Support(sql string) (hippoErr, rewriteErr error, err error) {
	sup, err := db.sys.Support(sql)
	if err != nil {
		return nil, nil, err
	}
	return sup.Hippo, sup.Rewrite, nil
}

// System exposes the underlying pipeline for benchmarks and tooling.
func (db *DB) System() *core.System { return db.sys }

// FormatStats renders run statistics for display.
func FormatStats(st *Stats) string { return core.FormatStats(st) }

// BatchError reports which statement stopped an ExecBatch; the batch was
// rolled back and none of its changes became visible. Recover it with
// errors.As to learn the 0-based Index of the failing statement.
type BatchError = engine.BatchError

// ErrUnsupported marks a query shape outside the SJUD class Hippo
// supports. Every unsupported-shape rejection from ConsistentQuery wraps
// it, so callers can test errors.Is(err, ErrUnsupported) instead of
// matching message text.
var ErrUnsupported = envelope.ErrUnsupported

// Oracle re-exports the repair enumerator type for advanced callers.
type Oracle = repair.Enumerator

// ProverStats re-exports the prover counters embedded in Stats.
type ProverStats = prover.Stats

// Version identifies this implementation.
const Version = "hippo-go 1.0 (EDBT 2004 reproduction)"

// AggFunc re-exports the aggregate function enum (COUNT/SUM/MIN/MAX).
type AggFunc = aggregate.Func

// Aggregate functions usable with ConsistentAggregate.
const (
	AggCount = aggregate.Count
	AggSum   = aggregate.Sum
	AggMin   = aggregate.Min
	AggMax   = aggregate.Max
)

// AggRange is a range-consistent aggregation answer: the aggregate's
// value lies in [Lower, Upper] in every repair.
type AggRange = aggregate.Range

// ConsistentAggregate computes the range-consistent answer to a scalar
// aggregation (paper reference [3]): the tightest interval containing the
// aggregate's value over every repair. It requires exactly one registered
// FD constraint on the queried relation; where optionally filters rows
// (e.g. "salary > 100", or "" for none). It reads one committed cut of the
// database: a write in flight counts whole or not at all.
func (db *DB) ConsistentAggregate(rel string, fn AggFunc, attr, where string) (AggRange, error) {
	q, err := db.aggQuery(rel, fn, attr, where)
	if err != nil {
		return AggRange{}, err
	}
	return aggregate.Consistent(db.Engine().Snapshot(), q)
}

// aggQuery builds a range-aggregation query over rel under its single
// registered FD.
func (db *DB) aggQuery(rel string, fn AggFunc, attr, where string) (aggregate.Query, error) {
	var fd *constraint.FD
	for _, c := range db.sys.Constraints() {
		f, ok := c.(constraint.FD)
		if !ok || !strings.EqualFold(f.Rel, rel) {
			continue
		}
		if fd != nil {
			return aggregate.Query{}, fmt.Errorf("hippo: range aggregation supports exactly one FD on %q, found several", rel)
		}
		fd = &f
	}
	if fd == nil {
		return aggregate.Query{}, fmt.Errorf("hippo: range aggregation requires an FD constraint on %q", rel)
	}
	return aggregate.Query{Rel: rel, Fn: fn, Attr: attr, Where: where, FD: *fd}, nil
}

// AggGroup is one group's range-consistent aggregation result.
type AggGroup = aggregate.GroupResult

// ConsistentGroupedAggregate computes one range-consistent aggregate per
// distinct value of the grouping columns (GROUP BY semantics), under the
// single registered FD on rel, over one committed cut like
// ConsistentAggregate. Results are sorted by group key.
func (db *DB) ConsistentGroupedAggregate(rel string, fn AggFunc, attr, where string, groupBy ...string) ([]AggGroup, error) {
	q, err := db.aggQuery(rel, fn, attr, where)
	if err != nil {
		return nil, err
	}
	return aggregate.ConsistentGrouped(db.Engine().Snapshot(), aggregate.GroupedQuery{Query: q, GroupBy: groupBy})
}
