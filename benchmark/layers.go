//go:build layers

package main

// The traced run. It replays the first ops of client 0's stream with one
// client, twice on fresh systems: once untraced, for the throughput the
// tracing is compared with, and once traced. In the traced pass every op is a
// root span around the public call, and then the op is executed again stage
// by stage by calling each layer's public functions directly on a pinned
// snapshot, one child span per stage, with the counts taken at the same
// boundaries. Nothing inside Hippo is instrumented: the spans live here.
//
// This is the only file that imports Hippo's internal packages beyond the
// serving tier, and it is compiled only with the layers tag.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hippo"
	"hippo/internal/conflict"
	"hippo/internal/constraint"
	"hippo/internal/cqaplan"
	"hippo/internal/engine"
	"hippo/internal/envelope"
	"hippo/internal/prover"
	"hippo/internal/ra"
	"hippo/internal/rewrite"
	"hippo/internal/sqlparse"
	"hippo/internal/storage"
	"hippo/internal/verdictcache"
	"hippo/internal/wal"
)

// tracedOps is how many ops of the stream a traced run replays, frozen per
// workload so that a traced run takes about as long as an untraced one.
var tracedOps = map[string]int{
	"certify_cold":     100,
	"certify_hot":      100,
	"rewrite_scan":     300,
	"mixed_rw_durable": 300,
	"serve_http":       200,
}

// span is one timed interval of the trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // index of the op in the stream
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent, op int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// stage times fn as a child of parent.
func (t *tracer) stage(parent, op int, name string, fn func() error) (time.Duration, error) {
	id := t.begin(parent, op, name)
	err := fn()
	return t.end(id), err
}

// selfTimes returns, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]durations {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End - s.Start)
		}
	}
	out := map[string]durations{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)-child[s.ID])
	}
	return out
}

// layerRun is the state of one traced pass.
type layerRun struct {
	c    config
	tr   *tracer
	in   *instance
	cs   []constraint.Constraint
	rw   *rewrite.Rewriter
	vc   *verdictcache.Cache // private: Lookup/Store timings, same hit pattern as the system's
	twin *twin
	m    *model
	e    *embedded

	d map[string]*durations // per-stage latencies, by metric stem
	n map[string]float64    // counts

	tally
}

func (r *layerRun) dur(name string) *durations {
	if r.d[name] == nil {
		r.d[name] = new(durations)
	}
	return r.d[name]
}

// twin is an in-memory engine holding the same data as the system under
// test, with its own hypergraph, on which the write path's stages run one by
// one: statement execution, then incremental conflict detection on the
// deltas the execution emitted.
type twin struct {
	db     *engine.DB
	inc    *conflict.IncrementalDetector
	deltas []conflict.Delta
}

func (t *twin) DataChanged(table string, ch storage.Change) {
	t.deltas = append(t.deltas, conflict.Delta{Table: table, Change: ch})
}

func (t *twin) DataBatch(changes []storage.TableChange) {
	for _, c := range changes {
		t.DataChanged(c.Table, c.Change)
	}
}

func (t *twin) SchemaChanged(string) {}

func newTwin(ds *dataset, cs []constraint.Constraint) (*twin, error) {
	t := &twin{db: engine.New()}
	for _, s := range ds.loadSQL() {
		if _, _, err := t.db.Exec(s); err != nil {
			return nil, err
		}
	}
	h, _, _, err := conflict.NewDetector(t.db).Detect(cs)
	if err != nil {
		return nil, err
	}
	if t.inc, err = conflict.NewIncrementalDetector(t.db, h, cs); err != nil {
		return nil, err
	}
	t.db.AddListener(t)
	return t, nil
}

// runTraced performs the traced run and reports the per-layer metrics.
func runTraced(c config) (*record, error) {
	rec := &record{Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Counts: map[string]float64{}}
	dataDir := filepath.Join(c.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	rec.Host = describeHost(dataDir, c.commit)
	if err := checkModel(c.seed); err != nil {
		return nil, fmt.Errorf("model check: %w", err)
	}
	ds := genDataset(c.seed, c.dims())
	nOps := tracedOps[c.workload]
	if c.short {
		nOps = 40
	}
	ops := make([]op, nOps)
	st := newStream(c.workload, ds.dims, c.seed, 0, clients)
	for i := range ops {
		ops[i] = st.next()
	}

	// Untraced pass.
	in, _, err := setup(c, ds, filepath.Join(dataDir, "untraced"))
	if err != nil {
		return nil, err
	}
	w := &worker{tg: in.target(), m: newModel(ds, clients), expect: map[string]answer{}}
	w.reset()
	t0 := time.Now()
	for _, o := range ops {
		w.do(o, false)
	}
	untraced := time.Since(t0)
	rec.Attempted, rec.Failed = w.attempted, w.failed
	for _, msg := range w.complaints {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	if err := in.close(); err != nil {
		return nil, err
	}

	// Traced pass.
	r := &layerRun{c: c, tr: &tracer{t0: time.Now()}, m: newModel(ds, clients),
		vc: verdictcache.New(0), d: map[string]*durations{}, n: map[string]float64{}}
	if err := r.setup(ds, filepath.Join(dataDir, "traced")); err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i, o := range ops {
		if err := r.replay(i, o); err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, o.text(), err)
		}
	}
	traced := time.Since(t0)
	if err := r.finish(ds, dataDir); err != nil {
		return nil, err
	}
	rec.Attempted += r.attempted
	rec.Failed += r.failed
	r.report(rec, float64(untraced)/float64(traced))

	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	out, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		Counts   map[string]float64 `json:"counts"`
	}{c.workload, c.seed, r.tr.spans, rec.Counts})
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(c.outDir, "trace-"+c.workload+".json"), out, 0o644)
}

// setup builds the traced system, timing the set-up layers on the way.
func (r *layerRun) setup(ds *dataset, dir string) error {
	c := r.c
	in, err := open(c, dir)
	if err != nil {
		return err
	}
	db := in.db
	r.in, r.e = in, &embedded{db: db}
	root := r.tr.begin(-1, -1, "setup")
	d, err := r.tr.stage(root, -1, "storage.load", func() error { return load(db, ds) })
	if err != nil {
		return err
	}
	r.n["storage.load_rows_per_s"] = float64(len(ds.emp)+ds.depts+ds.aud) / d.Seconds()
	r.cs = db.System().Constraints()

	// The system's own first analysis, then conflict's full detection by
	// direct call.
	d, err = r.tr.stage(root, -1, "core.analyze", func() error { _, err := db.Analyze(); return err })
	if err != nil {
		return err
	}
	r.dur("core.analyze_ms").add(d)
	var det conflict.DetectStats
	d, err = r.tr.stage(root, -1, "conflict.detect", func() error {
		_, _, st, err := conflict.NewDetector(db.Engine()).Detect(r.cs)
		det = st
		return err
	})
	if err != nil {
		return err
	}
	r.dur("conflict.detect_ms").add(d)
	r.n["conflict.detect_combinations"] = float64(det.Combinations)
	d, _ = r.tr.stage(root, -1, "rewrite.prepare", func() error { r.rw = rewrite.Prepare(db.Engine(), r.cs); return nil })
	r.dur("rewrite.prepare_us").add(d)
	r.tr.end(root)

	// storage: a cursor over emp, five times.
	es := db.Engine().Snapshot()
	emp, err := es.Table("emp")
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		rows := 0
		t0 := time.Now()
		for cur := emp.Cursor(); ; rows++ {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		r.dur("storage.scan_ns_per_row").addPer(time.Since(t0), rows)
	}
	if c.workload == "serve_http" {
		r.in.svc = startService(db, clients+1) // one more connection for the in-flight sampler
	}
	if c.durable() || c.workload == "serve_http" {
		if r.twin, err = newTwin(ds, r.cs); err != nil {
			return err
		}
	}
	if r.in.log != nil {
		r.in.log.reset()
	}
	r.n["views_at_start"] = float64(db.System().Maintenance().ViewsPublished)
	return nil
}

// replay runs op i through the public surface under a root span, then stage
// by stage.
func (r *layerRun) replay(i int, o op) error {
	switch o.kind {
	case opExec, opBatch:
		return r.replayWrite(i, o)
	case opAgg:
		root := r.tr.begin(-1, i, "op.aggregate")
		got, err := r.e.aggregate(o.q)
		r.dur("aggregate.range_ms").add(r.tr.end(root))
		if err != nil {
			return err
		}
		r.check(o.text(), got, r.m.answer(o.q))
		return nil
	}
	return r.replayQuery(i, o)
}

func (r *layerRun) replayQuery(i int, o op) error {
	sys := r.in.db.System()
	sql := o.q.sql
	before := sys.CacheStats()

	// The op itself, through the surface the workload uses.
	root := r.tr.begin(-1, i, "op.consistent_query")
	var (
		got      answer
		st       *hippo.Stats
		res      *hippo.Result
		err      error
		overHTTP = r.in.svc != nil
	)
	if overHTTP {
		got, err = r.in.target().consistent(o.q)
	} else {
		res, st, err = r.in.db.ConsistentQuery(sql)
	}
	d := r.tr.end(root)
	if err != nil {
		return err
	}
	if !overHTTP {
		got = r.e.reduce(res)
	}
	if !o.afterWrite {
		r.check(o.text(), got, r.m.answer(o.q))
	}
	r.dur("op.cq." + o.class).add(d)
	r.n["cq_ops"]++
	r.n["verdictcache.evicted"] += float64(sys.CacheStats().Sub(before).Evicted)
	if overHTTP {
		// The same statement embedded: the difference is the serving tier.
		t0 := time.Now()
		if res, st, err = r.in.db.ConsistentQuery(sql); err != nil {
			return err
		}
		r.dur("server.embedded_ms").add(time.Since(t0))
		r.dur("server.http_ms").add(d)
	}
	if st.Strategy != "rewrite" {
		r.n["envelope_queries"]++
		r.n["candidates"] += float64(st.Candidates)
		r.n["answers"] += float64(st.Answers)
	}
	r.n["cache_hits"] += float64(st.CacheHits)
	r.n["cache_misses"] += float64(st.CacheMisses)
	r.n["prover.tuples"] += float64(st.ProverStats.TuplesChecked)
	r.n["prover.membership"] += float64(st.ProverStats.MembershipChecks)
	r.n["prover.blocker_choices"] += float64(st.ProverStats.BlockerChoices)
	r.n["prover.pruned"] += float64(st.ProverStats.Pruned)
	r.n["prover.components"] += float64(st.ProverStats.Components)
	r.n["ra.peak_intermediate_rows"] = max(r.n["ra.peak_intermediate_rows"], float64(st.PeakIntermediate))
	r.dur("cqaplan.classify_us").add(st.Classify)

	// Stage by stage, on a pinned snapshot.
	rep := r.tr.begin(-1, i, "replay.consistent_query")
	defer r.tr.end(rep)
	stage := func(metric, name string, fn func() error) error {
		d, err := r.tr.stage(rep, i, name, fn)
		if metric != "" {
			r.dur(metric).add(d)
		}
		return err
	}
	snap, err := r.in.db.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	es := snap.Data()
	var (
		q    *sqlparse.Query
		plan ra.Node
		dec  *cqaplan.Decision
		phys ra.Node
		rows *engine.Result
	)
	if err = stage("sqlparse.parse_us", "sqlparse.parse", func() (err error) { q, err = sqlparse.ParseQuery(sql); return }); err != nil {
		return err
	}
	if err = stage("engine.plan_us", "engine.plan", func() (err error) { plan, err = es.PlanQuery(q); return }); err != nil {
		return err
	}
	_ = stage("", "cqaplan.classify", func() error { dec = cqaplan.Classify(r.rw, r.cs, plan); return nil })
	if err = stage("engine.sql_query_ms", "engine.sql_query", func() error { _, err := r.in.db.Query(sql); return err }); err != nil {
		return err
	}
	_ = stage("storage.snapshot_us", "storage.snapshot", func() error { r.in.db.Engine().Snapshot(); return nil })
	eval := func(logical ra.Node) error {
		bound, err := engine.Rebind(logical, es)
		if err != nil {
			return err
		}
		_ = stage("engine.optimize_us", "engine.optimize", func() error { phys = engine.Optimize(bound); return nil })
		d, err := r.tr.stage(rep, i, "ra.eval", func() (err error) { rows, err = es.RunPlanRaw(phys); return })
		r.dur("ra.eval_ms").add(d)
		r.n["ra.rows"] += float64(len(rows.Rows))
		return err
	}
	if dec.Tier == cqaplan.TierRewrite {
		if err = stage("rewrite.rewrite_us", "rewrite.rewrite", func() error { _, err := r.rw.Rewrite(plan); return err }); err != nil {
			return err
		}
		if err = eval(dec.Plan); err != nil {
			return err
		}
		r.check("replay "+o.text(), r.e.reduce(&hippo.Result{Rows: rows.Rows}), got)
	} else {
		env := dec.Plan // hybrid: the residue-prefiltered envelope
		if err = stage("envelope.build_us", "envelope.build", func() (err error) {
			e, err := envelope.Envelope(plan)
			if dec.Tier != cqaplan.TierHybrid {
				env = e
			}
			return err
		}); err != nil {
			return err
		}
		if err = eval(env); err != nil {
			return err
		}
		if err = r.certify(rep, i, snap, plan, rows.Rows, o, got); err != nil {
			return err
		}
	}
	if overHTTP {
		return r.replayHTTP(rep, i, o, res)
	}
	return nil
}

// certify runs the certification stages over the candidates: cache lookups,
// the prover on the misses, cache stores.
func (r *layerRun) certify(rep, i int, snap *hippo.Snap, plan ra.Node, cands []hippo.Tuple, o op, got answer) error {
	graph := r.in.db.System().Hypergraph()
	sig := verdictcache.QuerySignature(ra.Format(plan))
	p := prover.New(graph, prover.IndexedMembership{TI: conflict.NewSnapshotTupleIndex(snap.Data().Tables())})
	keys := make([]string, len(cands))
	for k, row := range cands {
		keys[k] = verdictcache.Key(sig, row.Key())
	}
	verdict := make([]bool, len(cands))
	var misses []int
	d, _ := r.tr.stage(rep, i, "verdictcache.lookup", func() error {
		for k := range cands {
			v, ok := r.vc.Lookup(keys[k], snap.Epoch(), graph.Component)
			if verdict[k] = v; !ok {
				misses = append(misses, k)
			}
		}
		return nil
	})
	r.dur("verdictcache.lookup_ns").addPer(d, len(cands))
	deps := make([]prover.Deps, len(misses))
	d, err := r.tr.stage(rep, i, "prover.certify", func() error {
		for j, k := range misses {
			ok, dep, err := p.CertifyAnswer(plan, cands[k])
			if err != nil {
				return err
			}
			verdict[k], deps[j] = ok, dep
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dur("prover.us_per_miss").addPer(d, len(misses))
	d, _ = r.tr.stage(rep, i, "verdictcache.store", func() error {
		for j, k := range misses {
			r.vc.Store(keys[k], snap.Epoch(), verdict[k], deps[j].Atoms, deps[j].Comps)
		}
		return nil
	})
	r.dur("verdictcache.store_ns").addPer(d, len(misses))
	var kept []hippo.Tuple
	for k, row := range cands {
		if verdict[k] {
			kept = append(kept, row)
		}
	}
	if !o.afterWrite {
		r.check("replay "+o.text(), r.e.reduce(&hippo.Result{Rows: kept}), got)
	}
	return nil
}

// replayHTTP times the serving tier's own stages: the handler without a
// socket, the encoding of the rows, and the client's decoding.
func (r *layerRun) replayHTTP(rep, i int, o op, res *hippo.Result) error {
	body, err := json.Marshal(map[string]string{"sql": o.q.sql})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	d, _ := r.tr.stage(rep, i, "server.handler", func() error {
		req := httptest.NewRequest(http.MethodPost, "/v1/consistent-query", bytes.NewReader(body))
		r.in.svc.srv.ServeHTTP(rec, req)
		return nil
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler: http %d: %s", rec.Code, rec.Body.String())
	}
	r.dur("server.handler_ms").add(d)
	r.n["server.resp_bytes"] += float64(rec.Body.Len())
	nRows := len(res.Rows)
	wire := make([][]any, len(res.Rows))
	for k, t := range res.Rows {
		for _, v := range t {
			wire[k] = append(wire[k], v.Go())
		}
	}
	d, err = r.tr.stage(rep, i, "server.encode", func() error { _, err := json.Marshal(wire); return err })
	if err != nil {
		return err
	}
	r.dur("server.encode_us_per_row").addPer(d, nRows)
	d, err = r.tr.stage(rep, i, "hclient.decode", func() error {
		var out struct {
			Rows [][]any `json:"rows"`
		}
		return json.Unmarshal(rec.Body.Bytes(), &out)
	})
	r.dur("hclient.decode_us_per_row").addPer(d, nRows)
	return err
}

// replayWrite runs a write through the public surface, then its stages on
// the twin: parse, execute, incremental conflict detection on the deltas.
func (r *layerRun) replayWrite(i int, o op) error {
	sys := r.in.db.System()
	sqls := make([]string, len(o.writes))
	for k, w := range o.writes {
		sqls[k] = w.sql()
	}
	inv := sys.CacheStats().Invalidated
	root := r.tr.begin(-1, i, "op.write")
	var err error
	switch {
	case o.kind == opBatch:
		_, err = r.in.db.ExecBatch(sqls...)
	case r.in.svc != nil:
		err = r.in.target().exec(sqls[0])
	default:
		_, _, err = r.in.db.Exec(sqls[0])
	}
	r.dur("op.write").add(r.tr.end(root))
	if err != nil {
		return err
	}
	r.n["writes"] += float64(len(o.writes))
	r.n["write_ops"]++
	r.n["core.pending_deltas_max"] = max(r.n["core.pending_deltas_max"], float64(sys.PendingDeltas()))
	for _, w := range o.writes {
		r.m.apply(o.client, w)
		r.n["statement_bytes"] += float64(len(w.sql()))
	}

	rep := r.tr.begin(-1, i, "replay.write")
	defer r.tr.end(rep)
	stmts := make([]sqlparse.Statement, len(sqls))
	d, err := r.tr.stage(rep, i, "sqlparse.parse", func() (err error) {
		for k, s := range sqls {
			if stmts[k], err = sqlparse.Parse(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dur("sqlparse.parse_us").addPer(d, len(sqls))
	r.twin.deltas = r.twin.deltas[:0]
	if o.kind == opBatch {
		d, err = r.tr.stage(rep, i, "engine.batch", func() error { _, err := r.twin.db.ApplyBatch(stmts); return err })
		r.dur("engine.batch_stmt_us").addPer(d, len(stmts))
	} else {
		d, err = r.tr.stage(rep, i, "engine.exec", func() error { _, _, err := r.twin.db.ExecStmt(stmts[0]); return err })
		r.dur("engine.exec_stmt_us").add(d)
	}
	if err != nil {
		return err
	}
	comb := r.twin.inc.Stats().Combinations
	d, err = r.tr.stage(rep, i, "conflict.delta_apply", func() error {
		for _, delta := range r.twin.deltas {
			if err := r.twin.inc.Apply(delta); err != nil {
				return err
			}
		}
		return nil
	})
	if n := len(r.twin.deltas); n > 0 {
		r.dur("conflict.delta_apply_us").addPer(d, n)
		r.n["deltas"] += float64(n)
		r.n["delta_combinations"] += float64(r.twin.inc.Stats().Combinations - comb)
	}
	// Invalidation happens when the deltas are folded, which the next
	// consistent query or the maintainer does; force it to count it here.
	snap, err := r.in.db.Snapshot()
	if err != nil {
		return err
	}
	snap.Close()
	r.n["verdictcache.invalidated"] += float64(sys.CacheStats().Invalidated - inv)
	return err
}

// sampleInFlight polls /v1/stats until stop is closed and returns the most
// requests it saw in flight; overloaded replies count as rejections.
func (r *layerRun) sampleInFlight(stop <-chan struct{}) int {
	c, most := r.in.svc.client().c, 0
	for {
		select {
		case <-stop:
			return most
		case <-time.After(5 * time.Millisecond):
		}
		if st, err := c.Stats(context.Background()); err == nil {
			most = max(most, st.InFlight)
		}
	}
}

// finish takes the end-of-pass measurements and closes the system.
func (r *layerRun) finish(ds *dataset, dataDir string) error {
	sys := r.in.db.System()
	m := sys.Maintenance()
	gs := sys.GraphStats()
	tc := r.in.db.TierCounts()
	r.n["conflict.edges"] = float64(gs.Edges)
	r.n["conflict.max_component"] = float64(gs.MaxComponent)
	r.n["conflict.shard_migrations"] = float64(m.Migrations)
	r.n["core.views_published"] = float64(m.ViewsPublished) - r.n["views_at_start"]
	r.n["core.eager_folds"] = float64(m.EagerFolds)
	r.n["core.pending_overflows"] = float64(m.PendingOverflows)
	r.n["core.full_rebuilds"] = float64(m.FullRebuilds)
	r.n["core.slabs_reclaimed"] = float64(m.SlabsReclaimed)
	r.n["verdictcache.entries"] = float64(sys.CacheStats().Entries)
	r.n["tier.rewrite"], r.n["tier.hybrid"], r.n["tier.prover"] = float64(tc.Rewrite), float64(tc.Hybrid), float64(tc.Prover)
	r.n["cqaplan.fallbacks"] = float64(tc.Fallbacks)
	if r.in.svc != nil {
		// Phase B is not traced: it runs here, shortened, so that the traced
		// run reports its two numbers as well.
		ws := newWorkers(r.c, r.in, r.m, r.c.seed+1)
		stop, inflight := make(chan struct{}), make(chan int)
		go func() { inflight <- r.sampleInFlight(stop) }()
		lat, late := openLoop(ws, openRate, r.c.window(0.3))
		close(stop)
		r.n["server.inflight_max"] = float64(<-inflight)
		for _, w := range ws {
			r.attempted += w.attempted
			r.failed += w.failed
		}
		r.n["server.rejected_429"] = float64(r.in.svc.rejected.Load())
		r.n["open_p95_ms"] = lat.quantile(0.95)
		r.n["bench.open_late_p95_ms"] = late.quantile(0.95)
	}
	if log := r.in.log; log != nil {
		log.mu.Lock()
		r.n["wal.fsyncs"] = float64(len(log.syncs))
		r.n["wal.bytes"] = float64(log.written)
		r.d["wal.fsync_ms_p50"] = &log.syncs
		log.mu.Unlock()
		d, err := r.tr.stage(-1, -1, "wal.checkpoint", r.in.db.Checkpoint)
		if err != nil {
			return err
		}
		r.dur("wal.checkpoint_ms").add(d)
		r.n["wal.checkpoints"] = 1
	}
	if err := r.in.close(); err != nil {
		return err
	}
	if r.c.durable() {
		// wal: replay of the recovery directory by direct call.
		dir := filepath.Join(dataDir, "recovery")
		s, t, err := measureRecovery(r.c, ds, dir)
		if err != nil {
			return err
		}
		r.n["recovery_s"] = s
		r.attempted += t.attempted
		r.failed += t.failed
		var rec *wal.Recovered
		d, err := r.tr.stage(-1, -1, "wal.replay", func() error {
			st, got, err := wal.Open(dir, wal.Options{})
			if err != nil {
				return err
			}
			rec = got
			return st.Close()
		})
		if err != nil {
			return err
		}
		r.dur("wal.replay_ms").add(d)
		r.n["wal.replay_records"] = float64(len(rec.Records))
	}
	return nil
}

// perLayer lists the metrics a --trace 1 run reports on every workload, 0
// where the workload does not exercise the layer. BENCHMARK.json carries
// the same names.
var perLayer = []struct{ name, unit string }{
	{"sqlparse.parse_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.optimize_us", "us"},
	{"engine.sql_query_ms", "ms"},
	{"engine.exec_stmt_us", "us"},
	{"engine.batch_stmt_us", "us"},
	{"ra.eval_ms", "ms"},
	{"ra.rows_per_ms", "1/ms"},
	{"ra.peak_intermediate_rows", "count"},
	{"storage.scan_ns_per_row", "ns"},
	{"storage.snapshot_us", "us"},
	{"storage.load_rows_per_s", "1/s"},
	{"envelope.build_us", "us"},
	{"envelope.candidates_per_query", "count"},
	{"envelope.answers_per_candidate", "ratio"},
	{"cqaplan.classify_us", "us"},
	{"cqaplan.rewrite_share", "ratio"},
	{"cqaplan.hybrid_share", "ratio"},
	{"cqaplan.prover_share", "ratio"},
	{"cqaplan.fallbacks", "count"},
	{"rewrite.prepare_us", "us"},
	{"rewrite.rewrite_us", "us"},
	{"prover.us_per_miss", "us"},
	{"prover.membership_per_candidate", "count"},
	{"prover.blocker_choices_per_candidate", "count"},
	{"prover.pruned_share", "ratio"},
	{"prover.components_per_candidate", "count"},
	{"verdictcache.hit_ratio", "ratio"},
	{"verdictcache.evicted_per_query", "count"},
	{"verdictcache.entries", "count"},
	{"verdictcache.lookup_ns", "ns"},
	{"verdictcache.store_ns", "ns"},
	{"verdictcache.invalidated_per_write", "count"},
	{"conflict.detect_ms", "ms"},
	{"conflict.detect_combinations", "count"},
	{"conflict.edges", "count"},
	{"conflict.max_component", "count"},
	{"conflict.delta_apply_us", "us"},
	{"conflict.combinations_per_delta", "count"},
	{"conflict.shard_migrations", "count"},
	{"core.analyze_ms", "ms"},
	{"core.refresh_ms", "ms"},
	{"core.views_published_per_write", "count"},
	{"core.eager_folds", "count"},
	{"core.pending_overflows", "count"},
	{"core.full_rebuilds", "count"},
	{"core.pending_deltas_max", "count"},
	{"core.slabs_reclaimed", "count"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.fsync_ms_p50", "ms"},
	{"wal.bytes_per_stmt", "B"},
	{"wal.write_amp", "ratio"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.replay_ms", "ms"},
	{"wal.replay_records", "count"},
	{"server.http_overhead_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.encode_us_per_row", "us"},
	{"server.resp_kb_per_op", "KB"},
	{"server.rejected_429", "count"},
	{"server.inflight_max", "count"},
	{"hclient.decode_us_per_row", "us"},
	{"aggregate.range_ms", "ms"},
	{"bench.trace_overhead_x", "ratio"},
	{"bench.open_late_p95_ms", "ms"},
	// Seen by users but exercised by one workload only, so not among the
	// end-to-end metrics, which every workload must report.
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"cq_after_write_p50_ms", "ms"},
	{"recovery_s", "s"},
	{"open_p95_ms", "ms"},
}

// report fills rec with every per-layer metric.
func (r *layerRun) report(rec *record, tracedOverUntraced float64) {
	n := r.n
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(name string, perUnit float64) float64 {
		if d := r.d[name]; d != nil {
			return d.quantile(0.5) * 1e6 / perUnit
		}
		return 0
	}
	var evalMs float64
	if d := r.d["ra.eval_ms"]; d != nil {
		for _, v := range *d {
			evalMs += v / 1e6
		}
	}
	tiers := n["tier.rewrite"] + n["tier.hybrid"] + n["tier.prover"]
	value := func(name, unit string) float64 {
		switch unit {
		case "us":
			return med(name, 1e3)
		case "ms":
			if d := r.d[name]; d != nil {
				return med(name, 1e6)
			}
		case "ns":
			return med(name, 1)
		}
		switch name {
		case "ra.rows_per_ms":
			return ratio(n["ra.rows"], evalMs)
		case "envelope.candidates_per_query":
			return ratio(n["candidates"], n["envelope_queries"])
		case "envelope.answers_per_candidate":
			return ratio(n["answers"], n["candidates"])
		case "cqaplan.rewrite_share":
			return ratio(n["tier.rewrite"], tiers)
		case "cqaplan.hybrid_share":
			return ratio(n["tier.hybrid"], tiers)
		case "cqaplan.prover_share":
			return ratio(n["tier.prover"], tiers)
		case "prover.membership_per_candidate":
			return ratio(n["prover.membership"], n["prover.tuples"])
		case "prover.blocker_choices_per_candidate":
			return ratio(n["prover.blocker_choices"], n["prover.tuples"])
		case "prover.pruned_share":
			return ratio(n["prover.pruned"], n["prover.pruned"]+n["prover.blocker_choices"])
		case "prover.components_per_candidate":
			return ratio(n["prover.components"], n["prover.tuples"])
		case "verdictcache.hit_ratio":
			return ratio(n["cache_hits"], n["cache_hits"]+n["cache_misses"])
		case "verdictcache.evicted_per_query":
			return ratio(n["verdictcache.evicted"], n["cq_ops"])
		case "verdictcache.invalidated_per_write":
			return ratio(n["verdictcache.invalidated"], n["writes"])
		case "conflict.combinations_per_delta":
			return ratio(n["delta_combinations"], n["deltas"])
		case "core.refresh_ms":
			if r.d["op.cq.after_write"] == nil {
				return 0
			}
			return med("op.cq.after_write", 1e6) - med("op.cq.range", 1e6)
		case "core.views_published_per_write":
			return ratio(n["core.views_published"], n["write_ops"])
		case "wal.fsyncs_per_commit":
			return ratio(n["wal.fsyncs"], n["write_ops"])
		case "wal.bytes_per_stmt":
			return ratio(n["wal.bytes"], n["writes"])
		case "wal.write_amp":
			return ratio(n["wal.bytes"], n["statement_bytes"])
		case "server.http_overhead_ms":
			return med("server.http_ms", 1e6) - med("server.embedded_ms", 1e6)
		case "server.resp_kb_per_op":
			return ratio(n["server.resp_bytes"]/1024, n["cq_ops"])
		case "bench.trace_overhead_x":
			return tracedOverUntraced
		case "write_p50_ms":
			return med("op.write", 1e6)
		case "write_p95_ms":
			if d := r.d["op.write"]; d != nil {
				return d.quantile(0.95)
			}
			return 0
		case "cq_after_write_p50_ms":
			return med("op.cq.after_write", 1e6)
		}
		return n[name]
	}
	for _, m := range perLayer {
		rec.Metrics[m.name] = metric{value(m.name, m.unit), m.unit}
	}
	for name, d := range r.tr.selfTimes() {
		rec.Extra["self."+name+".p50_ms"] = metric{d.quantile(0.5), "ms"}
		rec.Extra["self."+name+".p95_ms"] = metric{d.quantile(0.95), "ms"}
		rec.Extra["self."+name+".spans"] = metric{float64(len(d)), "count"}
	}
	for k, v := range n {
		rec.Counts[k] = v
	}
}
