package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hippo"
)

// clients is the number of concurrent clients of every workload: fixed, and
// never more than the reference host's two CPUs.
const clients = 2

// openRate is serve_http's phase-B arrival rate in requests per second: of
// 50, 100 and 200, the value nearest half of phase A's throughput on the
// reference host.
const openRate = 50

// recoveryStatements is the length of the write-ahead log recovery_s replays.
const recoveryStatements = 20000

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed window
	outDir   string  // data directories and traces
	commit   string
	short    bool // tests: a tenth of the dataset, 40 traced ops
}

func (c config) dims() dims {
	if c.short {
		return dims{ids: d20k.ids / 10, dups: d20k.dups / 10, triples: d20k.triples / 10, depts: d20k.depts, aud: d20k.aud / 10}
	}
	return d20k
}

func (c config) window(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

func (c config) durable() bool { return c.workload == "mixed_rw_durable" }

// instance is one set-up system under test.
type instance struct {
	db  *hippo.DB
	svc *service // serve_http only
	dir string   // durable only
	log *syncLog // durable only
}

func (in *instance) target() target {
	if in.svc != nil {
		return in.svc.client()
	}
	return &embedded{db: in.db}
}

func (in *instance) close() error {
	if in.svc != nil {
		return in.svc.stop()
	}
	return in.db.Close()
}

// load executes the dataset's statements and registers the constraints.
func load(db *hippo.DB, ds *dataset) error {
	for _, s := range ds.loadSQL() {
		if _, _, err := db.Exec(s); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	if err := db.AddFDSpec(fdSpec); err != nil {
		return err
	}
	return db.AddDenial(denialSpec)
}

// setup is what setup_s times: open, load, register constraints, first
// Analyze and, for serve_http, server start.
func setup(c config, ds *dataset, dir string) (*instance, time.Duration, error) {
	t0 := time.Now()
	in, err := open(c, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := load(in.db, ds); err != nil {
		return nil, 0, err
	}
	if _, err := in.db.Analyze(); err != nil {
		return nil, 0, err
	}
	if c.workload == "serve_http" {
		in.svc = startService(in.db, clients)
	}
	return in, time.Since(t0), nil
}

// open opens the workload's empty database: in memory, or for
// mixed_rw_durable in dir, fsyncing every commit group, with the sync log
// hooked in.
func open(c config, dir string) (*instance, error) {
	in := &instance{}
	opts := hippo.Options{}
	if c.durable() {
		in.dir, in.log = dir, newSyncLog(dir)
		opts = hippo.Options{Dir: dir, CheckpointBytes: 1 << 20}
		installSyncLog(&opts.WrapSyncer, in.log)
	}
	db, err := hippo.OpenOptions(opts)
	in.db = db
	return in, err
}

// worker is one client: its stream, its target, and what it measured.
type worker struct {
	st     *stream
	tg     target
	m      *model
	expect map[string]answer // static reads, by statement

	cq, write, after, sql durations
	byClass               map[string]*durations
	ops, attempted        int
	failed                int
	writes                int // statements acknowledged
	behind                int // after-write answers older than the client's writes
	complaints            []string
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if len(w.complaints) < 3 {
		w.complaints = append(w.complaints, fmt.Sprintf(format, args...))
	}
}

// expected returns the model's answer to a read of ids nobody writes,
// computed once per statement.
func (w *worker) expected(o op) answer {
	key := o.q.sql
	if o.kind == opAgg {
		key = strconv.Itoa(int(o.q.fn)) + key
	}
	a, ok := w.expect[key]
	if !ok {
		a = w.m.answer(o.q)
		w.expect[key] = a
	}
	return a
}

// do runs one op, checks it, and records its latency when it was correct.
// With plain set, reads run as plain SQL (the cq_over_sql_x baseline) and
// writes are skipped.
func (w *worker) do(o op, plain bool) {
	var (
		got answer
		err error
	)
	t0 := time.Now()
	switch {
	case o.kind == opExec && !plain:
		err = w.tg.exec(o.writes[0].sql())
	case o.kind == opBatch && !plain:
		sqls := make([]string, len(o.writes))
		for i, wr := range o.writes {
			sqls[i] = wr.sql()
		}
		t0 = time.Now()
		err = w.tg.batch(sqls)
	case o.kind == opCQ && plain:
		got, err = w.tg.plain(o.q)
	case o.kind == opCQ:
		got, err = w.tg.consistent(o.q)
	case o.kind == opAgg && plain:
		// The aggregate's plain counterpart: the rows it ranges over.
		got, err = w.tg.plain(qDeptSelectOf(o.q.x))
	case o.kind == opAgg:
		got, err = w.tg.aggregate(o.q)
	default:
		return
	}
	d := time.Since(t0)
	w.attempted++
	if err != nil {
		w.fail("%s: %v", o.text(), err)
		return
	}
	switch {
	case o.kind == opExec || o.kind == opBatch:
		for _, wr := range o.writes {
			w.m.apply(o.client, wr)
		}
		w.writes += len(o.writes)
		w.write.add(d)
	case plain:
		w.sql.add(d)
	case o.afterWrite:
		// While another client's refresh is in flight Hippo serves the
		// newest published view, which may not hold this client's last
		// writes yet: such an answer is late, not wrong, so it is counted
		// apart and the final state is checked at quiesce.
		if got != w.m.answer(o.q) {
			w.behind++
		}
		w.cq.add(d)
		w.after.add(d)
	default:
		if want := w.expected(o); got != want {
			w.fail("%s: got %v, want %v", o.text(), got, want)
			return
		}
		w.cq.add(d)
	}
	w.ops++
	if !plain {
		c := w.byClass[o.class]
		if c == nil {
			c = new(durations)
			w.byClass[o.class] = c
		}
		c.add(d)
	}
}

// reset forgets what the worker measured; the stream and the model go on.
func (w *worker) reset() {
	w.cq, w.write, w.after, w.sql = nil, nil, nil, nil
	w.byClass = map[string]*durations{}
	w.ops, w.attempted, w.failed, w.writes, w.behind = 0, 0, 0, 0, 0
}

// slices is the number of parts the timed window is measured in.
const slices = 5

// measured is what the workers measured in one stretch of a run.
type measured struct {
	elapsed               time.Duration
	cq, write, after, sql durations
	byClass               map[string]durations
	ops, attempted        int
	failed, stmts, behind int
}

// measure runs the workers in a closed loop for d and collects what they
// measured, printing each worker's first failed checks.
func measure(ws []*worker, d time.Duration, plain bool) measured {
	for _, w := range ws {
		w.reset()
	}
	t0 := time.Now()
	closedLoop(ws, d, plain)
	m := measured{elapsed: time.Since(t0), byClass: map[string]durations{}}
	for _, w := range ws {
		m.add(w.measured())
	}
	return m
}

// measured returns what w measured since its last reset and prints its
// first failed checks.
func (w *worker) measured() measured {
	m := measured{cq: w.cq, write: w.write, after: w.after, sql: w.sql, byClass: map[string]durations{},
		ops: w.ops, attempted: w.attempted, failed: w.failed, stmts: w.writes, behind: w.behind}
	for class, d := range w.byClass {
		m.byClass[class] = *d
	}
	for _, msg := range w.complaints {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	w.complaints = nil
	return m
}

func (m *measured) add(o measured) {
	m.cq = append(m.cq, o.cq...)
	m.write = append(m.write, o.write...)
	m.after = append(m.after, o.after...)
	m.sql = append(m.sql, o.sql...)
	for class, d := range o.byClass {
		m.byClass[class] = append(m.byClass[class], d...)
	}
	m.ops += o.ops
	m.attempted += o.attempted
	m.failed += o.failed
	m.stmts += o.stmts
	m.behind += o.behind
}

// newWorkers returns the workload's clients on in, with streams seeded seed.
func newWorkers(c config, in *instance, m *model, seed int64) []*worker {
	ws := make([]*worker, clients)
	for i := range ws {
		ws[i] = &worker{st: newStream(c.workload, m.ds.dims, seed, i, clients), tg: in.target(), m: m, expect: map[string]answer{}}
		ws[i].reset()
	}
	return ws
}

// closedLoop runs every worker for d: each sends its next op when the
// previous one completes.
func closedLoop(ws []*worker, d time.Duration, plain bool) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.do(w.st.next(), plain)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop sends worker 0's stream at rate ops per second for d over the
// workers' connections, whether or not earlier requests have completed, and
// times each from the moment it was due. It returns the latencies from due
// time and how late each request was sent.
func openLoop(ws []*worker, rate int, d time.Duration) (lat, late durations) {
	n := int(d.Seconds() * float64(rate))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = ws[0].st.next()
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
				time.Sleep(time.Until(due))
				sent := time.Now()
				before := w.ops
				w.do(ops[i], false)
				if w.ops > before {
					mu.Lock()
					lat.add(time.Since(due))
					late.add(sent.Sub(due))
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return lat, late
}

// rssPeak samples the process's resident set until stop is closed.
func rssPeak(stop <-chan struct{}, peakMB *float64) {
	page := float64(os.Getpagesize())
	for {
		if raw, err := os.ReadFile("/proc/self/statm"); err == nil {
			if f := strings.Fields(string(raw)); len(f) > 1 {
				if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
					*peakMB = max(*peakMB, pages*page/(1<<20))
				}
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// runWorkload performs one untraced run and returns its record.
func runWorkload(c config) (*record, error) {
	rec := &record{Workload: c.workload, Seed: c.seed, Seconds: c.seconds,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
	dataDir := filepath.Join(c.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	rec.Host = describeHost(dataDir, c.commit)

	// The benchmark's own reference work, timed apart from set-up.
	t0 := time.Now()
	if err := checkModel(c.seed); err != nil {
		return nil, fmt.Errorf("model check: %w", err)
	}
	ds := genDataset(c.seed, c.dims())
	m := newModel(ds, clients)
	reference := time.Since(t0)

	// Set up seven times and report the median; the last instance runs the
	// workload, the first answers the cross-check.
	var in *instance
	var setups []float64
	for i := 0; i < 7; i++ {
		next, d, err := setup(c, ds, filepath.Join(dataDir, fmt.Sprintf("db%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			t0 = time.Now()
			if err := crossCheck(next.db, m); err != nil {
				return nil, fmt.Errorf("cross-check: %w", err)
			}
			reference += time.Since(t0)
		}
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		in = next
	}
	rec.Metrics["setup_s"] = metric{median(setups), "s"}
	rec.Extra["reference_s"] = metric{reference.Seconds(), "s"}

	ws := newWorkers(c, in, m, c.seed)

	// Warm-up, then the timed window in five slices. The window's throughput
	// and latency quantiles are the medians of the slices', which a burst of
	// interference from outside the process moves less than it moves the
	// whole window's.
	warm := measure(ws, c.window(0.25), false)
	total := measured{byClass: map[string]durations{}, attempted: warm.attempted, failed: warm.failed}
	if in.log != nil {
		in.log.reset()
	}
	var before, after runtime.MemStats
	var peak float64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() { rssPeak(stop, &peak); close(sampled) }()
	runtime.ReadMemStats(&before)
	var rate, p50, p95 []float64
	for i := 0; i < slices; i++ {
		sl := measure(ws, c.window(1.0/slices), false)
		rate = append(rate, float64(sl.ops)/sl.elapsed.Seconds())
		p50 = append(p50, sl.cq.quantile(0.5))
		p95 = append(p95, sl.cq.quantile(0.95))
		total.add(sl)
	}
	runtime.ReadMemStats(&after)
	close(stop)
	<-sampled

	ops := max(total.ops, 1)
	rec.Metrics["ops_per_s"] = metric{median(rate), "1/s"}
	rec.Metrics["cq_p50_ms"] = metric{median(p50), "ms"}
	rec.Metrics["cq_p95_ms"] = metric{median(p95), "ms"}
	rec.Metrics["rss_peak_mb"] = metric{peak, "MB"}
	rec.Metrics["alloc_kb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops), "KB"}
	rec.Extra["cq_samples"] = metric{float64(len(total.cq)), "count"}
	for class, d := range total.byClass {
		rec.Extra["class."+class+".share"] = metric{float64(len(d)) / float64(ops), "ratio"}
		rec.Extra["class."+class+".p50_ms"] = metric{d.quantile(0.5), "ms"}
		rec.Extra["class."+class+".p95_ms"] = metric{d.quantile(0.95), "ms"}
	}
	if len(total.write) > 0 {
		rec.Extra["write_p50_ms"] = metric{total.write.quantile(0.5), "ms"}
		rec.Extra["write_p95_ms"] = metric{total.write.quantile(0.95), "ms"}
		rec.Extra["write_samples"] = metric{float64(len(total.write)), "count"}
	}
	if len(total.after) > 0 {
		rec.Extra["cq_after_write_p50_ms"] = metric{total.after.quantile(0.5), "ms"}
		rec.Extra["cq_after_write_behind_share"] = metric{float64(total.behind) / float64(len(total.after)), "ratio"}
	}
	if in.log != nil {
		in.log.report(rec, total.stmts)
	}

	// Side window: the same statements as plain SQL.
	side := measure(ws, c.window(0.25), true)
	total.add(side)
	rec.Extra["sql_p50_ms"] = metric{side.sql.quantile(0.5), "ms"}
	if p := side.sql.quantile(0.5); p > 0 {
		rec.Metrics["cq_over_sql_x"] = metric{median(p50) / p, "ratio"}
	}

	if c.workload == "serve_http" {
		for _, w := range ws {
			w.reset()
		}
		lat, late := openLoop(ws, openRate, c.window(0.5))
		for _, w := range ws {
			total.add(w.measured())
		}
		rec.Extra["open_p95_ms"] = metric{lat.quantile(0.95), "ms"}
		rec.Extra["open_p50_ms"] = metric{lat.quantile(0.5), "ms"}
		rec.Extra["bench.open_late_p95_ms"] = metric{late.quantile(0.95), "ms"}
		rec.Extra["open_rate"] = metric{openRate, "1/s"}
	}
	rec.Attempted, rec.Failed = total.attempted, total.failed

	// State-changing workloads: the live answers against a database rebuilt
	// from the final contents, and the model against both.
	if c.workload == "serve_http" || c.durable() {
		n, err := checkQuiesced(in.db, m)
		if err != nil {
			return nil, fmt.Errorf("quiesce check: %w", err)
		}
		rec.Attempted += n.attempted
		rec.Failed += n.failed
	}
	if c.durable() {
		n, err := checkDurable(in, m, filepath.Join(dataDir, "crash"))
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		rec.Attempted += n.attempted
		rec.Failed += n.failed
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	if c.durable() {
		s, n, err := measureRecovery(c, ds, filepath.Join(dataDir, "recovery"))
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		rec.Extra["recovery_s"] = metric{s, "s"}
		rec.Attempted += n.attempted
		rec.Failed += n.failed
	}
	return rec, nil
}

// tally counts checks made outside the windows.
type tally struct{ attempted, failed int }

func (t *tally) check(what string, got, want answer) {
	t.attempted++
	if got != want {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAILED: %s: got %v, want %v\n", what, got, want)
	}
}

// templates returns one query of every shape the workloads use, sized to d.
func templates(d dims) []*query {
	return []*query{
		qPointOf(d.ids / 3),
		qRangeOf(d.ids/4, d.ids/2),
		qSelectOf(90000),
		qJoinOf(0, d.ids/2),
		qDeptSelectOf(1),
		qUnionOf(70000, 100000),
		qUnionIn(1, d.ids/2, 80000, 90000),
		qUnionRangeOf(0, d.ids/4, d.ids/2),
		qExceptIn(0, d.ids-1, d.depts/2+1, 100000),
		qSelfJoinOf(d.ids/4, d.ids),
		qHybridOf(0, d.aud),
		qFullOf(),
		qAggOf(aggMin, 1), qAggOf(aggMax, 1), qAggOf(aggSum, 1),
	}
}

// checkModel validates the model on the micro instance: for every query
// shape, the repair-enumeration oracle, Hippo and the model must agree.
func checkModel(seed int64) error {
	ds := genDataset(seed, micro)
	db := hippo.Open()
	defer db.Close()
	if err := load(db, ds); err != nil {
		return err
	}
	e := &embedded{db: db}
	return agree(e, newModel(ds, 1), "oracle", func(q *query) (answer, error) {
		if q.kind == qAgg {
			return oracleAggregate(db, q)
		}
		tuples, err := db.OracleConsistentQuery(q.sql)
		return e.reduce(&hippo.Result{Rows: tuples}), err
	})
}

// crossCheck compares, on the full dataset, every query shape's answer on
// the default path with the pinned prover tier without the verdict cache,
// and both with the model. Aggregates have one path; it is asked twice.
func crossCheck(db *hippo.DB, m *model) error {
	e := &embedded{db: db}
	return agree(e, m, "prover tier", func(q *query) (answer, error) {
		if q.kind == qAgg {
			return e.aggregate(q)
		}
		res, _, err := db.ConsistentQuery(q.sql, hippo.WithProverTier(), hippo.WithoutVerdictCache())
		if err != nil {
			return answer{}, err
		}
		return e.reduce(res), nil
	})
}

// agree requires, for every query shape, Hippo's answer and a second
// opinion's to equal the model's.
func agree(e *embedded, m *model, second string, ask func(*query) (answer, error)) error {
	for _, q := range templates(m.ds.dims) {
		hippoSays := e.consistent
		if q.kind == qAgg {
			hippoSays = e.aggregate
		}
		got, err := hippoSays(q)
		if err != nil {
			return err
		}
		other, err := ask(q)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", q.sql, second, err)
		}
		if want := m.answer(q); got != want || other != want {
			return fmt.Errorf("%s: hippo %v, %s %v, model %v", q.sql, got, second, other, want)
		}
	}
	return nil
}

// oracleAggregate evaluates q's aggregate in every repair and returns the
// range of the values.
func oracleAggregate(db *hippo.DB, q *query) (answer, error) {
	repairs, err := db.Repairs()
	if err != nil {
		return answer{}, err
	}
	var lo, hi int64
	for i, r := range repairs {
		res, err := r.Query("SELECT * FROM emp WHERE " + q.sql)
		if err != nil {
			return answer{}, err
		}
		if len(res.Rows) == 0 {
			return answer{}, errors.New("aggregate over an empty repair")
		}
		var v int64
		for j, t := range res.Rows {
			s := t[3].I
			switch {
			case q.fn == aggSum:
				v += s
			case j == 0 || (q.fn == aggMin) == (s < v):
				v = s
			}
		}
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return rangeAnswer(lo, hi), nil
}

// checkQuiesced runs, with every client stopped, the query shapes on the
// live database and on a fresh in-memory one rebuilt from the live tables'
// final contents and analysed from scratch; both must give the model's
// answers.
func checkQuiesced(live *hippo.DB, m *model) (tally, error) {
	var t tally
	fresh := hippo.Open()
	defer fresh.Close()
	for _, table := range tables {
		if _, _, err := fresh.Exec(table.create); err != nil {
			return t, err
		}
		res, err := live.Query("SELECT * FROM " + table.name)
		if err != nil {
			return t, err
		}
		for lo := 0; lo < len(res.Rows); lo += 256 {
			var vals []string
			for _, row := range res.Rows[lo:min(lo+256, len(res.Rows))] {
				var cells []string
				for _, v := range row {
					cells = append(cells, v.String())
				}
				vals = append(vals, "("+strings.Join(cells, ", ")+")")
			}
			if _, _, err := fresh.Exec("INSERT INTO " + table.name + " VALUES " + strings.Join(vals, ", ")); err != nil {
				return t, err
			}
		}
	}
	if err := fresh.AddFDSpec(fdSpec); err != nil {
		return t, err
	}
	if err := fresh.AddDenial(denialSpec); err != nil {
		return t, err
	}
	for _, q := range templates(m.ds.dims) {
		if q.kind == qAgg {
			continue
		}
		want := m.answer(q)
		for _, side := range []struct {
			name string
			db   *hippo.DB
		}{{"live", live}, {"rebuilt", fresh}} {
			got, err := (&embedded{db: side.db}).consistent(q)
			if err != nil {
				return t, err
			}
			t.check(side.name+" "+q.sql, got, want)
		}
	}
	return t, nil
}

// syncLog is the hippo.Options.WrapSyncer hook: per file, the bytes written
// and the bytes written when Sync last returned, and every Sync's duration.
type syncLog struct {
	dir     string
	mu      sync.Mutex
	files   map[string]*fileLog
	syncs   durations
	written int64
}

type fileLog struct{ written, synced int64 }

func newSyncLog(dir string) *syncLog { return &syncLog{dir: dir, files: map[string]*fileLog{}} }

// reset starts the counters of a window; file lengths are kept.
func (l *syncLog) reset() {
	l.mu.Lock()
	l.syncs, l.written = nil, 0
	l.mu.Unlock()
}

// sink is the method set of the files the durable store writes.
type sink interface {
	io.Writer
	Sync() error
	Close() error
}

type loggedSink struct {
	sink
	log *syncLog
	f   *fileLog
}

func (s *loggedSink) Write(p []byte) (int, error) {
	n, err := s.sink.Write(p)
	s.log.mu.Lock()
	s.f.written += int64(n)
	s.log.written += int64(n)
	s.log.mu.Unlock()
	return n, err
}

func (s *loggedSink) Sync() error {
	s.log.mu.Lock()
	upTo := s.f.written
	s.log.mu.Unlock()
	t0 := time.Now()
	err := s.sink.Sync()
	d := time.Since(t0)
	s.log.mu.Lock()
	if err == nil {
		s.f.synced = upTo
	}
	s.log.syncs.add(d)
	s.log.mu.Unlock()
	return err
}

// installSyncLog sets a WrapSyncer field. The type parameter stands for the
// store's sink type, which this file does not name so that the end-to-end
// path imports nothing of Hippo's internals but the serving tier.
func installSyncLog[S sink](field *func(name string, s S) S, log *syncLog) {
	*field = func(name string, s S) S {
		f := &fileLog{}
		if info, err := os.Stat(filepath.Join(log.dir, name)); err == nil {
			// A reopened segment is appended to: what it holds is durable.
			f.written, f.synced = info.Size(), info.Size()
		}
		log.mu.Lock()
		log.files[name] = f
		log.mu.Unlock()
		return any(&loggedSink{sink: s, log: log, f: f}).(S)
	}
}

// report adds the window's log-device numbers to rec.
func (l *syncLog) report(rec *record, stmts int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Extra["wal.fsyncs"] = metric{float64(len(l.syncs)), "count"}
	rec.Extra["wal.fsync_ms_p50"] = metric{l.syncs.quantile(0.5), "ms"}
	rec.Extra["wal.bytes_per_stmt"] = metric{float64(l.written) / float64(max(stmts, 1)), "B"}
}

// syncedLengths returns, per file, the length a crash would keep.
func (l *syncLog) syncedLengths() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.files))
	for name, f := range l.files {
		out[name] = f.synced
	}
	return out
}

// checkDurable simulates losing everything the store had not fsynced: it
// copies the directory, cuts every file the store wrote to its last synced
// length, reopens the copy, and requires every acknowledged statement's
// effect and the pre-crash consistent answers.
func checkDurable(in *instance, m *model, crashDir string) (tally, error) {
	var t tally
	if err := crashCopy(in.dir, crashDir, in.log); err != nil {
		return t, err
	}
	db, err := hippo.OpenOptions(hippo.Options{Dir: crashDir})
	if err != nil {
		return t, fmt.Errorf("reopen after simulated crash: %w", err)
	}
	defer db.Close()
	e := &embedded{db: db}
	got, err := e.plain(qFullOf())
	if err != nil {
		return t, err
	}
	t.check("contents after simulated crash", got, m.contents())
	got, err = e.consistent(qFullOf())
	if err != nil {
		return t, err
	}
	t.check("consistent answers after simulated crash", got, m.answer(qFullOf()))
	return t, nil
}

// crashCopy copies dir as a crash would leave it. A background checkpoint
// may rename or delete files meanwhile; the copy is retried until the
// directory listing is the same before and after.
func crashCopy(dir, to string, log *syncLog) error {
	listing := func() (string, []os.DirEntry, error) {
		entries, err := os.ReadDir(dir)
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, "\n"), entries, err
	}
	for attempt := 0; ; attempt++ {
		if err := os.RemoveAll(to); err != nil {
			return err
		}
		if err := os.MkdirAll(to, 0o755); err != nil {
			return err
		}
		before, entries, err := listing()
		if err != nil {
			return err
		}
		synced := log.syncedLengths()
		for _, e := range entries {
			if err = copyPrefix(filepath.Join(dir, e.Name()), filepath.Join(to, e.Name()), synced[e.Name()], synced); err != nil {
				break
			}
		}
		after, _, lerr := listing()
		if err == nil && lerr == nil && before == after {
			return nil
		}
		if attempt == 20 {
			return fmt.Errorf("directory kept changing: %v", errors.Join(err, lerr))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// copyPrefix copies the first n bytes of a file the store wrote through the
// hook, or all of any other file (installed checkpoints, the lock file).
func copyPrefix(from, to string, n int64, tracked map[string]int64) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, ok := tracked[filepath.Base(from)]; ok {
		_, err = io.CopyN(dst, src, n)
		if errors.Is(err, io.EOF) {
			err = nil // the store truncated a torn tail itself
		}
	} else {
		_, err = io.Copy(dst, src)
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	return err
}

// measureRecovery builds a directory whose write-ahead log holds the
// dataset and recoveryStatements writes with checkpoints disabled, then
// times five times from OpenOptions to the first correct consistent answer.
func measureRecovery(c config, ds *dataset, dir string) (float64, tally, error) {
	var t tally
	statements := recoveryStatements
	if c.short {
		statements /= 50
	}
	m := newModel(ds, 1)
	db, err := hippo.OpenOptions(hippo.Options{Dir: dir, NoSync: true, CheckpointBytes: -1})
	if err != nil {
		return 0, t, err
	}
	if err := load(db, ds); err != nil {
		return 0, t, err
	}
	st := newStream("mixed_rw_durable", ds.dims, c.seed, 0, 1)
	var batch []string
	for n := 0; n < statements; n++ {
		w := st.recoveryWrite(n)
		m.apply(0, w)
		if batch = append(batch, w.sql()); len(batch) == 64 {
			if _, err := db.ExecBatch(batch...); err != nil {
				return 0, t, err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := db.ExecBatch(batch...); err != nil {
			return 0, t, err
		}
	}
	if err := db.Close(); err != nil {
		return 0, t, err
	}
	want := m.answer(qFullOf())
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		db, err := hippo.OpenOptions(hippo.Options{Dir: dir, CheckpointBytes: -1})
		if err != nil {
			return 0, t, err
		}
		got, err := (&embedded{db: db}).consistent(qFullOf())
		d := time.Since(t0)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, t, err
		}
		t.check("answers after recovery", got, want)
		times = append(times, d.Seconds())
	}
	return median(times), t, nil
}
