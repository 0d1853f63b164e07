package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload names, in the order -all runs them.
var workloadNames = []string{"certify_cold", "certify_hot", "rewrite_scan", "mixed_rw_durable", "serve_http"}

type opKind uint8

const (
	opCQ    opKind = iota // consistent query
	opAgg                 // ConsistentAggregate
	opExec                // one Exec per write
	opBatch               // one ExecBatch over all writes
)

// op is one operation of a client's stream.
type op struct {
	client     int // whose stream the op belongs to
	kind       opKind
	class      string // reporting class
	q          *query
	writes     []write
	afterWrite bool // first consistent query after the client's own writes
}

// text renders an op for the determinism tests and the trace.
func (o op) text() string {
	switch o.kind {
	case opCQ:
		return "cq " + o.q.sql
	case opAgg:
		return fmt.Sprintf("agg %d %s", o.q.fn, o.q.sql)
	}
	stmts := make([]string, len(o.writes))
	for i, w := range o.writes {
		stmts[i] = w.sql()
	}
	verb := "exec "
	if o.kind == opBatch {
		verb = "batch "
	}
	return verb + strings.Join(stmts, "; ")
}

// stream yields a client's ops. Every choice comes from the client's own
// generator, seeded seed+client, so a stream depends on nothing else.
type stream struct {
	d      dims
	client int
	rng    *rand.Rand
	queue  []op
	refill func(*stream)
	seq    int // statements written so far; names and fresh ids derive from it
	live   []int
}

func (s *stream) next() op {
	if len(s.queue) == 0 {
		s.refill(s)
	}
	o := s.queue[0]
	s.queue = s.queue[1:]
	o.client = s.client
	return o
}

func newStream(workload string, d dims, seed int64, client, clients int) *stream {
	s := &stream{d: d, client: client, rng: rand.New(rand.NewSource(seed + int64(client)))}
	switch workload {
	case "certify_cold":
		pool := coldPool(d)
		s.refill = func(s *stream) { s.shuffled(pool) }
	case "certify_hot":
		pool := hotPool(d)
		s.refill = func(s *stream) { s.shuffled(pool) }
	case "rewrite_scan":
		s.refill = func(s *stream) { s.scanBlock(false) }
	case "serve_http":
		s.refill = func(s *stream) { s.scanBlock(true) }
	case "mixed_rw_durable":
		s.refill = func(s *stream) { s.mixedBlock(clients) }
	default:
		panic("unknown workload " + workload)
	}
	return s
}

// shuffled queues one pass over pool in random order, so every window holds
// each parameterisation in the same share whatever the seed.
func (s *stream) shuffled(pool []op) {
	for _, i := range s.rng.Perm(len(pool)) {
		s.queue = append(s.queue, pool[i])
	}
}

func cq(class string, q *query) op { return op{kind: opCQ, class: class, q: q} }

// coldPool is certify_cold's 256 prover-tier parameterisations, each over a
// quarter of the ids: 160 unions, 48 differences, 24 self-joins and 24
// hybrid emp-aud joins, about 900,000 (query, candidate) verdicts against
// the verdict cache's 65,536 entries. The grid is fixed; the seed only
// orders the draws. Unions are 5/8 of the ops and the slowest class, so p50
// and p95 both fall inside it.
func coldPool(d dims) []op {
	var pool []op
	for w := 0; w < 16; w++ {
		lo := w * d.ids / 20
		hi := lo + d.ids/4
		for i := 0; i < 10; i++ {
			below := 50000 + 4000*i + 250*w
			pool = append(pool, cq("union", qUnionIn(lo, hi, below, below+20000+5000*(i%4))))
		}
		for i := 0; i < 3; i++ {
			pool = append(pool, cq("except", qExceptIn(lo, hi, d.depts*(40+16*i+w)/100, 90000+10000*i)))
		}
	}
	for i := 0; i < 24; i++ {
		lo := i * d.ids / 27
		pool = append(pool, cq("selfjoin", qSelfJoinOf(lo, lo+d.ids/10)))
		lo = i * d.aud / 48
		pool = append(pool, cq("hybrid", qHybridOf(lo, lo+d.aud/2)))
	}
	return pool
}

// hotPool is certify_hot's two parameterisations: unions covering the whole
// table, 2 x 21,200 verdicts, which fit the verdict cache. Both have the same
// candidate count so the latency distribution has one mode.
func hotPool(d dims) []op {
	return []op{
		cq("union", qUnionOf(80000, 80000)),
		cq("union", qUnionOf(100000, 100000)),
	}
}

// scanBlock queues 20 rewrite-tier reads in random order: 6 point, 7 range,
// 3 half-table selections, 2 emp-dept joins, 2 aggregates. The HTTP variant
// has no aggregate endpoint, so it selects the rows the aggregate ranges
// over, and it appends one write (5 % of the reads) that no read can see.
func (s *stream) scanBlock(http bool) {
	d, rng := s.d, s.rng
	var block []op
	for i := 0; i < 6; i++ {
		block = append(block, cq("point", qPointOf(rng.Intn(d.ids))))
	}
	for i := 0; i < 7; i++ {
		lo := rng.Intn(d.ids - d.ids/100)
		block = append(block, cq("range", qRangeOf(lo, lo+d.ids/100)))
	}
	for i := 0; i < 3; i++ {
		block = append(block, cq("select", qSelectOf(85000+rng.Intn(10000))))
	}
	for i := 0; i < 2; i++ {
		lo := rng.Intn(d.ids - d.ids/10)
		block = append(block, cq("join", qJoinOf(lo, lo+d.ids/10)))
	}
	for i := 0; i < 2; i++ {
		fn, dept := aggFn(rng.Intn(3)), rng.Intn(d.depts)
		if http {
			block = append(block, cq("agg", qDeptSelectOf(dept)))
		} else {
			block = append(block, op{kind: opAgg, class: "agg", q: qAggOf(fn, dept)})
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	s.queue = append(s.queue, block...)
	if http {
		s.queue = append(s.queue, op{kind: opExec, class: "write", writes: []write{s.hiddenWrite()}})
	}
}

// hiddenWrite creates, collides with or deletes an id of the client's own,
// above every id a read touches, with a salary and a dept no read selects:
// the write pays the whole maintenance path and every read stays checkable
// against the static model.
func (s *stream) hiddenWrite() write {
	s.seq++
	switch k := s.rng.Intn(4); {
	case k == 0 && len(s.live) > 0: // collide: a second salary on a live id
		id := s.live[s.rng.Intn(len(s.live))]
		return write{row: empRow{id, s.name("c"), s.d.depts, 2 + s.seq}}
	case k == 1 && len(s.live) > 8: // delete the oldest live id
		id := s.live[0]
		s.live = s.live[1:]
		return write{del: true, id: id}
	}
	id := s.freshID()
	s.live = append(s.live, id)
	return write{row: empRow{id, s.name("f"), s.d.depts, 1}}
}

func (s *stream) name(prefix string) string { return fmt.Sprintf("%s%d.%d", prefix, s.client, s.seq) }

// freshID returns an id no other statement of any client uses.
func (s *stream) freshID() int { return 2*s.d.ids + 8*s.seq + s.client }

// burstSizes is the single-statement bursts of one block of mixed_rw_durable
// iterations; a block also holds as many 16-statement batches.
var burstSizes = []int{1, 4, 8, 12, 16, 20, 26, 32}

// mixedBlock queues 16 loops of mixed_rw_durable in random order, 8 that
// write a burst and 8 that write a batch. A loop is the client's writes, all
// inside a 64-id window of the client's own quarter of the ids, then a
// consistent query over that window, then two reads in the upper half of the
// ids, which nobody writes: one rewrite-tier range and one prover-tier
// union. The four statement kinds take turns, so every window of the run
// holds them in the same shares whatever the seed; a DELETE costs 300 times
// an INSERT.
func (s *stream) mixedBlock(clients int) {
	sizes := append(make([]int, len(burstSizes)), burstSizes...) // 0: a batch
	s.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for _, n := range sizes {
		s.mixedIteration(clients, n)
	}
}

func (s *stream) mixedIteration(clients, burst int) {
	d, rng := s.d, s.rng
	part := d.ids / 2 / clients
	width := min(64, part)
	base := s.client*part + rng.Intn(part-width+1)
	pick := func() int { return base + rng.Intn(width) }
	stmt := func() []write {
		s.seq++
		switch s.seq % 4 {
		case 0: // colliding insert: another salary on an id of the window
			id := pick()
			return []write{{row: empRow{id, s.name("c"), id % d.depts, 90000 + rng.Intn(30000)}}}
		case 1: // fresh insert
			id := s.freshID()
			return []write{{row: empRow{id, s.name("f"), id % d.depts, salaryLo + rng.Intn(30000)}}}
		case 2: // whole-id delete
			return []write{{del: true, id: pick()}}
		default: // transient pair
			id := s.freshID() + 4
			return []write{{row: empRow{id, s.name("t"), 0, 1}}, {del: true, id: id}}
		}
	}
	if burst > 0 {
		for n := 0; n < burst; n++ {
			for _, w := range stmt() {
				s.queue = append(s.queue, op{kind: opExec, class: "write", writes: []write{w}})
			}
		}
	} else {
		var ws []write
		for len(ws) < 16 {
			ws = append(ws, stmt()...)
		}
		s.queue = append(s.queue, op{kind: opBatch, class: "write", writes: ws[:16]})
	}
	after := cq("after_write", qRangeOf(base, base+width))
	after.afterWrite = true
	lo := d.ids/2 + rng.Intn(d.ids/2-d.ids/100)
	lo2 := d.ids/2 + rng.Intn(d.ids/2-d.ids/100)
	s.queue = append(s.queue, after,
		cq("range", qRangeOf(lo, lo+d.ids/100)),
		cq("union", qUnionRangeOf(lo2, lo2+d.ids/200, lo2+d.ids/100)))
}

// recoveryWrite is statement n of the log recovery_s replays: colliding and
// fresh inserts in equal shares and, every 40th, a whole-id delete. A DELETE
// scans the table, so more of them would make building the log, which every
// run of mixed_rw_durable repeats, longer than the run's timed window.
func (s *stream) recoveryWrite(n int) write {
	s.seq++
	id := s.rng.Intn(s.d.ids / 2)
	switch {
	case n%40 == 39:
		return write{del: true, id: id}
	case n%2 == 0:
		return write{row: empRow{id, s.name("c"), id % s.d.depts, 90000 + s.rng.Intn(30000)}}
	}
	id = s.freshID()
	return write{row: empRow{id, s.name("f"), id % s.d.depts, salaryLo + s.rng.Intn(30000)}}
}
