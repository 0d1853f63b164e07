package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hippo/internal/core"
	"hippo/internal/wal"
	"hippo/internal/workload"
)

// E19MaintenancePlane measures the two async-maintenance mechanisms of
// the write path. Part 1: group-commit fsync — the identical batch-1
// update stream applied by 1/4/8 concurrent committers against an
// in-memory and a fsync-on-commit logged system; concurrent committers
// share group fsyncs (the recorded fsync count is the witness), so the
// logged/in-memory gap must shrink as committers rise. Part 2: parallel
// WAL replay — recovery of one long multi-table WAL at 1 worker versus
// GOMAXPROCS, with the recovered hypergraph fingerprints asserted
// identical in-harness.
func E19MaintenancePlane(sc Scale) (Table, error) {
	n := sc.N
	updates := 512
	if sc.Reps > 1 {
		updates *= sc.Reps
	}
	t := Table{
		ID: "E19",
		Title: fmt.Sprintf("Async maintenance plane: group commit, parallel replay (n=%d, %d updates)",
			n, updates),
		Header: []string{"part", "configuration", "total ms", "throughput", "ratio"},
		Notes: "Part 1 ratios are logged/in-memory at batch size 1 (every statement pays a durability " +
			"barrier); group commit lets concurrent committers share one fsync, so the ratio must fall " +
			"as committers rise. Part 2 replays one long WAL sequentially and with GOMAXPROCS " +
			"workers; recovered states are asserted identical. On a single-core runner both ratios " +
			"understate the mechanism: groups only form while a committer is parked in fsync I/O-wait " +
			"(a near-free page-cache fsync leaves no window) and replay workers share one CPU. The " +
			"fsync count is the portable witness — any count below the statement count proves commits " +
			"coalesced into shared barriers.",
	}

	// Part 1: concurrent batch-1 committers, in-memory vs logged. The
	// fsync count is the scheduling-independent witness that commits
	// coalesced: fewer fsyncs than statements means groups formed.
	memBase := make(map[int]time.Duration)
	for _, regime := range []string{"in-memory", "logged"} {
		for _, committers := range []int{1, 4, 8} {
			sys, cleanup, syncs, err := e19System(regime, n)
			if err != nil {
				return t, err
			}
			base := syncs.Load()
			elapsed, err := e19CommitStream(sys, n, updates, committers)
			grouped := syncs.Load() - base
			cleanup()
			if err != nil {
				return t, err
			}
			ratio := "1.0x"
			thr := fmt.Sprintf("%.0f stmts/s", float64(updates)/elapsed.Seconds())
			if regime == "in-memory" {
				memBase[committers] = elapsed
			} else {
				if memElapsed := memBase[committers]; memElapsed > 0 {
					r := float64(elapsed) / float64(memElapsed)
					ratio = fmt.Sprintf("%.2fx", r)
					t.Notes += fmt.Sprintf(" Measured: logged batch-1 with %d committer(s) costs %.2fx in-memory (%d fsyncs for %d statements).",
						committers, r, grouped, updates)
				}
				thr += fmt.Sprintf(", %d fsyncs", grouped)
				if committers > 1 && grouped >= int64(updates) {
					return t, fmt.Errorf("e19: %d committers issued %d fsyncs for %d statements — no group ever formed",
						committers, grouped, updates)
				}
			}
			t.Rows = append(t.Rows, []string{
				"group commit", fmt.Sprintf("%s, %d committer(s)", regime, committers),
				ms(elapsed), thr, ratio,
			})
		}
	}

	// Part 2: parallel replay of one long multi-table WAL.
	dir, err := os.MkdirTemp("", "hippo-e19-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	if err := e19BuildWAL(dir, n, updates); err != nil {
		return t, err
	}
	var seqElapsed time.Duration
	var seqFPs []uint64
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // exercise the pooled path even on one CPU
	}
	for _, w := range []int{1, workers} {
		start := time.Now()
		rec, err := core.OpenDurable(core.DurableOptions{
			Dir: dir, NoSync: true, CheckpointBytes: -1, ReplayWorkers: w,
		})
		if err != nil {
			return t, fmt.Errorf("e19: replay with %d workers: %w", w, err)
		}
		elapsed := time.Since(start)
		fps := e19Fingerprints(rec)
		rec.Close()
		ratio := "1.0x"
		if w == 1 {
			seqElapsed, seqFPs = elapsed, fps
		} else {
			if fmt.Sprint(fps) != fmt.Sprint(seqFPs) {
				return t, fmt.Errorf("e19: parallel replay diverged: fingerprints %v vs %v", fps, seqFPs)
			}
			if seqElapsed > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(elapsed)/float64(seqElapsed))
			}
		}
		t.Rows = append(t.Rows, []string{
			"parallel replay", fmt.Sprintf("%d worker(s)", w), ms(elapsed), "—", ratio,
		})
	}
	return t, nil
}

// countingSyncer counts durability barriers through the WrapSyncer hook.
type countingSyncer struct {
	under wal.Syncer
	syncs *atomic.Int64
}

func (c *countingSyncer) Write(p []byte) (int, error) { return c.under.Write(p) }
func (c *countingSyncer) Sync() error                 { c.syncs.Add(1); return c.under.Sync() }
func (c *countingSyncer) Close() error                { return c.under.Close() }

// e19System builds the benchmark instance for one regime with an fsync
// counter attached to every durable sink (zero for in-memory).
func e19System(regime string, n int) (*core.System, func(), *atomic.Int64, error) {
	syncs := new(atomic.Int64)
	if regime == "in-memory" {
		sys, cleanup, err := e14System(regime, n)
		return sys, cleanup, syncs, err
	}
	dir, err := os.MkdirTemp("", "hippo-e19-")
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := core.OpenDurable(core.DurableOptions{
		Dir: dir, CheckpointBytes: -1,
		WrapSyncer: func(_ string, s wal.Syncer) wal.Syncer {
			return &countingSyncer{under: s, syncs: syncs}
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	if err := e14Load(sys, n); err != nil {
		sys.Close()
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	return sys, func() { sys.Close(); os.RemoveAll(dir) }, syncs, nil
}

// e19CommitStream applies a batch-1 update stream split across committers
// goroutines and returns the wall time for the whole stream.
func e19CommitStream(sys *core.System, n, updates, committers int) (time.Duration, error) {
	stmts := workload.UpdateMix(n, updates, 47)
	var wg sync.WaitGroup
	errs := make([]error, committers)
	start := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			db := sys.DB()
			for i := c; i < len(stmts); i += committers {
				if _, _, err := db.Exec(stmts[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// e19BuildWAL writes a checkpoint-free multi-table history so recovery
// has table-disjoint batch runs to replay in parallel.
func e19BuildWAL(dir string, n, updates int) error {
	sys, err := core.OpenDurable(core.DurableOptions{Dir: dir, NoSync: true, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := e14Load(sys, n); err != nil {
		return err
	}
	db := sys.DB()
	const tables = 4
	for i := 0; i < tables; i++ {
		if _, _, err := db.Exec(fmt.Sprintf("CREATE TABLE side%d (k INT, v INT)", i)); err != nil {
			return err
		}
	}
	for i := 0; i < updates*2; i++ {
		if _, _, err := db.Exec(fmt.Sprintf("INSERT INTO side%d VALUES (%d, %d)", i%tables, i, i*3)); err != nil {
			return err
		}
	}
	for _, q := range workload.UpdateMix(n, updates, 53) {
		if _, _, err := db.Exec(q); err != nil {
			return err
		}
	}
	return nil
}

// e19Fingerprints captures the recovered hypergraph's sorted component
// fingerprints — the equality witness for replay-worker independence.
func e19Fingerprints(sys *core.System) []uint64 {
	var fps []uint64
	for _, c := range sys.Hypergraph().Components() {
		fps = append(fps, c.FP)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return fps
}
