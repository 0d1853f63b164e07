package engine

import (
	"fmt"

	"hippo/internal/storage"
)

// Async commit pipeline. With a group-commit log attached, a DML commit
// splits in two: the mutation, capture, and WAL enqueue happen under the
// write sequencer (fixing commit order == WAL order), but the wait for
// the group's fsync and the change-feed delivery happen OUTSIDE it, on a
// single commit-worker goroutine that processes commits strictly in
// enqueue order. Releasing the sequencer before the fsync wait is what
// lets concurrent committers coalesce into one group fsync — under the
// old inline path the sequencer serialized the fsyncs themselves, so
// every committer paid a full disk round-trip.
//
// The invariants the inline path provided are preserved:
//
//   - Durable before visible (in views): a commit's change feed is
//     delivered only after its ticket resolves, i.e. after its group's
//     fsync returned. FreezeWrites drains the pipeline, so a published
//     snapshot never contains a commit whose deltas (or durability) are
//     still in flight.
//   - Delivery order == commit order: the single worker resolves tickets
//     and delivers batches FIFO, under the sequencer.
//   - Failure atomicity: if a ticket fails, the store is sticky-failed
//     and every later queued commit fails with it. The worker takes the
//     sequencer, rolls back ALL queued commits in reverse commit order
//     (they may stack on each other's rows), and acks each committer
//     with its error — exactly the old "the commit never happened
//     anywhere" contract, extended to the whole stack.
type pendingCommit struct {
	feed      []storage.TableChange // raw feed, for rollback
	coalesced []storage.TableChange // what was logged and gets delivered
	ticket    CommitTicket
	done      chan error // buffered; the committer blocks on it
}

// CommitTicket is a pending durability acknowledgement: Wait blocks until
// the enqueued record's group fsync resolves. wal.Ticket implements it.
type CommitTicket interface {
	Wait() error
}

// GroupCommitLog is the optional CommitLog extension the async pipeline
// needs: an append that can be enqueued under the write sequencer and
// waited on outside it. wal.Store implements it; a plain CommitLog falls
// back to the inline synchronous commit path.
type GroupCommitLog interface {
	CommitLog
	BeginAppendBatch(feed []storage.TableChange) CommitTicket
}

// lockExclusive acquires the write sequencer with the commit pipeline
// drained: no commit is awaiting its fsync or its delivery. This is the
// barrier DDL, snapshots (FreezeWrites), and SetCommitLog need — a plain
// wseq.Lock would let them run between a commit's mutation and its
// delivery. Ordinary DML needs only wseq.Lock: commits ahead of it in the
// pipeline have already mutated the tables it builds on.
func (db *DB) lockExclusive() {
	for {
		db.wseq.Lock()
		db.cmu.Lock()
		n := db.cinflight
		db.cmu.Unlock()
		if n == 0 {
			return // wseq held, pipeline empty — and it stays empty: enqueue needs wseq
		}
		// The worker needs wseq to deliver; release it and wait for the
		// drain, then race for the sequencer again.
		db.wseq.Unlock()
		db.cmu.Lock()
		for db.cinflight > 0 {
			db.ccond.Wait()
		}
		db.cmu.Unlock()
	}
}

// commitRelease is the commit point of every logged DML path: the caller
// holds the write sequencer with feed already applied to the tables, and
// commitRelease ALWAYS releases the sequencer before returning. With a
// group-commit log the commit is enqueued (to the WAL and to the
// pipeline, in that order, both under the sequencer) and the committer
// waits for the worker's ack outside the sequencer. Otherwise it falls
// back to the inline synchronous path.
func (db *DB) commitRelease(feed, coalesced []storage.TableChange) error {
	gcl, ok := db.clog.(GroupCommitLog)
	if !ok || len(coalesced) == 0 {
		err := db.commitLogged(feed, coalesced)
		db.wseq.Unlock()
		return err
	}
	pc := &pendingCommit{
		feed:      feed,
		coalesced: coalesced,
		ticket:    gcl.BeginAppendBatch(coalesced),
		done:      make(chan error, 1),
	}
	db.cmu.Lock()
	db.ensureWorkerLocked()
	db.cqueue = append(db.cqueue, pc)
	db.cinflight++
	db.ccond.Broadcast()
	db.cmu.Unlock()
	db.wseq.Unlock()
	if err := <-pc.done; err != nil {
		return fmt.Errorf("engine: commit log append: %w", err)
	}
	return nil
}

// ensureWorkerLocked starts the commit worker if it is not running; the
// caller holds cmu. The worker lives while a commit log is attached and
// is stopped by SetCommitLog(nil) — which core.Close calls — so durable
// databases shed the goroutine on shutdown.
func (db *DB) ensureWorkerLocked() {
	if db.cworker {
		return
	}
	db.cworker = true
	db.cstop = false
	db.cdone = make(chan struct{})
	go db.commitWorker(db.cdone)
}

// stopCommitWorker signals the worker and waits for it to exit. The
// caller holds the write sequencer exclusively (pipeline drained), so the
// worker is parked on its condition variable.
func (db *DB) stopCommitWorker() {
	db.cmu.Lock()
	if !db.cworker {
		db.cmu.Unlock()
		return
	}
	db.cstop = true
	db.ccond.Broadcast()
	done := db.cdone
	db.cmu.Unlock()
	<-done
}

// commitWorker resolves pipeline commits strictly FIFO: wait for the
// group fsync, deliver the change feed under the write sequencer, ack the
// committer. One worker per DB — ordering is the point.
func (db *DB) commitWorker(done chan struct{}) {
	defer close(done)
	for {
		db.cmu.Lock()
		for len(db.cqueue) == 0 && !db.cstop {
			db.ccond.Wait()
		}
		if len(db.cqueue) == 0 {
			db.cworker = false
			db.cmu.Unlock()
			return
		}
		pc := db.cqueue[0]
		db.cqueue = db.cqueue[1:]
		db.cmu.Unlock()

		if err := pc.ticket.Wait(); err != nil {
			db.failCommits(pc, err)
			continue
		}
		db.wseq.Lock()
		db.notifyBatch(pc.coalesced)
		db.wseq.Unlock()
		pc.done <- nil
		db.cmu.Lock()
		db.cinflight--
		db.ccond.Broadcast()
		db.cmu.Unlock()
	}
}

// failCommits unwinds the pipeline after first's group commit failed.
// Under the sequencer (so no new commit can stack on the doomed state) it
// fails every queued commit — the WAL is sticky-failed, so their tickets
// cannot succeed; appends are FIFO, so nothing after a failed group is on
// disk — rolls all of them back in reverse commit order, and acks each
// committer with its error.
func (db *DB) failCommits(first *pendingCommit, err error) {
	db.wseq.Lock()
	db.cmu.Lock()
	entries := append([]*pendingCommit{first}, db.cqueue...)
	db.cqueue = nil
	db.cmu.Unlock()

	errs := make([]error, len(entries))
	errs[0] = err
	for i := 1; i < len(entries); i++ {
		if errs[i] = entries[i].ticket.Wait(); errs[i] == nil {
			// Unreachable with a sticky-failing FIFO log; never let a
			// commit report success when state it stacked on rolled back.
			errs[i] = fmt.Errorf("aborted: earlier group commit failed: %w", err)
		}
	}
	var rbErr error
	for i := len(entries) - 1; i >= 0; i-- {
		if e := db.rollbackFrozen(entries[i].feed); e != nil && rbErr == nil {
			rbErr = e
		}
	}
	if rbErr != nil {
		db.notifySchema("commit log rollback failure")
	}
	for i, pc := range entries {
		e := errs[i]
		if rbErr != nil {
			e = fmt.Errorf("%w (rollback incomplete, derived state rebuilt: %v)", e, rbErr)
		}
		pc.done <- e
	}
	db.cmu.Lock()
	db.cinflight -= len(entries)
	db.ccond.Broadcast()
	db.cmu.Unlock()
	db.wseq.Unlock()
}
