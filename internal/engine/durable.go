package engine

import (
	"errors"
	"fmt"
	"strings"

	"hippo/internal/schema"
	"hippo/internal/storage"
	"hippo/internal/value"
)

// CommitLog is the engine's durability hook: when attached, every commit
// is appended — and synced — before its change feed reaches any listener
// or its DDL notification fires, with delivery always under the write
// sequencer. A batch is therefore atomic on disk exactly when it is
// atomic in published views, and an append failure turns into an error on
// the write call (with the in-memory effects rolled back) rather than a
// silent loss of durability. The append and its fsync run under the
// write sequencer, so log order is commit order. internal/wal.Store
// implements it.
type CommitLog interface {
	// AppendBatch durably logs one committed atomic batch: the coalesced
	// change feed of a group commit or of a single DML statement.
	AppendBatch(feed []storage.TableChange) error
	// AppendDDL durably logs one schema statement as re-parseable SQL.
	AppendDDL(stmt string) error
}

// SetCommitLog attaches (or, with nil, detaches) the durability hook. It
// waits for in-flight writes, so recovery can replay into the database
// and only then start logging new commits.
func (db *DB) SetCommitLog(l CommitLog) {
	db.wseq.Lock()
	defer db.wseq.Unlock()
	db.clog = l
}

// AdoptTable registers a checkpoint-restored table. Recovery-only: the
// caller guarantees no listener or commit log is attached yet, so adoption
// is silent.
func (db *DB) AdoptTable(t *storage.Table) error {
	db.wseq.Lock()
	defer db.wseq.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(t.Name())
	if _, ok := db.tables[key]; ok {
		return fmt.Errorf("engine: table %q already exists", t.Name())
	}
	db.tables[key] = t
	return nil
}

// createTableSQL renders the re-parseable DDL the commit log records for a
// table registration.
func createTableSQL(name string, s schema.Schema) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(name)
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(typeName(c.Type))
	}
	b.WriteByte(')')
	return b.String()
}

// typeName maps a value kind to SQL type text schema.ParseType accepts.
func typeName(k value.Kind) string {
	if k == value.KindNull {
		return "INT" // untyped columns cannot arise from parsed DDL
	}
	return k.String()
}

// execLogged runs one DML statement in capture mode, durably logs the
// captured changes as a single atomic record (when a log is attached), and
// only then delivers them to listeners as one batch. Every INSERT and
// DELETE commits here, in-memory or durable. Partial effects of a failing
// statement are logged and delivered too — mirroring exactly what the
// in-memory tables now hold — but if the log itself fails, the statement's
// effects are rolled back and the write reports the durability error. The
// statement and its commit run under one hold of the write sequencer.
func (db *DB) execLogged(run func(feed *[]storage.TableChange) (int, error)) (int, error) {
	db.wseq.Lock()
	defer db.wseq.Unlock()
	var feed []storage.TableChange
	n, runErr := run(&feed)
	if err := db.commitLogged(feed, feed); err != nil {
		// Surface both failures: the durability error (nothing committed)
		// and, when the statement itself also failed, its own error.
		return 0, errors.Join(err, runErr)
	}
	return n, runErr
}

// commitLogged is the shared commit point of every DML write path:
// durably append the coalesced changes (when a log is attached), then —
// and only then — deliver them to listeners. A commit that leaves no
// change (a statement that matched no row, or a batch whose every insert
// it also deleted) is neither logged nor delivered. On append failure the
// raw feed is rolled back (inserted rows re-tombstoned, deleted rows
// resurrected) so the in-memory state matches the log: the commit never
// happened anywhere. The caller holds the write sequencer.
func (db *DB) commitLogged(feed, coalesced []storage.TableChange) error {
	if len(coalesced) == 0 {
		return nil
	}
	if db.clog != nil {
		if err := db.clog.AppendBatch(coalesced); err != nil {
			if rbErr := db.rollbackFrozen(feed); rbErr != nil {
				db.notifySchema("commit log rollback failure")
				err = fmt.Errorf("%w (rollback incomplete, derived state rebuilt: %v)", err, rbErr)
			}
			return fmt.Errorf("engine: commit log append: %w", err)
		}
	}
	db.notifyBatch(coalesced)
	return nil
}

// logDDL appends a schema statement to the commit log if one is attached.
func (db *DB) logDDL(stmt string) error {
	if db.clog == nil {
		return nil
	}
	if err := db.clog.AppendDDL(stmt); err != nil {
		return fmt.Errorf("engine: commit log append: %w", err)
	}
	return nil
}
