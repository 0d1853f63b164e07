package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hippo/internal/constraint"
	"hippo/internal/storage"
)

// Options tune a Store.
type Options struct {
	// NoSync skips the per-commit fsync: commits survive a process crash
	// (the OS page cache holds them) but not an OS crash or power loss.
	NoSync bool
	// WrapSyncer, when set, wraps every file the store opens for writing —
	// WAL segments and checkpoint temporaries. Fault-injection tests use it
	// to cut writes after a byte budget; see CrashInjector.
	WrapSyncer func(name string, s Syncer) Syncer
}

// Recovered is what Open found on disk: the newest intact checkpoint (nil
// for a fresh or checkpoint-less directory) and every WAL record committed
// after it, in commit order. Truncated reports that a torn trailing record
// — the residue of a crash mid-append — was dropped from the live segment.
type Recovered struct {
	Checkpoint *Checkpoint
	Records    []Record
	Truncated  bool
}

// Store manages the durability directory: the live WAL segment it appends
// commits to, plus the checkpoint/rotation protocol. Files are named
//
//	wal-%016x.log        WAL segment with that sequence number
//	checkpoint-%016x.ckpt  checkpoint covering all segments before that seq
//
// Append methods are safe for concurrent use: each append writes and
// fsyncs its record under the store lock, so log order is call order.
// Rotate and WriteCheckpoint are driven by the engine's checkpointer
// under its own serialization.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	seq      uint64   // live segment sequence
	seg      Syncer   // live segment sink (nil after Close)
	lock     *os.File // flock-held LOCK file guarding single-writer access
	segBytes int64    // durable length: advances only after an append's fsync
	failed   error    // sticky: set after a torn append, fails all later commits

	// prepared is the pre-created next segment (see PrepareRotation): the
	// checkpointer pays the file creation and its fsyncs before taking the
	// engine write freeze, so Rotate under the freeze is a pointer swap.
	prepared *preparedSegment
}

// preparedSegment is a created-and-synced segment awaiting Rotate.
type preparedSegment struct {
	seq  uint64
	sink Syncer
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }

func ckptName(seq uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// Open opens (or initializes) a durability directory and recovers its
// contents: the newest checkpoint is decoded, WAL segments at or after its
// sequence are replayed in order, a torn tail on the live segment is
// truncated away, and the live segment is reopened for appending.
// Corruption anywhere — a damaged checkpoint, a checksum-failed record, a
// torn record that is not at the very end of the log — aborts with an
// error matching ErrCorrupt: the store never guesses past damage.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Single-writer guard: two processes appending to one log would
	// interleave frames and corrupt it. The lock dies with its holder, so
	// a crashed process never blocks recovery (see lock_unix.go).
	lock, err := lockDir(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, nil, err
	}
	st, rec, err := openLocked(dir, opts)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	st.lock = lock
	return st, rec, nil
}

// openLocked performs the recovery scan and opens the live segment; the
// caller holds the directory flock.
func openLocked(dir string, opts Options) (*Store, *Recovered, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segSeqs, ckptSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A crashed checkpoint write; it was never renamed into place,
			// so it holds nothing committed.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segSeqs = append(segSeqs, seq)
		}
		if seq, ok := parseSeq(name, ckptPrefix, ckptSuffix); ok {
			ckptSeqs = append(ckptSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] < ckptSeqs[j] })

	rec := &Recovered{}
	var base uint64 // replay segments with seq ≥ base
	if n := len(ckptSeqs); n > 0 {
		base = ckptSeqs[n-1]
		path := filepath.Join(dir, ckptName(base))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		ck, err := DecodeCheckpoint(data, path)
		if err != nil {
			return nil, nil, err
		}
		// The encoded sequence must agree with the filename the replay
		// base is derived from; a mislabeled checkpoint would silently
		// shift the base and skip committed records.
		if ck.Seq != base {
			return nil, nil, &CorruptError{Path: path,
				Reason: fmt.Sprintf("checkpoint encodes sequence %d, file named %d", ck.Seq, base)}
		}
		rec.Checkpoint = ck
	}

	live := base
	if live == 0 {
		live = 1
	}
	replay := segSeqs[:0:0]
	for _, s := range segSeqs {
		if s >= base {
			replay = append(replay, s)
		}
	}
	// Segments must run contiguously from the recovery start — the
	// checkpoint's sequence (rotation creates that segment before the
	// checkpoint can exist), or segment 1 for a checkpoint-less log. A
	// missing segment means committed records are gone: damage, not a tail.
	if len(replay) > 0 && replay[0] != live {
		return nil, nil, &CorruptError{Path: dir,
			Reason: fmt.Sprintf("first WAL segment is %d, expected %d", replay[0], live)}
	}
	if rec.Checkpoint != nil && len(replay) == 0 {
		return nil, nil, &CorruptError{Path: dir,
			Reason: fmt.Sprintf("checkpoint %d present but its WAL segment is missing", base)}
	}
	// Phase 1: parse every candidate segment. Damage classification needs
	// the whole picture — a torn tail is judged against what FOLLOWS it.
	type segScan struct {
		seq     uint64
		path    string
		recs    []Record
		goodLen int64
		err     error
	}
	scans := make([]segScan, 0, len(replay))
	for i, s := range replay {
		if i > 0 && s != replay[i-1]+1 {
			return nil, nil, &CorruptError{Path: dir,
				Reason: fmt.Sprintf("missing WAL segment between %d and %d", replay[i-1], s)}
		}
		path := filepath.Join(dir, segName(s))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		seq, recs, goodLen, rerr := ReadSegment(data, path)
		if rerr == nil && seq != s {
			rerr = &CorruptError{Path: path,
				Reason: fmt.Sprintf("segment header sequence %d, file named %d", seq, s)}
		}
		scans = append(scans, segScan{seq: s, path: path, recs: recs, goodLen: goodLen, err: rerr})
	}

	// Phase 2: accept records up to the first damage. Torn damage is crash
	// residue — recoverable by truncation — if and only if no record was
	// ever committed after it: every later segment must be record-free.
	// (Rotation runs under the engine write freeze, so a crash mid-append
	// can legitimately leave a torn segment followed by the header-only
	// next segment PrepareRotation pre-created — but never by committed
	// records.) Record-free later segments are deleted with the tear; any
	// other shape is corruption the store must not guess past.
	for i, sc := range scans {
		if sc.err == nil {
			rec.Records = append(rec.Records, sc.recs...)
			live = sc.seq
			continue
		}
		var ce *CorruptError
		if !errors.As(sc.err, &ce) || !ce.Torn {
			return nil, nil, sc.err
		}
		for _, later := range scans[i+1:] {
			if len(later.recs) > 0 {
				return nil, nil, sc.err
			}
		}
		if err := os.Truncate(sc.path, sc.goodLen); err != nil {
			return nil, nil, err
		}
		for _, later := range scans[i+1:] {
			os.Remove(later.path)
		}
		rec.Records = append(rec.Records, sc.recs...)
		rec.Truncated = true
		live = sc.seq
		break
	}

	// Reclaim segments and checkpoints the newest checkpoint superseded
	// (left over from a crash between checkpoint write and cleanup).
	for _, s := range segSeqs {
		if s < base {
			os.Remove(filepath.Join(dir, segName(s)))
		}
	}
	for _, s := range ckptSeqs {
		if s < base {
			os.Remove(filepath.Join(dir, ckptName(s)))
		}
	}

	st := &Store{dir: dir, opts: opts}
	if err := st.openSegment(live); err != nil {
		return nil, nil, err
	}
	return st, rec, nil
}

// createSegment creates segment seq fresh — truncating any leftover from
// a crashed PrepareRotation, which can only ever be header-only — writes
// and syncs its header, and syncs the directory entry so the new file
// survives power loss.
func (s *Store) createSegment(seq uint64) (Syncer, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var sink Syncer = f
	if s.opts.WrapSyncer != nil {
		sink = s.opts.WrapSyncer(segName(seq), sink)
	}
	if _, err := sink.Write(segmentHeader(seq)); err != nil {
		sink.Close()
		return nil, err
	}
	if err := s.sync(sink); err != nil {
		sink.Close()
		return nil, err
	}
	s.syncDir()
	return sink, nil
}

// openSegment opens (creating and headering if absent) segment seq for
// appending and makes it the live segment. Caller must guarantee no
// concurrent appends (Open, or Rotate holding mu).
func (s *Store) openSegment(seq uint64) error {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()
	if size > 0 && size < int64(segHeaderLen) {
		// A crash truncated even the header; no record can exist, so the
		// segment restarts empty.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		size = 0
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return err
	}
	var sink Syncer = f
	if s.opts.WrapSyncer != nil {
		sink = s.opts.WrapSyncer(segName(seq), sink)
	}
	if size == 0 {
		if _, err := sink.Write(segmentHeader(seq)); err != nil {
			sink.Close()
			return err
		}
		if err := s.sync(sink); err != nil {
			sink.Close()
			return err
		}
		// The new file's directory entry must be durable too, or power
		// loss could drop the whole segment — and with it every fsynced
		// commit it will hold — without tripping the contiguity check.
		s.syncDir()
		size = int64(segHeaderLen)
	}
	s.seq, s.seg, s.segBytes = seq, sink, size
	return nil
}

func (s *Store) sync(sink Syncer) error {
	if s.opts.NoSync {
		return nil
	}
	return sink.Sync()
}

var errStoreClosed = errors.New("wal: store is closed")

// append frames payload as one record, writes it, and fsyncs it before
// returning, all under the store lock. A failed write or fsync is sticky:
// the segment may now hold a torn record, so every later append fails
// too — durability is gone and the engine must surface errors rather
// than keep committing. The tail is additionally truncated back to the
// record's start: a record whose fsync failed was reported to the caller
// as NOT committed (and rolled back in memory), so it must not be allowed
// to linger on disk and resurrect as committed on the next open.
func (s *Store) append(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return errStoreClosed
	}
	if s.failed != nil {
		return fmt.Errorf("wal: log failed earlier: %w", s.failed)
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	_, err := s.seg.Write(frame)
	if err == nil {
		err = s.sync(s.seg)
	}
	if err != nil {
		s.failed = err
		s.truncateTailLocked()
		return err
	}
	s.segBytes += int64(len(frame))
	return nil
}

// truncateTailLocked best-effort removes the bytes of a failed append so
// the record the caller was told did NOT commit cannot reappear after a
// restart. If the truncate itself fails the store is already sticky-
// failed, and recovery's torn-tail handling (or the checksum) is the
// remaining line of defense.
func (s *Store) truncateTailLocked() {
	os.Truncate(filepath.Join(s.dir, segName(s.seq)), s.segBytes)
}

// AppendBatch logs one committed atomic batch (a coalesced change feed)
// and syncs it to disk before returning. It satisfies the engine's commit
// log interface.
func (s *Store) AppendBatch(feed []storage.TableChange) error {
	return s.append(encodeBatch(feed))
}

// AppendDDL logs one schema statement as re-parseable SQL text.
func (s *Store) AppendDDL(stmt string) error {
	return s.append(encodeDDL(stmt))
}

// AppendConstraint logs one registered integrity constraint.
func (s *Store) AppendConstraint(c constraint.Constraint) error {
	payload, err := encodeConstraintRecord(c)
	if err != nil {
		return err
	}
	return s.append(payload)
}

// SegmentBytes reports the live segment's size; the checkpointer compares
// it against its rotation threshold.
func (s *Store) SegmentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segBytes
}

// Seq returns the live segment sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// PrepareRotation creates, headers, and syncs the next segment ahead of
// time, so the Rotate inside the checkpoint's write freeze is a cheap
// pointer swap instead of file creation plus fsyncs. Idempotent until the
// prepared segment is consumed; safe to skip entirely (Rotate falls back
// to creating the segment inline).
func (s *Store) PrepareRotation() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return errStoreClosed
	}
	if s.prepared != nil {
		return nil
	}
	sink, err := s.createSegment(s.seq + 1)
	if err != nil {
		return err
	}
	s.prepared = &preparedSegment{seq: s.seq + 1, sink: sink}
	return nil
}

// Rotate seals the live segment and starts a fresh one, returning the new
// sequence number. The caller must hold the engine write freeze so no
// commit can land between the seal and the snapshot the upcoming
// checkpoint serializes. On error the old segment stays live.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return 0, errStoreClosed
	}
	if s.failed != nil {
		return 0, fmt.Errorf("wal: log failed earlier: %w", s.failed)
	}
	next := s.prepared
	s.prepared = nil
	if next == nil || next.seq != s.seq+1 {
		if next != nil {
			next.sink.Close()
		}
		sink, err := s.createSegment(s.seq + 1)
		if err != nil {
			return 0, err
		}
		next = &preparedSegment{seq: s.seq + 1, sink: sink}
	}
	s.seg.Close()
	s.seq, s.seg, s.segBytes = next.seq, next.sink, int64(segHeaderLen)
	return s.seq, nil
}

// WriteCheckpoint durably installs ck (write to a temporary, fsync,
// rename) and then reclaims the segments and checkpoints it supersedes.
// ck.Seq must be a sequence Rotate returned; records in segments ≥ ck.Seq
// stay live.
func (s *Store) WriteCheckpoint(ck *Checkpoint) error {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, ckptName(ck.Seq))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var sink Syncer = f
	if s.opts.WrapSyncer != nil {
		sink = s.opts.WrapSyncer(filepath.Base(tmp), sink)
	}
	if _, err := sink.Write(data); err != nil {
		sink.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.sync(sink); err != nil {
		sink.Close()
		os.Remove(tmp)
		return err
	}
	if err := sink.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	s.syncDir()
	// Everything before the checkpoint is now subsumed; reclaim it. A
	// crash mid-cleanup only leaves extra files for the next Open to drop.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // the checkpoint is durable; cleanup is best-effort
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq < ck.Seq {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && seq < ck.Seq {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

// syncDir fsyncs the directory so renames survive power loss; best-effort
// because not every platform supports directory fsync.
func (s *Store) syncDir() {
	if s.opts.NoSync {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close flushes and seals the live segment and releases the directory
// lock. The flush is what makes a CLEAN shutdown durable in NoSync mode —
// commits there live in the page cache until this point; in sync mode it
// is a no-op barrier. Appends after Close fail with "store is closed".
// The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	var err error
	if s.failed == nil {
		err = s.seg.Sync()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	if d, derr := os.Open(s.dir); derr == nil {
		d.Sync()
		d.Close()
	}
	s.seg = nil
	if s.prepared != nil {
		s.prepared.sink.Close()
		s.prepared = nil
	}
	if s.lock != nil {
		s.lock.Close() // releases the flock
		s.lock = nil
	}
	return err
}
