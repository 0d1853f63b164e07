// Package server is the hippod serving tier: a concurrent HTTP/JSON
// front end over a hippo.DB. It adds what the embedded API leaves to the
// caller — connection admission control, per-query deadlines, client-
// disconnect cancellation, session-scoped snapshot pinning, and a
// graceful drain — while delegating all query semantics to the engine.
//
// The server is an http.Handler; cmd/hippod mounts it on an http.Server
// and drives the drain sequence on SIGTERM. Every query path runs under
// a context derived from the incoming request, so the engine's
// cancellation contract (bounded rows past a deadline) is the server's
// latency contract too.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hippo"
)

// ErrOverloaded is returned (as HTTP 429) when the in-flight query bound
// is reached: admission control sheds load instead of queueing without
// bound. Clients should back off and retry.
var ErrOverloaded = errors.New("server: too many in-flight queries")

// ErrDraining is returned (as HTTP 503) once shutdown has begun: the
// server finishes nothing new, cancels what runs, and exits.
var ErrDraining = errors.New("server: draining")

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// MaxInFlight bounds concurrently executing query/exec requests;
	// excess requests fail fast with ErrOverloaded rather than queue.
	// Default 64.
	MaxInFlight int
	// DefaultTimeout applies to requests that set no timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default 5m.
	MaxTimeout time.Duration
	// SessionIdle is how long an unused session survives before the
	// reaper releases its snapshot. Default 5m.
	SessionIdle time.Duration
	// Logf, when set, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 5 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// session is one pinned snapshot with an idle clock. lastUsed is atomic
// (unix nanos) so query handlers can touch it without the session lock.
type session struct {
	snap     *hippo.Snap
	lastUsed atomic.Int64
}

// Server serves a hippo.DB over HTTP. Create with New, mount as an
// http.Handler, stop with Drain then Close.
type Server struct {
	db  *hippo.DB
	cfg Config
	mux *http.ServeMux

	// sem is the admission semaphore: a slot per allowed in-flight
	// query, acquired non-blocking so overload fails fast.
	sem chan struct{}

	// baseCtx is cancelled by Drain; every request context is linked to
	// it so in-flight queries die when shutdown begins.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	draining  atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	reaperStop chan struct{}
	reaperDone chan struct{}
}

// New builds a Server over db and starts its session reaper. The caller
// keeps ownership of db until Close, which closes it.
func New(db *hippo.DB, cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    ctx,
		cancelAll:  cancel,
		sessions:   make(map[string]*session),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	s.mux = s.routes()
	go s.reapLoop()
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain begins shutdown: new requests are refused with ErrDraining and
// every in-flight query's context is cancelled. It does not wait;
// callers then Shutdown the http.Server (which waits for handlers to
// unwind) and finally Close the Server.
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("drain: refusing new requests, cancelling in-flight queries")
		s.cancelAll()
	}
}

// Close releases everything Drain left: the session reaper, all pinned
// session snapshots, a final checkpoint (durable databases only), and
// the database itself. Close is idempotent.
func (s *Server) Close() error {
	s.Drain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for id, se := range s.sessions {
		se.snap.Close()
		delete(s.sessions, id)
	}
	s.mu.Unlock()

	close(s.reaperStop)
	<-s.reaperDone

	var err error
	if s.db.System().Durable() {
		if cerr := s.db.Checkpoint(); cerr != nil {
			err = fmt.Errorf("final checkpoint: %w", cerr)
			s.cfg.Logf("close: %v", err)
		}
	}
	if cerr := s.db.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// acquire takes an admission slot, failing fast when the server is
// draining or saturated. The returned release must be called once.
func (s *Server) acquire() (release func(), err error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
		return nil, ErrOverloaded
	}
}

// requestCtx derives the execution context for one query: cancelled by
// client disconnect (r.Context), by Drain (baseCtx), and by the
// effective timeout — the request's timeout_ms clamped to MaxTimeout,
// or DefaultTimeout when absent.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// newSession pins the current query view under a fresh opaque id.
func (s *Server) newSession() (string, *session, error) {
	snap, err := s.db.Snapshot()
	if err != nil {
		return "", nil, err
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		snap.Close()
		return "", nil, err
	}
	id := hex.EncodeToString(buf[:])
	se := &session{snap: snap}
	se.lastUsed.Store(time.Now().UnixNano())

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		snap.Close()
		return "", nil, ErrDraining
	}
	s.sessions[id] = se
	return id, se, nil
}

// lookupSession returns the session and touches its idle clock.
func (s *Server) lookupSession(id string) (*session, bool) {
	s.mu.Lock()
	se, ok := s.sessions[id]
	s.mu.Unlock()
	if ok {
		se.lastUsed.Store(time.Now().UnixNano())
	}
	return se, ok
}

// releaseSession unpins and forgets a session. Reports whether the id
// existed.
func (s *Server) releaseSession(id string) bool {
	s.mu.Lock()
	se, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		se.snap.Close()
	}
	return ok
}

// sessionCount returns the number of live sessions.
func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// reapLoop releases sessions idle past SessionIdle. Closing a snapshot
// out from under a query that still holds the *session is safe: the
// pinned view's data is immutable and reachable until the query drops
// it; only the reclamation accounting moves.
func (s *Server) reapLoop() {
	defer close(s.reaperDone)
	tick := s.cfg.SessionIdle / 4
	if tick < 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case now := <-t.C:
			cutoff := now.Add(-s.cfg.SessionIdle).UnixNano()
			var doomed []*session
			s.mu.Lock()
			for id, se := range s.sessions {
				if se.lastUsed.Load() < cutoff {
					doomed = append(doomed, se)
					delete(s.sessions, id)
				}
			}
			s.mu.Unlock()
			for _, se := range doomed {
				se.snap.Close()
			}
			if len(doomed) > 0 {
				s.cfg.Logf("reaper: released %d idle sessions", len(doomed))
			}
		}
	}
}
