package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"hippo"
)

// Wire types. Every response is JSON; errors use the envelope
// {"error":{"code":"...","message":"..."}} with the code doubling as the
// HTTP-status selector (see writeErr).

type execRequest struct {
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type batchRequest struct {
	SQLs      []string `json:"sqls"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

type queryRequest struct {
	SQL       string `json:"sql"`
	Session   string `json:"session,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Tier constrains the tiered planner for consistent queries: ""/"auto"
	// (classifier decides), "prover" (pin certification), or
	// "require-rewrite" (error unless the rewrite tier serves it).
	Tier string `json:"tier,omitempty"`
}

type resultResponse struct {
	Columns []string  `json:"columns"`
	Rows    [][]any   `json:"rows"`
	Count   int       `json:"count"`
	Stats   *runStats `json:"stats,omitempty"`
}

// runStats is the wire subset of hippo.Stats a client acts on.
type runStats struct {
	Epoch      uint64 `json:"epoch"`
	Candidates int    `json:"candidates"`
	Answers    int    `json:"answers"`
	// Decided counts the candidates the prover settled without a
	// blocker search (a constant residual).
	Decided int64 `json:"decided"`
	TotalUS int64 `json:"total_us"`
	// Strategy is the planner tier that produced the answers ("rewrite"
	// or "prover").
	Strategy string `json:"strategy,omitempty"`
}

type execResponse struct {
	Count   int       `json:"count"`
	Columns []string  `json:"columns,omitempty"`
	Rows    [][]any   `json:"rows,omitempty"`
	Stats   *runStats `json:"stats,omitempty"`
}

type batchResponse struct {
	Counts []int `json:"counts"`
}

type sessionResponse struct {
	Session string `json:"session"`
	Epoch   uint64 `json:"epoch"`
}

type statsResponse struct {
	Epoch          uint64 `json:"epoch"`
	Sessions       int    `json:"sessions"`
	InFlight       int    `json:"in_flight"`
	MaxInFlight    int    `json:"max_in_flight"`
	Draining       bool   `json:"draining"`
	Durable        bool   `json:"durable"`
	WALBytes       int64  `json:"wal_bytes,omitempty"`
	Edges          int    `json:"edges"`
	ViewsPublished int64  `json:"views_published"`
	ViewsReclaimed int64  `json:"views_reclaimed"`
	SlabsReclaimed int64  `json:"slabs_reclaimed"`
	// Lifetime counts of consistent queries answered per planner tier.
	TierRewrite int64 `json:"tier_rewrite"`
	TierProver  int64 `json:"tier_prover"`
	// Lifetime prover-tier candidates, and those settled without a
	// blocker search.
	Certified int64 `json:"certified"`
	Decided   int64 `json:"decided"`
	// Maintenance plane: delta-queue overflows and the parked checkpoint
	// error (empty when healthy; /health reports "degraded" while it is
	// set).
	PendingOverflows int64  `json:"pending_overflows,omitempty"`
	MaintenanceError string `json:"maintenance_error,omitempty"`
	Version          string `json:"version"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errResponse struct {
	Error errBody `json:"error"`
}

// Error codes on the wire; hclient maps them back to typed errors.
const (
	CodeOverloaded     = "overloaded"
	CodeDraining       = "draining"
	CodeDeadline       = "deadline_exceeded"
	CodeCanceled       = "canceled"
	CodeUnknownSession = "unknown_session"
	CodeBadRequest     = "bad_request"
	CodeSQL            = "sql_error"
	CodeUnsupported    = "unsupported"
	CodeInternal       = "internal"
)

func statusFor(code string) int {
	switch code {
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		// The client went away or gave up; 499 is the de-facto code.
		return 499
	case CodeUnknownSession:
		return http.StatusNotFound
	case CodeBadRequest, CodeSQL, CodeUnsupported:
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// codeFor classifies an error from the engine or the server itself.
func codeFor(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, hippo.ErrUnsupported):
		return CodeUnsupported
	default:
		return CodeSQL
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code string, err error) {
	writeJSON(w, statusFor(code), errResponse{Error: errBody{Code: code, Message: err.Error()}})
}

// decodeBody reads one JSON request body into v, bounding its size.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// post wraps a handler with a method check (the Go 1.21 ServeMux has no
// method patterns).
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, CodeBadRequest, errors.New("POST required"))
			return
		}
		h(w, r)
	}
}

func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, CodeBadRequest, errors.New("GET required"))
			return
		}
		h(w, r)
	}
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", get(s.handleHealth))
	mux.HandleFunc("/v1/exec", post(s.handleExec))
	mux.HandleFunc("/v1/batch", post(s.handleBatch))
	mux.HandleFunc("/v1/query", post(s.handleQuery))
	mux.HandleFunc("/v1/consistent-query", post(s.handleConsistentQuery))
	mux.HandleFunc("/v1/stats", get(s.handleStats))
	mux.HandleFunc("/v1/checkpoint", post(s.handleCheckpoint))
	mux.HandleFunc("/v1/session", post(s.handleSessionCreate))
	mux.HandleFunc("/v1/session/release", post(s.handleSessionRelease))
	mux.HandleFunc("/v1/fd", post(s.handleAddFD))
	return mux
}

// handleAddFD registers a functional dependency ("rel: a,b -> c") so a
// fresh in-memory server can be configured entirely over the wire.
func (s *Server) handleAddFD(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Spec string `json:"spec"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	if err := s.db.AddFDSpec(req.Spec); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, CodeDraining, ErrDraining)
		return
	}
	// Degraded, not down: queries still serve, but background
	// checkpointing is failing. Without this probe a
	// read-mostly deployment would never learn — the parked error is
	// otherwise only drained by a later write.
	if err := s.db.System().MaintenanceHealth(); err != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "degraded",
			"epoch":       s.db.System().Epoch(),
			"maintenance": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"epoch":  s.db.System().Epoch(),
	})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	release, err := s.acquire()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	res, n, err := s.db.ExecContext(ctx, req.SQL)
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	resp := execResponse{Count: n}
	if res != nil {
		resp.Columns = res.Columns()
		resp.Rows = wireRows(res)
		resp.Count = len(res.Rows)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	if len(req.SQLs) == 0 {
		writeErr(w, CodeBadRequest, errors.New("empty batch"))
		return
	}
	release, err := s.acquire()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	counts, err := s.db.ExecBatchContext(ctx, req.SQLs...)
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Counts: counts})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	release, err := s.acquire()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	var res *hippo.Result
	if req.Session != "" {
		se, ok := s.lookupSession(req.Session)
		if !ok {
			writeErr(w, CodeUnknownSession, errors.New("unknown session "+req.Session))
			return
		}
		res, err = se.snap.Data().QueryContext(ctx, req.SQL)
	} else {
		res, err = s.db.QueryContext(ctx, req.SQL)
	}
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{
		Columns: res.Columns(),
		Rows:    wireRows(res),
		Count:   len(res.Rows),
	})
}

func (s *Server) handleConsistentQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	release, err := s.acquire()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	var opts []hippo.Option
	switch req.Tier {
	case "", "auto":
	case "prover":
		opts = append(opts, hippo.WithProverTier())
	case "require-rewrite":
		opts = append(opts, hippo.WithRequireRewriteTier())
	default:
		writeErr(w, CodeBadRequest, errors.New("unknown tier "+req.Tier))
		return
	}
	var (
		res *hippo.Result
		st  *hippo.Stats
	)
	if req.Session != "" {
		se, ok := s.lookupSession(req.Session)
		if !ok {
			writeErr(w, CodeUnknownSession, errors.New("unknown session "+req.Session))
			return
		}
		res, st, err = s.db.ConsistentQueryAtContext(ctx, se.snap, req.SQL, opts...)
	} else {
		res, st, err = s.db.ConsistentQueryContext(ctx, req.SQL, opts...)
	}
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{
		Columns: res.Columns(),
		Rows:    wireRows(res),
		Count:   len(res.Rows),
		Stats:   wireStats(st),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sys := s.db.System()
	m := sys.Maintenance()
	resp := statsResponse{
		Epoch:            sys.Epoch(),
		Sessions:         s.sessionCount(),
		InFlight:         len(s.sem),
		MaxInFlight:      cap(s.sem),
		Draining:         s.draining.Load(),
		Durable:          sys.Durable(),
		Edges:            sys.GraphStats().Edges,
		ViewsPublished:   m.ViewsPublished,
		ViewsReclaimed:   m.ViewsReclaimed,
		SlabsReclaimed:   m.SlabsReclaimed,
		PendingOverflows: m.PendingOverflows,
		Version:          hippo.Version,
	}
	if err := sys.MaintenanceHealth(); err != nil {
		resp.MaintenanceError = err.Error()
	}
	tc := s.db.TierCounts()
	resp.TierRewrite, resp.TierProver = tc.Rewrite, tc.Prover
	resp.Certified, resp.Decided = tc.Certified, tc.Decided
	if resp.Durable {
		resp.WALBytes = sys.WALBytes()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.db.System().Durable() {
		writeErr(w, CodeBadRequest, errors.New("checkpoint requires a durable database"))
		return
	}
	if err := s.db.Checkpoint(); err != nil {
		writeErr(w, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, CodeDraining, ErrDraining)
		return
	}
	id, se, err := s.newSession()
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sessionResponse{Session: id, Epoch: se.snap.Epoch()})
}

func (s *Server) handleSessionRelease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, CodeBadRequest, err)
		return
	}
	if !s.releaseSession(req.Session) {
		writeErr(w, CodeUnknownSession, errors.New("unknown session "+req.Session))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// wireRows converts engine tuples to JSON-marshalable rows.
func wireRows(res *hippo.Result) [][]any {
	rows := make([][]any, len(res.Rows))
	for i, t := range res.Rows {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = v.Go()
		}
		rows[i] = row
	}
	return rows
}

func wireStats(st *hippo.Stats) *runStats {
	if st == nil {
		return nil
	}
	return &runStats{
		Epoch:      st.Epoch,
		Candidates: st.Candidates,
		Answers:    st.Answers,
		Decided:    st.ProverStats.Decided,
		TotalUS:    st.Total.Microseconds(),
		Strategy:   st.Strategy,
	}
}
