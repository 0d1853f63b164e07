// Package hclient is a typed Go client for the hippod HTTP/JSON API.
// It mirrors the embedded hippo.DB surface over the wire: exec, atomic
// batches, plain and consistent queries (optionally pinned to a server
// session), stats, and checkpoints. Server failures come back as
// *APIError values that match the package sentinels with errors.Is, so
// callers branch on overload/deadline/drain without string matching.
package hclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Sentinel errors matched (via errors.Is) by *APIError values carrying
// the corresponding wire code.
var (
	// ErrOverloaded: the server's admission bound was hit; back off and
	// retry.
	ErrOverloaded = errors.New("hclient: server overloaded")
	// ErrDeadline: the query's deadline expired server-side.
	ErrDeadline = errors.New("hclient: query deadline exceeded")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("hclient: server draining")
	// ErrUnknownSession: the session id has been released or reaped.
	ErrUnknownSession = errors.New("hclient: unknown session")
)

// APIError is a typed server failure.
type APIError struct {
	Code    string // wire error code ("overloaded", "deadline_exceeded", ...)
	Status  int    // HTTP status
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hclient: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// Is maps wire codes onto the package sentinels and the standard
// context errors, so errors.Is(err, context.DeadlineExceeded) holds for
// a server-side deadline just as it would embedded.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == "overloaded"
	case ErrDeadline, context.DeadlineExceeded:
		return e.Code == "deadline_exceeded"
	case ErrDraining:
		return e.Code == "draining"
	case ErrUnknownSession:
		return e.Code == "unknown_session"
	case context.Canceled:
		return e.Code == "canceled"
	}
	return false
}

// Client talks to one hippod server. The zero value is unusable; create
// with New. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient selects
// http.DefaultClient; benchmarks pass a client with a transport sized
// to their connection count.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: httpClient}
}

// Result is a query result as decoded from the wire.
type Result struct {
	Columns []string  `json:"columns"`
	Rows    [][]any   `json:"rows"`
	Count   int       `json:"count"`
	Stats   *RunStats `json:"stats"`
}

// RunStats is the per-run statistics subset the server reports.
type RunStats struct {
	Epoch      uint64 `json:"epoch"`
	Candidates int    `json:"candidates"`
	Answers    int    `json:"answers"`
	CacheHits  int64  `json:"cache_hits"`
	CacheMiss  int64  `json:"cache_misses"`
	TotalUS    int64  `json:"total_us"`
	// Strategy is the planner tier that produced the answers ("rewrite"
	// or "prover").
	Strategy string `json:"strategy,omitempty"`
}

// Stats is the server-level snapshot from /v1/stats.
type Stats struct {
	Epoch          uint64 `json:"epoch"`
	Sessions       int    `json:"sessions"`
	InFlight       int    `json:"in_flight"`
	MaxInFlight    int    `json:"max_in_flight"`
	Draining       bool   `json:"draining"`
	Durable        bool   `json:"durable"`
	WALBytes       int64  `json:"wal_bytes"`
	Edges          int    `json:"edges"`
	ViewsPublished int64  `json:"views_published"`
	ViewsReclaimed int64  `json:"views_reclaimed"`
	SlabsReclaimed int64  `json:"slabs_reclaimed"`
	Version        string `json:"version"`
}

// QueryOpts tune one query call.
type QueryOpts struct {
	// Session pins the query to a server-side snapshot session.
	Session string
	// Timeout is sent as timeout_ms: the server-side deadline. Zero
	// uses the server default.
	Timeout time.Duration
	// Tier constrains the tiered planner for consistent queries: ""
	// or "auto" lets the classifier decide, "prover" pins the
	// certification path, "require-rewrite" errors unless the rewrite
	// tier serves the query.
	Tier string
}

func (o QueryOpts) timeoutMS() int64 { return int64(o.Timeout / time.Millisecond) }

// do posts a JSON request and decodes the response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error.Code != "" {
			return &APIError{Code: e.Error.Code, Status: resp.StatusCode, Message: e.Error.Message}
		}
		return &APIError{Code: "internal", Status: resp.StatusCode, Message: string(raw)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Health checks liveness; an error means down or draining.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/health", nil, nil)
}

// Exec runs one SQL statement (DDL, DML, or SELECT) and returns the
// affected-row count (or the result for a SELECT).
func (c *Client) Exec(ctx context.Context, sql string) (*Result, int, error) {
	var resp struct {
		Count   int      `json:"count"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	in := map[string]any{"sql": sql}
	if err := c.do(ctx, http.MethodPost, "/v1/exec", in, &resp); err != nil {
		return nil, 0, err
	}
	if resp.Columns == nil {
		return nil, resp.Count, nil
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows, Count: resp.Count}, resp.Count, nil
}

// Batch applies DML statements as one atomic group commit.
func (c *Client) Batch(ctx context.Context, sqls ...string) ([]int, error) {
	var resp struct {
		Counts []int `json:"counts"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/batch", map[string]any{"sqls": sqls}, &resp); err != nil {
		return nil, err
	}
	return resp.Counts, nil
}

func queryBody(sql string, o QueryOpts) map[string]any {
	in := map[string]any{"sql": sql}
	if o.Session != "" {
		in["session"] = o.Session
	}
	if o.Timeout > 0 {
		in["timeout_ms"] = o.timeoutMS()
	}
	if o.Tier != "" {
		in["tier"] = o.Tier
	}
	return in
}

// Query evaluates a plain SELECT (ignoring inconsistency).
func (c *Client) Query(ctx context.Context, sql string, o QueryOpts) (*Result, error) {
	var res Result
	if err := c.do(ctx, http.MethodPost, "/v1/query", queryBody(sql, o), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ConsistentQuery computes consistent answers, optionally pinned to a
// session snapshot and/or to one planner tier.
func (c *Client) ConsistentQuery(ctx context.Context, sql string, o QueryOpts) (*Result, error) {
	var res Result
	if err := c.do(ctx, http.MethodPost, "/v1/consistent-query", queryBody(sql, o), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// NewSession pins the current query view server-side and returns its
// id; queries passing the id observe that immutable state. Release it
// when done so retired storage can be reclaimed.
func (c *Client) NewSession(ctx context.Context) (string, uint64, error) {
	var resp struct {
		Session string `json:"session"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/session", map[string]any{}, &resp); err != nil {
		return "", 0, err
	}
	return resp.Session, resp.Epoch, nil
}

// ReleaseSession unpins a session.
func (c *Client) ReleaseSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/session/release", map[string]any{"session": id}, nil)
}

// Stats fetches the server-level counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Checkpoint forces a durable checkpoint (durable servers only).
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/checkpoint", map[string]any{}, nil)
}

// AddFD registers a functional dependency spec ("rel: a,b -> c"); the
// relation must already exist.
func (c *Client) AddFD(ctx context.Context, spec string) error {
	return c.do(ctx, http.MethodPost, "/v1/fd", map[string]any{"spec": spec}, nil)
}
