package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hippo"
	"hippo/internal/wal"
)

// brokenTmpSyncer fails checkpoint temporaries, leaving the WAL healthy
// but background checkpointing permanently degraded.
type brokenTmpSyncer struct{ under wal.Syncer }

var errServerBrokenDir = errors.New("checkpoint directory is broken")

func (f brokenTmpSyncer) Write(p []byte) (int, error) { return 0, errServerBrokenDir }
func (f brokenTmpSyncer) Sync() error                 { return errServerBrokenDir }
func (f brokenTmpSyncer) Close() error                { return f.under.Close() }

// TestMaintainDegradedHealthOverWire pins the ops-facing half of the
// maintenance plane: when background checkpointing fails, /health flips
// to "degraded" (with the parked error) and /v1/stats carries
// maintenance_error — both observable by a read-only prober that never
// issues a write — while queries keep serving.
func TestMaintainDegradedHealthOverWire(t *testing.T) {
	db, err := hippo.OpenOptions(hippo.Options{
		Dir: t.TempDir(), NoSync: true, CheckpointBytes: 1,
		WrapSyncer: func(name string, s wal.Syncer) wal.Syncer {
			if strings.HasSuffix(name, ".tmp") {
				return brokenTmpSyncer{under: s}
			}
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	// The write commits; the background checkpoint it triggers fails.
	// hippo surfaces a parked failure from Exec as ErrCheckpoint — either
	// way the row is durable and the next failure re-parks within a poll
	// tick.
	if _, _, err := db.Exec("CREATE TABLE d (x INT)"); err != nil && !errors.Is(err, hippo.ErrCheckpoint) {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("INSERT INTO d VALUES (1)"); err != nil && !errors.Is(err, hippo.ErrCheckpoint) {
		t.Fatal(err)
	}

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Observe the degradation with reads only.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := getJSON("/health")
		if h["status"] == "degraded" {
			if msg, _ := h["maintenance"].(string); !strings.Contains(msg, "checkpoint directory is broken") {
				t.Fatalf("degraded health carries %q, want the parked error", msg)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/health never reported degraded: %v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := getJSON("/v1/stats")
	if msg, _ := st["maintenance_error"].(string); !strings.Contains(msg, "checkpoint directory is broken") {
		t.Fatalf("/v1/stats maintenance_error = %q, want the parked error", msg)
	}

	// Degraded, not down: queries still serve over the wire.
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT * FROM d"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query under degraded maintenance: HTTP %d", resp.StatusCode)
	}
}
