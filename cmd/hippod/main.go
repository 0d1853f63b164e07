// Command hippod serves a hippo database over HTTP/JSON.
//
// Usage:
//
//	hippod [-addr :8080] [-dir path] [-fd "rel: a,b -> c"]...
//
// With -dir the database is durable (write-ahead log + checkpoints) and
// reopening the directory recovers the pre-crash state; without it the
// server is in-memory. -fd declares functional dependencies at startup
// (repeatable); constraints can also be baked into a durable directory
// beforehand.
//
// On SIGTERM or SIGINT the server drains gracefully: it stops accepting
// requests, cancels in-flight queries through their contexts, waits for
// handlers to unwind, takes a final checkpoint (durable mode), and exits
// 0. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hippo"
	"hippo/internal/server"
)

// fdList collects repeated -fd flags.
type fdList []string

func (f *fdList) String() string     { return fmt.Sprint(*f) }
func (f *fdList) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dir         = flag.String("dir", "", "durable data directory (empty = in-memory)")
		nosync      = flag.Bool("nosync", false, "skip per-commit fsync (durable mode)")
		maxInflight = flag.Int("max-inflight", 64, "max concurrently executing queries")
		defTimeout  = flag.Duration("default-timeout", 30*time.Second, "query timeout when the request sets none")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "upper clamp on requested query timeouts")
		sessionIdle = flag.Duration("session-idle", 5*time.Minute, "idle time before a session's snapshot is released")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "how long shutdown waits for handlers to unwind")
		fds         fdList
	)
	flag.Var(&fds, "fd", "functional dependency \"rel: a,b -> c\" (repeatable)")
	flag.Parse()

	log.SetPrefix("hippod: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	db, err := hippo.OpenOptions(hippo.Options{Dir: *dir, NoSync: *nosync})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	for _, spec := range fds {
		if err := db.AddFDSpec(spec); err != nil {
			log.Fatalf("constraint %q: %v", spec, err)
		}
	}

	srv := server.New(db, server.Config{
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		SessionIdle:    *sessionIdle,
		Logf:           log.Printf,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	mode := "in-memory"
	if *dir != "" {
		mode = "durable dir=" + *dir
	}
	log.Printf("serving on %s (%s, max-inflight=%d)", *addr, mode, *maxInflight)

	select {
	case err := <-errc:
		// The listener died before any signal: nothing to drain.
		srv.Close()
		log.Fatalf("listen: %v", err)
	case sig := <-sigc:
		log.Printf("%v: draining", sig)
	}

	// Drain sequence: refuse new work and cancel in-flight queries, wait
	// for handlers to unwind (bounded), then release sessions, take the
	// final checkpoint, and close the database.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	go func() {
		<-sigc
		log.Printf("second signal: aborting drain")
		cancel()
	}()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	log.Printf("drained cleanly")
}
