// Command solverd serves sparse-solver jobs over HTTP/JSON.
//
// It wraps internal/server in an http.Server with signal-driven graceful
// shutdown: on SIGINT/SIGTERM it stops admitting jobs, lets queued and
// running work finish (up to -drain-timeout), then exits.
//
//	solverd -addr :8080 -workers 2 -queue 64
//	curl -s localhost:8080/healthz
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

	"sparsetask/internal/server"
)

// checkFlags refuses the flag values the engine would otherwise swap for its
// defaults while the startup log prints the value given: the queue, the
// pool and the batch cap need at least one slot, the runtime worker count
// (0 = GOMAXPROCS) and the drain timeout cannot be negative, and coalescing
// needs a positive window to collect a batch in.
func checkFlags(cfg server.Config, drainTimeout time.Duration) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-queue", cfg.QueueSize}, {"-workers", cfg.Workers}, {"-coalesce", cfg.CoalesceMax}} {
		if f.v < 1 {
			return fmt.Errorf("%s %d: want at least 1", f.name, f.v)
		}
	}
	if cfg.RTWorkers < 0 {
		return fmt.Errorf("-rt-workers %d: want 0 (GOMAXPROCS) or more", cfg.RTWorkers)
	}
	if drainTimeout < 0 {
		return fmt.Errorf("-drain-timeout %s: cannot be negative", drainTimeout)
	}
	if cfg.CoalesceMax > 1 && cfg.CoalesceWindow <= 0 {
		return fmt.Errorf("-coalesce-window %s: coalescing up to %d jobs needs a positive window", cfg.CoalesceWindow, cfg.CoalesceMax)
	}
	return nil
}

// A request must deliver its header within readHeaderTimeout and the whole
// request within readTimeout, so a client that stalls part-way through a
// POST /jobs body holds a handler and the bytes it sent for at most
// readTimeout. A minute still lets the largest accepted body
// (server.MaxJobBodyBytes, 32 MiB) arrive over a link of 0.6 MiB/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
)

// newHTTPServer is the command's one http.Server constructor.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "job queue capacity (full queue rejects with 429)")
	workers := flag.Int("workers", 2, "pool size: jobs executing concurrently")
	rtWorkers := flag.Int("rt-workers", 0, "runtime workers per job (0 = GOMAXPROCS)")
	coalesce := flag.Int("coalesce", 8,
		"max same-matrix cg/pcg jobs merged into one multi-RHS batch (1 disables coalescing)")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond,
		"how long the dispatcher holds a batchable job open for same-matrix arrivals")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight jobs before hard-cancelling them")
	flag.Parse()
	cfg := server.Config{
		QueueSize:      *queue,
		Workers:        *workers,
		RTWorkers:      *rtWorkers,
		CoalesceMax:    *coalesce,
		CoalesceWindow: *coalesceWindow,
	}
	if err := checkFlags(cfg, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "solverd: %v\n", err)
		os.Exit(2)
	}

	srv := server.New(cfg)
	hs := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("solverd listening on %s (pool=%d queue=%d)", *addr, *workers, *queue)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("draining (timeout %s)...", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain incomplete, running jobs hard-cancelled: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("solverd stopped")
}
