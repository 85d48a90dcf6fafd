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
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"sparsetask/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "job queue capacity (full queue rejects with 429)")
	workers := flag.Int("workers", 2, "pool size: jobs executing concurrently")
	rtWorkers := flag.Int("rt-workers", 0, "runtime workers per job (0 = GOMAXPROCS)")
	planCache := flag.Int("plan-cache", 128, "autotune plan cache capacity")
	coalesce := flag.Int("coalesce", 8,
		"max same-matrix cg/pcg jobs merged into one multi-RHS batch (1 disables coalescing)")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond,
		"how long the dispatcher holds a batchable job open for same-matrix arrivals")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight jobs before hard-cancelling them")
	flag.Parse()

	srv := server.New(server.Config{
		QueueSize:      *queue,
		Workers:        *workers,
		RTWorkers:      *rtWorkers,
		PlanCacheSize:  *planCache,
		CoalesceMax:    *coalesce,
		CoalesceWindow: *coalesceWindow,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

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
