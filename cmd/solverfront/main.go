// Command solverfront fronts a fleet of solverd shards with
// fingerprint-affinity routing: each job's matrix is fingerprinted and
// rendezvous-hashed to a shard, so repeat traffic for a matrix lands where
// its autotuned plan, IC(0) factors, and batch-coalescing peers already
// live. It serves the same HTTP surface as a single solverd.
//
//	solverd -addr :8081 & solverd -addr :8082 &
//	solverfront -addr :8080 -shards s0=http://127.0.0.1:8081,s1=http://127.0.0.1:8082
//	curl -s localhost:8080/healthz
//
// Shard names key the placement: keep them stable across restarts, or every
// matrix remaps to a cold shard.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparsetask/internal/route"
)

// parseShards accepts a comma-separated list of name=url entries; a bare
// url gets a positional name shard0, shard1, ... (positions must then stay
// stable across restarts).
func parseShards(arg string) ([]route.Shard, error) {
	var shards []route.Shard
	for i, entry := range strings.Split(arg, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, ok := strings.Cut(entry, "=")
		if !ok {
			name, url = fmt.Sprintf("shard%d", i), entry
		}
		shards = append(shards, route.Shard{Name: name, URL: url})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shards in %q", arg)
	}
	return shards, nil
}

// checkFlags refuses the flag values the router would otherwise swap for its
// defaults while the startup log prints the value given: the probe period
// must be positive.
func checkFlags(cfg route.Config) error {
	if cfg.ProbeInterval <= 0 {
		return fmt.Errorf("-probe-interval %s: want a positive period", cfg.ProbeInterval)
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
	shardsArg := flag.String("shards", "",
		"comma-separated shard list, name=url or bare url (e.g. s0=http://127.0.0.1:8081,s1=http://127.0.0.1:8082)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond,
		"shard /healthz polling period")
	flag.Parse()
	cfg := route.Config{ProbeInterval: *probeInterval}
	if err := checkFlags(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "solverfront: %v\n", err)
		os.Exit(2)
	}

	shards, err := parseShards(*shardsArg)
	if err != nil {
		log.Fatalf("-shards: %v", err)
	}
	cfg.Shards = shards
	r, err := route.New(cfg)
	if err != nil {
		log.Fatalf("route: %v", err)
	}
	hs := newHTTPServer(*addr, r.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	r.ProbeNow(ctx)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("solverfront listening on %s (%d shards)", *addr, len(shards))

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	r.Close()
	log.Printf("solverfront stopped")
}
