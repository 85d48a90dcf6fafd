// Command loadgen drives a running solverd (or a solverfront router — the
// API surface is identical) with one of two workloads:
//
//   - closed loop (default): each of -c workers submits a job, polls it to a
//     terminal state, and immediately submits the next — measures capacity.
//   - open loop (-arrivals open -rate λ): jobs arrive by a Poisson process
//     at λ jobs/s regardless of completions — measures latency under a fixed
//     offered load, the way serving systems are actually exercised, and
//     gives the batch coalescer bursts of concurrent same-matrix arrivals.
//
// It reports throughput and latency percentiles measured from submission to
// terminal state.
//
//	loadgen -addr localhost:8080 -c 4 -d 10s -mix lanczos=1,cg=1
//	loadgen -front localhost:8070 -arrivals open -rate 50 -d 10s -mix cg=1
//
// Exit status is 2 for a flag value that cannot make a run, and 1 if no job
// completes successfully.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// mixEntry is one weighted solver in the -mix flag.
type mixEntry struct {
	solver string
	weight int
}

func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		name, weightStr, found := strings.Cut(strings.TrimSpace(part), "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(weightStr); err != nil || w < 1 {
				return nil, fmt.Errorf("bad weight in mix entry %q", part)
			}
		}
		switch name {
		case "lanczos", "lobpcg", "cg":
		default:
			return nil, fmt.Errorf("unknown solver %q in mix (want lanczos, lobpcg, cg)", name)
		}
		mix = append(mix, mixEntry{name, w})
	}
	return mix, nil
}

// pick returns the solver for the i-th job: deterministic round-robin
// weighted by the mix, so runs are reproducible.
func pick(mix []mixEntry, i int) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	i %= total
	for _, m := range mix {
		if i < m.weight {
			return m.solver
		}
		i -= m.weight
	}
	return mix[0].solver
}

type stats struct {
	mu        sync.Mutex
	done      int
	failed    int
	canceled  int
	rejected  int
	dropped   int
	latencies []time.Duration
}

func (s *stats) record(state string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch state {
	case "done":
		s.done++
		s.latencies = append(s.latencies, d)
	case "failed":
		s.failed++
	case "canceled":
		s.canceled++
	case "rejected":
		s.rejected++
	case "dropped":
		s.dropped++
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// checkFlags refuses the flag values that would break a run before it
// starts: every run needs a positive duration, a closed loop at least one
// client, and an open loop a positive arrival rate and room for at least one
// job in flight.
func checkFlags(arrivals string, conc, inflight int, rate float64, dur time.Duration) error {
	if dur <= 0 {
		return fmt.Errorf("-d %s: the run needs a positive duration", dur)
	}
	switch arrivals {
	case "closed":
		if conc < 1 {
			return fmt.Errorf("-c %d: the closed loop needs at least one client", conc)
		}
	case "open":
		if rate <= 0 {
			return fmt.Errorf("-rate %v: the open loop needs a positive arrival rate", rate)
		}
		if inflight < 1 {
			return fmt.Errorf("-max-inflight %d: the open loop needs room for at least one job in flight", inflight)
		}
	default:
		return fmt.Errorf("-arrivals %q: want closed or open", arrivals)
	}
	return nil
}

func main() {
	addr := flag.String("addr", "localhost:8080", "solverd host:port")
	front := flag.String("front", "", "solverfront router host:port (overrides -addr; same API surface)")
	conc := flag.Int("c", 4, "closed-loop client concurrency")
	arrivals := flag.String("arrivals", "closed", "arrival process: closed (fixed concurrency) or open (Poisson)")
	rate := flag.Float64("rate", 20, "open-loop mean arrival rate, jobs/s")
	inflight := flag.Int("max-inflight", 512, "open-loop in-flight cap; arrivals beyond it are dropped, not queued")
	dur := flag.Duration("d", 10*time.Second, "run duration")
	mixFlag := flag.String("mix", "lanczos=1,cg=1", "job mix: solver=weight[,solver=weight...]")
	backend := flag.String("backend", "deepsparse", "runtime backend for all jobs")
	suite := flag.String("suite", "inline1", "matgen suite matrix name")
	preset := flag.String("preset", "tiny", "matgen preset: tiny, small, medium")
	seed := flag.Int64("seed", 1, "matrix + solver seed")
	k := flag.Int("k", 4, "eigenpair count for lanczos/lobpcg jobs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the client side of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()
	if err := checkFlags(*arrivals, *conc, *inflight, *rate, *dur); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
	}
	target := *addr
	if *front != "" {
		target = *front
	}
	base := "http://" + target
	client := &http.Client{Timeout: 10 * time.Second}

	// Fail fast when solverd is not reachable.
	if resp, err := client.Get(base + "/healthz"); err != nil {
		log.Fatalf("solverd unreachable at %s: %v", base, err)
	} else {
		resp.Body.Close()
	}

	var st stats
	var wg sync.WaitGroup
	deadline := time.Now().Add(*dur)
	var jobCounter int64
	var counterMu sync.Mutex
	nextJob := func() int {
		counterMu.Lock()
		defer counterMu.Unlock()
		n := jobCounter
		jobCounter++
		return int(n)
	}

	// runOne submits the i-th job and polls it to a terminal state,
	// recording the outcome. Returns false when the submit was rejected with
	// 429 (so the closed loop can back off).
	runOne := func(i int) bool {
		solver := pick(mix, i)
		spec := map[string]any{
			"solver":  solver,
			"backend": *backend,
			"matrix":  map[string]any{"suite": *suite, "preset": *preset, "seed": *seed},
			"seed":    *seed,
		}
		if solver != "cg" {
			spec["k"] = *k
		}
		body, err := json.Marshal(spec)
		if err != nil {
			log.Printf("submit: marshal: %v", err)
			return true
		}
		submitted := time.Now()
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Printf("submit: %v", err)
			time.Sleep(50 * time.Millisecond)
			return true
		}
		var v jobView
		code := resp.StatusCode
		if code == http.StatusAccepted {
			decErr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if decErr != nil {
				log.Printf("submit: decode: %v", decErr)
				return true
			}
		} else {
			resp.Body.Close()
		}
		if code == http.StatusTooManyRequests {
			st.record("rejected", 0)
			return false
		}
		if code != http.StatusAccepted {
			log.Printf("submit: unexpected status %d", code)
			return true
		}
		for {
			resp, err := client.Get(base + "/jobs/" + v.ID)
			if err != nil {
				log.Printf("poll %s: %v", v.ID, err)
				return true
			}
			decErr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if decErr != nil {
				log.Printf("poll %s: decode: %v", v.ID, decErr)
				return true
			}
			if terminal(v.State) {
				st.record(v.State, time.Since(submitted))
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	start := time.Now()
	switch *arrivals {
	case "closed":
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if !runOne(nextJob()) {
						time.Sleep(20 * time.Millisecond) // back off, queue is full
					}
				}
			}()
		}
	case "open":
		// Open loop: a Poisson arrival process submits jobs at -rate jobs/s
		// whether or not earlier jobs finished. The in-flight cap bounds
		// client memory when the server falls behind; a capped arrival is a
		// drop (client-side loss), distinct from a 429 (server backpressure).
		rng := rand.New(rand.NewSource(*seed))
		sem := make(chan struct{}, *inflight)
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			wait := time.Duration(rng.ExpFloat64() / *rate * float64(time.Second))
			if remaining := deadline.Sub(now); wait > remaining {
				break
			}
			time.Sleep(wait)
			i := nextJob()
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					runOne(i)
				}()
			default:
				st.record("dropped", 0)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Profiles are flushed explicitly: the failure path below exits through
	// os.Exit, which would skip deferred writers.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("-memprofile: %v", err)
		}
		runtime.GC() // report only live allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("-memprofile: %v", err)
		}
		f.Close()
	}

	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	throughput := float64(st.done) / elapsed.Seconds()
	fmt.Printf("loadgen: %d done, %d failed, %d canceled, %d rejected, %d dropped in %s\n",
		st.done, st.failed, st.canceled, st.rejected, st.dropped, elapsed.Round(time.Millisecond))
	if *arrivals == "open" {
		fmt.Printf("offered: %.2f jobs/s (target %.2f)\n",
			float64(st.done+st.failed+st.canceled+st.rejected)/elapsed.Seconds(), *rate)
	}
	fmt.Printf("throughput: %.2f jobs/s\n", throughput)
	fmt.Printf("latency: p50=%s p90=%s p99=%s\n",
		percentile(st.latencies, 0.50).Round(time.Microsecond),
		percentile(st.latencies, 0.90).Round(time.Microsecond),
		percentile(st.latencies, 0.99).Round(time.Microsecond))

	if st.done == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no jobs completed successfully")
		os.Exit(1)
	}
}
