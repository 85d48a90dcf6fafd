// Command benchmark is the repository's one benchmark: four named workloads
// run in-process at GOMAXPROCS = P = min(nproc, 4), every output verified,
// end-to-end metrics with regression bounds, and — in a separate traced run —
// per-layer metrics taken from outside each layer, by timing calls into its
// public functions and reading the public /jobs and /metrics endpoints.
//
//	./benchmark/run.sh                       all four workloads, seed 1
//	./benchmark/run.sh -workload serve-cold -trace 1
//	./benchmark/run.sh --twice               run the set twice and compare
//	./benchmark/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object — correct, attempted,
// failed, metrics — for the (last) workload run; BENCHMARK.json at the root
// of the repository lists the metrics it holds. README.md explains every
// name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists the four workloads by their fixed names.
func workloads() []workload {
	return []workload{
		{
			name: "solve-stream", loop: "offline, one caller",
			why: "large matrices tiled coarse: kernels do the work, the scheduler almost none",
			setup: func(e env, _ any, tr *tracer) (instance, error) {
				return setupOffline(e, solveStreamSpec(e), tr)
			},
		},
		{
			name: "solve-finegrain", loop: "offline, one caller",
			why: "one cache-resident CG tiled fine on each backend: per-task overhead dominates, kernels barely matter",
			setup: func(e env, _ any, tr *tracer) (instance, error) {
				return setupOffline(e, solveFinegrainSpec(e), tr)
			},
		},
		{
			name: "serve-repeat", loop: fmt.Sprintf("closed loop, P clients, %d shards", shardCount),
			why: "a three-matrix working set in bursts: every cache and the coalescer hit, engine overhead remains",
			setup: func(e env, _ any, tr *tracer) (instance, error) {
				return setupServing(e, newRepeatStream(e), tr)
			},
		},
		{
			name: "serve-cold", loop: fmt.Sprintf("closed loop, P clients, %d shards", shardCount),
			why:     "every job an unseen inline matrix: every cache misses, parse, fingerprint, autotune and factorize dominate",
			prepare: func(e env) (any, error) { return newColdStream(e, coldJobs(e)) },
			setup: func(e env, prepared any, tr *tracer) (instance, error) {
				return setupServing(e, prepared.(*coldStream), tr)
			},
		},
	}
}

// coldJobs is how many request bodies serve-cold pre-generates: enough for
// the passes of one run at a rate no box this benchmark has met reaches. A
// stream that runs dry ends its pass early; it never repeats a matrix.
func coldJobs(e env) int {
	if e.quick {
		return 24
	}
	return int(coldJobsPerSecond*e.seconds) + 64
}

const coldJobsPerSecond = 60

func main() {
	var (
		names   = flag.String("workload", "all", "workloads to run: all, or a comma-separated list of names")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "how long each workload measures, in seconds")
		trace   = flag.Int("trace", 0, "1: the traced run — per-layer metrics, spans written next to -out")
		out     = flag.String("out", "benchmark/out/results.json", "results file (-compare reads two of these)")
		quick   = flag.Bool("quick", false, "smoke-test sizes and one set-up: for tests, numbers are not comparable")
		compare = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	e := env{seed: *seed, p: p, quick: *quick, seconds: *seconds}
	if e.seed == 0 {
		// solverd reads a zero seed in a job spec as "use the default", so the
		// benchmark never sends one.
		e.seed = 0x5eed
	}

	var selected []workload
	for _, w := range workloads() {
		if *names == "all" || containsName(*names, w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("no workload named %q", *names))
	}

	rep := report{Seed: *seed, P: p, Go: runtime.Version(), Seconds: *seconds, Trace: *trace == 1, Quick: *quick}
	ok := true
	var last driverLine
	for _, w := range selected {
		res, err := runWorkload(w, e, *trace == 1, filepath.Dir(*out))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, res)
		last = res.driverLine()
		ok = ok && last.Correct
	}
	if err := rep.write(*out); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

func containsName(list, name string) bool {
	for _, n := range strings.Split(list, ",") {
		if strings.TrimSpace(n) == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload sets a workload up, measures it and verifies it. An untraced
// run sets up several times (setup_s is the median) and measures once for the
// whole duration; a traced run sets up once and splits the duration
// between an untraced pass, a traced pass and the layer probes.
func runWorkload(w workload, e env, traced bool, outDir string) (result, error) {
	res := result{Workload: w.name, Why: w.why, Loop: w.loop}
	var prepared any
	if w.prepare != nil {
		var err error
		if prepared, err = w.prepare(e); err != nil {
			return res, fmt.Errorf("prepare: %w", err)
		}
	}
	dur := time.Duration(e.seconds * float64(time.Second))
	if e.quick {
		dur = 0 // one operation per pass
	}

	var tr *tracer
	minReps, maxReps := setupReps, maxSetupReps
	if traced {
		tr = newTracer()
	}
	if traced || e.quick {
		minReps, maxReps = 1, 1
	}
	var inst instance
	var setups []float64
	for len(setups) < minReps || (len(setups) < maxReps && sum(setups) < setupBudget) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, err
			}
			inst = nil
			runtime.GC() // the previous set-up's matrices are not this one's cost
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e, prepared, tr); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	if !traced {
		p := inst.measure(nil, dur)
		inst.verify(&p)
		res.absorb(p)
		res.EndToEnd = finite(endToEnd(setups, p))
		return res, nil
	}

	untraced := inst.measure(nil, dur/3)
	inst.verify(&untraced)
	res.absorb(untraced)
	first := tr.newOp()
	tracedPass := inst.measure(tr, dur/3)
	last := tr.newOp()
	inst.verify(&tracedPass)
	res.absorb(tracedPass)
	res.EndToEnd = finite(endToEnd(setups, untraced))
	inPass := func(op int) bool { return op > first && op < last }
	layers, guards, tables := inst.layers(tr, inPass, untraced, tracedPass)
	res.Layers = finite(append(layers, traceMetrics(untraced, tracedPass, tables[0])...))
	for _, g := range guards {
		res.addGuard(g)
	}
	res.LayerTable = tables
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	return res, tr.write(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, e.seed)
}
