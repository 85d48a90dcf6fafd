// Command sparsebench regenerates the paper's tables and figures on the
// scaled synthetic suite via the discrete-event simulator.
//
// Usage:
//
//	sparsebench -list
//	sparsebench -exp fig9 [-preset small] [-iters 5] [-matrices a,b,c] [-seed 1]
//	sparsebench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sparsetask/internal/bench"
	"sparsetask/internal/matgen"
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status (2 for a usage error, 1 for
// a failed run) rather than exiting, so that every path stops and closes the
// CPU profile first and a failed run still leaves a complete profile.
func run() (code int) {
	var (
		expID    = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		preset   = flag.String("preset", "small", "suite scale: tiny, small, medium")
		seed     = flag.Int64("seed", 1, "matrix generation seed")
		iters    = flag.Int("iters", 0, "solver iterations per run (0 = experiment default)")
		matrices = flag.String("matrices", "", "comma-separated matrix subset (default: experiment default)")
		maxMat   = flag.Int("maxmatrices", 0, "cap the suite size (0 = no cap)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if *iters < 0 || *maxMat < 0 {
		fmt.Fprintf(os.Stderr, "sparsebench: -iters %d, -maxmatrices %d: counts cannot be negative\n", *iters, *maxMat)
		return 2
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-10s %-9s %s\n", e.ID, e.Paper, e.Desc)
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "sparsebench: -exp required (use -list to see options)")
		return 2
	}
	exps := bench.All()
	if *expID != "all" {
		e, err := bench.ByID(*expID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: unknown experiment %q\n", *expID)
			fmt.Fprintln(os.Stderr, "valid experiment ids:")
			for _, known := range bench.All() {
				fmt.Fprintf(os.Stderr, "  %-10s %-9s %s\n", known.ID, known.Paper, known.Desc)
			}
			fmt.Fprintln(os.Stderr, "  all        (run every experiment)")
			return 2
		}
		exps = []bench.Experiment{e}
	}
	p, err := matgen.PresetByName(*preset)
	if err != nil {
		return fail(err)
	}
	cfg := &bench.Config{
		Preset:      p,
		Seed:        *seed,
		Iterations:  *iters,
		MaxMatrices: *maxMat,
	}
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	for _, e := range exps {
		rep, err := e.Run(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := rep.Write(os.Stdout); err != nil {
			return fail(err)
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeHeapProfile writes a profile of the live heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // report only live allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail reports err and returns the exit status of a failed run.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sparsebench:", err)
	return 1
}
