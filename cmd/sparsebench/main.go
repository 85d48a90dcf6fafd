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

func main() {
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
		os.Exit(2)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-10s %-9s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "sparsebench: -exp required (use -list to see options)")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	p, err := matgen.PresetByName(*preset)
	if err != nil {
		fatal(err)
	}
	cfg := &bench.Config{
		Preset:      p,
		Seed:        *seed,
		Iterations:  *iters,
		MaxMatrices: *maxMat,
		Out:         os.Stdout,
	}
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.All()
	} else {
		e, err := bench.ByID(*expID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sparsebench: unknown experiment %q\n", *expID)
			fmt.Fprintln(os.Stderr, "valid experiment ids:")
			for _, known := range bench.All() {
				fmt.Fprintf(os.Stderr, "  %-10s %-9s %s\n", known.ID, known.Paper, known.Desc)
			}
			fmt.Fprintln(os.Stderr, "  all        (run every experiment)")
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		rep, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := rep.Write(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // report only live allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparsebench:", err)
	os.Exit(1)
}
