// Command flowgraph renders the per-worker execution flow graph of a solver
// iteration under a chosen runtime version — the textual analog of the
// paper's Figs. 10 and 13 — and optionally dumps the raw trace as TSV.
//
// Usage:
//
//	flowgraph -solver lobpcg -version deepsparse -arch broadwell -matrix nlpkkt240
//	flowgraph -solver lanczos -version libcsr -tsv trace.tsv
package main

import (
	"flag"
	"fmt"
	"os"

	"sparsetask/internal/autotune"
	"sparsetask/internal/bench"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
	"sparsetask/internal/trace"
)

func main() {
	var (
		solverName  = flag.String("solver", "lobpcg", "lanczos or lobpcg")
		versionName = flag.String("version", "deepsparse", "libcsr, libcsb, deepsparse, hpx, regent")
		archName    = flag.String("arch", "broadwell", "broadwell or epyc")
		matrixName  = flag.String("matrix", "nlpkkt240", "suite matrix name")
		preset      = flag.String("preset", "small", "tiny, small, medium")
		seed        = flag.Int64("seed", 1, "matrix seed")
		iters       = flag.Int("iters", 2, "iterations to trace")
		cols        = flag.Int("cols", 100, "timeline width in characters")
		tsvPath     = flag.String("tsv", "", "also write the raw trace as TSV to this file")
	)
	flag.Parse()
	if *iters < 1 {
		fatal(fmt.Errorf("-iters %d: need at least one iteration to trace", *iters))
	}
	if *cols < 1 {
		fatal(fmt.Errorf("-cols %d: the timeline needs at least one column", *cols))
	}

	p, err := matgen.PresetByName(*preset)
	if err != nil {
		fatal(err)
	}
	spec, err := matgen.SpecByName(*matrixName)
	if err != nil {
		fatal(err)
	}
	v, err := bench.VersionByName(*versionName)
	if err != nil {
		fatal(err)
	}
	mach, err := machine.ByName(*archName)
	if err != nil {
		fatal(err)
	}
	mach = mach.Scaled(p.CacheDiv).SlowDown(p.SlowDown)

	sv, ok := map[string]autotune.Solver{"lanczos": autotune.Lanczos, "lobpcg": autotune.LOBPCG}[*solverName]
	if !ok {
		fatal(fmt.Errorf("unknown solver %q", *solverName))
	}
	coo := spec.Build(p, *seed)
	// The simulator models the paper's frameworks, none of which fuses
	// tasks: render the unfused graph the solver's fused one derives from.
	g, err := autotune.IterationGraph(coo, sv, v.BlockCount(mach, coo.Rows))
	if err != nil {
		fatal(err)
	}

	pol := v.Policy(mach, p.OverheadScale())
	s := sim.New(mach, true)
	s.PlaceFirstTouch(g, pol.Workers())
	rec := trace.NewRecorder(mach.Cores)
	if _, _, err := s.Measure(g, pol, *iters, rec); err != nil {
		fatal(err)
	}

	st := g.ComputeStats()
	fmt.Printf("%s / %s on %s, %s: %d tasks/iter, critical path %d, %d iterations, makespan %.3f ms, kernel overlap %.2f\n",
		*solverName, *versionName, mach.Name, *matrixName,
		st.Tasks, st.CriticalPath, *iters, float64(rec.Span())/1e6, rec.PipelineOverlap())
	if err := rec.RenderASCII(os.Stdout, *cols); err != nil {
		fatal(err)
	}
	if *tsvPath != "" {
		f, err := os.Create(*tsvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteTSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tsvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowgraph:", err)
	os.Exit(1)
}
