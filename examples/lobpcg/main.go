// LOBPCG with cache-miss simulation: runs the same per-iteration task graph
// under all five solver versions on the simulated 128-core EPYC node and
// reports per-version cache misses and speedup over the libcsr baseline —
// a single-matrix slice of the paper's Figs. 11 and 12.
package main

import (
	"fmt"
	"log"

	"sparsetask/internal/autotune"
	"sparsetask/internal/bench"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
)

func main() {
	preset := matgen.Small
	spec, err := matgen.SpecByName("nlpkkt200")
	if err != nil {
		log.Fatal(err)
	}
	coo := spec.Build(preset, 1)
	fmt.Printf("matrix: %s analog, %dx%d, %d nonzeros\n", spec.Name, coo.Rows, coo.Cols, coo.NNZ())

	mach, err := machine.ByName("epyc")
	if err != nil {
		log.Fatal(err)
	}
	mach = mach.Scaled(preset.CacheDiv).SlowDown(preset.SlowDown)
	fmt.Printf("machine: %s, %d cores, %d NUMA domains\n\n", mach.Name, mach.Cores, mach.NUMADomains)

	const iters = 3
	var baseTime float64
	fmt.Printf("%-11s %6s %12s %12s %12s %9s\n", "version", "tasks", "L1 misses", "L2 misses", "L3 misses", "speedup")
	for _, v := range bench.Versions() {
		// The simulator models the paper's frameworks: no task fusion.
		g, err := autotune.IterationGraph(coo, autotune.LOBPCG, v.BlockCount(mach, coo.Rows))
		if err != nil {
			log.Fatal(err)
		}
		pol := v.Policy(mach, preset.OverheadScale())
		s := sim.New(mach, true)
		s.PlaceFirstTouch(g, pol.Workers())
		avg, ctr, err := s.Measure(g, pol, iters, nil)
		if err != nil {
			log.Fatal(err)
		}
		if v.Name == "libcsr" {
			baseTime = avg
		}
		fmt.Printf("%-11s %6d %12d %12d %12d %8.2fx\n",
			v.Name, len(g.Tasks), ctr.L1Miss, ctr.L2Miss, ctr.L3Miss, baseTime/avg)
	}
	fmt.Println("\n(speedup over libcsr; task-dataflow versions pipeline kernels and avoid library packing traffic)")
}
