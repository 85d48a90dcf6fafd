// LOBPCG with cache-miss simulation: runs the same per-iteration task graph
// under all five solver versions on the simulated 128-core EPYC node and
// reports per-version cache misses and speedup over the libcsr baseline —
// a single-matrix slice of the paper's Figs. 11 and 12.
package main

import (
	"fmt"
	"log"

	"sparsetask/internal/bench"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
	"sparsetask/internal/solver"
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
		bc := v.BlockCount(mach, coo.Rows)
		block := (coo.Rows + bc - 1) / bc
		csb := coo.ToCSB(block)
		l, err := solver.NewLOBPCG(csb, 8)
		if err != nil {
			log.Fatal(err)
		}
		g := l.Graph().Source() // the simulator models the paper's frameworks: no task fusion
		pol := v.Policy(mach, preset.OverheadScale())
		s := sim.New(mach, true)
		s.PlaceFirstTouch(g, pol.Workers())
		if _, err := s.Run(g, pol, nil); err != nil { // warm caches
			log.Fatal(err)
		}
		var total float64
		var l1, l2, l3 int64
		for i := 0; i < iters; i++ {
			r, err := s.Run(g, pol, nil)
			if err != nil {
				log.Fatal(err)
			}
			total += float64(r.MakespanNs)
			l1 += r.Counters.L1Miss
			l2 += r.Counters.L2Miss
			l3 += r.Counters.L3Miss
		}
		avg := total / iters
		if v.Name == "libcsr" {
			baseTime = avg
		}
		fmt.Printf("%-11s %6d %12d %12d %12d %8.2fx\n",
			v.Name, len(g.Tasks), l1, l2, l3, baseTime/avg)
	}
	fmt.Println("\n(speedup over libcsr; task-dataflow versions pipeline kernels and avoid library packing traffic)")
}
