// Blocktune demonstrates the paper's §5.4 block-size selection heuristic:
// sweep CSB block counts for a solver/matrix/runtime combination, observe
// the overhead-vs-parallelism U-curve, and check that the optimum lands in
// the paper's [8, 511] block-count window — so tuning reduces to comparing
// six candidate bins instead of brute-forcing every power of two.
package main

import (
	"fmt"
	"log"

	"sparsetask/internal/graph"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

func buildLOBPCGGraph(coo *sparse.COO, blockCount int) *graph.TDG {
	block := (coo.Rows + blockCount - 1) / blockCount
	csb := coo.ToCSB(block)
	l, err := solver.NewLOBPCG(csb, 8)
	if err != nil {
		log.Fatal(err)
	}
	return l.Graph().Source() // the simulator models the paper's frameworks: no task fusion
}

func main() {
	preset := matgen.Small
	spec, err := matgen.SpecByName("nlpkkt160")
	if err != nil {
		log.Fatal(err)
	}
	coo := spec.Build(preset, 1)
	mach, err := machine.ByName("broadwell")
	if err != nil {
		log.Fatal(err)
	}
	mach = mach.Scaled(preset.CacheDiv).SlowDown(preset.SlowDown)

	fmt.Printf("LOBPCG on %s analog (%d rows), DeepSparse-style runtime, %s model\n\n",
		spec.Name, coo.Rows, mach.Name)
	fmt.Printf("%10s %10s %12s %14s\n", "blockcount", "tasks", "time (ms)", "")

	bestTime, bestBC := -1.0, 0
	var times []float64
	counts := []int{4, 8, 16, 32, 64, 128, 256, 512}
	for _, bc := range counts {
		if bc > coo.Rows/8 {
			break
		}
		g := buildLOBPCGGraph(coo, bc)
		pol := sim.NewDeepSparse(mach.Cores)
		s := sim.New(mach, true)
		s.PlaceFirstTouch(g, pol.Workers())
		if _, err := s.Run(g, pol, nil); err != nil {
			log.Fatal(err)
		}
		r, err := s.Run(g, pol, nil)
		if err != nil {
			log.Fatal(err)
		}
		t := float64(r.MakespanNs) / 1e6
		times = append(times, t)
		bar := ""
		for i := 0; i < int(t*40/max(times)); i++ {
			bar += "#"
		}
		fmt.Printf("%10d %10d %12.3f %s\n", bc, len(g.Tasks), t, bar)
		if bestTime < 0 || t < bestTime {
			bestTime, bestBC = t, bc
		}
	}
	fmt.Printf("\noptimal block count: %d", bestBC)
	if bestBC >= 8 && bestBC <= 511 {
		fmt.Println(" — inside the paper's [8, 511] rule-of-thumb window")
	} else {
		fmt.Println(" — OUTSIDE the paper's [8, 511] window (unexpected)")
	}
	fmt.Println("small blocks pay scheduling overhead; large blocks starve cores and lose pipelining")

	// The same program IR can be inspected directly:
	g := buildLOBPCGGraph(coo, bestBC)
	st := g.ComputeStats()
	fmt.Printf("\nat the optimum: %d tasks, %d edges, critical path %d, max width %d\n",
		st.Tasks, st.Edges, st.CriticalPath, st.MaxWidth)
}

func max(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
