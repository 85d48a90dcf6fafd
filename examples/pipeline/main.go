// Pipeline shows the full preprocessing workflow a downstream user would run
// on their own matrix: load a MatrixMarket file (here written to a temp file
// first, so the example is self-contained), symmetrize it as the paper does,
// reduce bandwidth with reverse Cuthill–McKee, auto-tune the CSB block count
// with the §5.4 six-bin heuristic, and solve with preconditioned LOBPCG.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sparsetask/internal/autotune"
	"sparsetask/internal/bench"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/rt"
	"sparsetask/internal/sim"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

func main() {
	// --- 0. Produce a MatrixMarket file (stand-in for the user's input). ---
	path := filepath.Join(os.TempDir(), "pipeline_example.mtx")
	{
		coo := matgen.BandCFD(3000, 24, 600, 7)
		// Hide the band behind a random relabeling so RCM has work to do.
		scrambled, err := coo.Permute(shuffle(coo.Rows))
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := sparse.WriteMatrixMarket(f, scrambled); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	defer os.Remove(path)

	// --- 1. Load. ---
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	coo, err := sparse.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %s\n", filepath.Base(path), sparse.ComputeStats(coo.ToCSR()))

	// --- 2. Symmetrize (A = L + Lᵀ − D), as the paper does for
	//        non-symmetric inputs. Already symmetric here; harmless. ---
	coo.Symmetrize()

	// --- 3. Bandwidth reduction with RCM: concentrates CSB tiles on the
	//        diagonal so more empty tiles can be skipped. ---
	before := sparse.ComputeStats(coo.ToCSR()).Bandwidth
	perm, err := sparse.RCM(coo.ToCSR())
	if err != nil {
		log.Fatal(err)
	}
	coo, err = coo.Permute(perm)
	if err != nil {
		log.Fatal(err)
	}
	after := sparse.ComputeStats(coo.ToCSR()).Bandwidth
	fmt.Printf("RCM bandwidth: %d -> %d\n", before, after)

	// --- 4. Auto-tune the CSB block count (§5.4 six-bin heuristic) against
	//        the simulated Broadwell model. ---
	mach := machine.Broadwell()
	tuned, err := autotune.Tune(coo.Rows, bench.SimEvaluator(coo, autotune.LOBPCG, mach,
		func(m machine.Model) sim.Policy { return sim.NewDeepSparse(m.Cores) }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autotuned block count: %d (bin %s, block %d rows)\n", tuned.BlockCount, tuned.Bin, tuned.Block)
	for _, tr := range tuned.Trials {
		fmt.Printf("  bin %-8s bc=%-4d cost=%.3f ms\n", tr.Bin, tr.BlockCount, tr.Cost/1e6)
	}

	// --- 5. Solve with Jacobi-preconditioned LOBPCG at the tuned tiling. ---
	csb := coo.ToCSB(tuned.Block)
	l, err := solver.NewLOBPCG(csb, 4, solver.WithJacobiPreconditioner())
	if err != nil {
		log.Fatal(err)
	}
	l.Tol = 1e-6
	res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{}), 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LOBPCG: converged=%v in %d iterations, residual %.2e\n",
		res.Converged, res.Iterations, res.Residual)
	for i, ev := range res.Eigenvalues {
		fmt.Printf("  λ_%d = %.8f\n", i, ev)
	}
}

// shuffle returns a deterministic pseudo-random permutation (new→old).
func shuffle(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	state := uint64(12345)
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
