// Lanczos across all four runtime backends: computes the largest eigenvalues
// of a power-law graph matrix (the hard, load-imbalanced case) under BSP,
// DeepSparse-style, HPX-style and Regent-style execution, verifying that all
// runtimes produce identical Ritz values and reporting wall-clock times.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"sparsetask/internal/matgen"
	"sparsetask/internal/rt"
	"sparsetask/internal/solver"
)

func main() {
	// A twitter-like power-law graph: heavy hub rows make static
	// parallelization imbalanced.
	coo := matgen.RMAT(8192, 12, 0.6, 7)
	fmt.Printf("matrix: %dx%d, %d nonzeros (host has %d CPU(s); relative times depend on core count — see cmd/sparsebench for the paper-scale simulated comparison)\n",
		coo.Rows, coo.Cols, coo.NNZ(), runtime.NumCPU())

	csb := coo.ToCSB((coo.Rows + 95) / 96)
	const k = 20

	runtimes := []rt.Runtime{
		rt.NewBSP(rt.Options{}),
		rt.NewDeepSparse(rt.Options{}),
		rt.NewHPX(rt.Options{}),
		rt.NewRegent(rt.Options{DynamicTracing: true}),
	}

	var reference []float64
	var bspTime time.Duration
	for _, r := range runtimes {
		l, err := solver.NewLanczos(csb, k)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := l.Run(context.Background(), r, 3)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if r.Name() == "bsp" {
			bspTime = elapsed
		}
		speedup := float64(bspTime) / float64(elapsed)
		fmt.Printf("%-11s %8.2f ms  (%.2fx vs bsp)  λ_max=%.6f after %d iters\n",
			r.Name(), float64(elapsed.Microseconds())/1000, speedup,
			res.Eigenvalues[0], res.Iterations)
		if reference == nil {
			reference = res.Eigenvalues
			continue
		}
		for i := range reference {
			if res.Eigenvalues[i] != reference[i] {
				log.Fatalf("%s: Ritz value %d differs from BSP: %v vs %v",
					r.Name(), i, res.Eigenvalues[i], reference[i])
			}
		}
	}
	fmt.Println("all runtimes produced bitwise-identical Ritz values")
}
