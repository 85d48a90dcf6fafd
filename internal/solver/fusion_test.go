package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// fusionCase runs one solver to completion and flattens everything it
// returned — eigenvalues or solutions, residuals, iteration counts — into one
// slice, so two runs can be compared bit for bit. unfused swaps the solver's
// graph for the graph.Build output it was fused from before running.
type fusionCase struct {
	name string
	run  func(r rt.Runtime, unfused bool) ([]float64, error)
}

func fusionCases(t *testing.T, a sparse.Matrix, ic *precond.IC0, rows int) []fusionCase {
	t.Helper()
	ctx := context.Background()
	rhs := [][]float64{RandomRHS(rows, 3), RandomRHS(rows, 4), RandomRHS(rows, 5)}
	source := func(g **graph.TDG, unfused bool) {
		if (*g).Unfused == nil {
			t.Fatal("solver iterates on an unfused graph")
		}
		if unfused {
			*g = (*g).Unfused
		}
	}
	eig := func(res Result, err error) ([]float64, error) {
		return append(append([]float64(nil), res.Eigenvalues...), res.Residual, float64(res.Iterations)), err
	}
	cols := func(res []BatchColResult, err error) ([]float64, error) {
		var out []float64
		for _, c := range res {
			out = append(append(out, c.X...), c.RelRes, float64(c.Iterations))
		}
		return out, err
	}
	cases := []fusionCase{
		{"lanczos", func(r rt.Runtime, unfused bool) ([]float64, error) {
			l, err := NewLanczos(a, 20)
			if err != nil {
				return nil, err
			}
			source(&l.g, unfused)
			return eig(l.Run(ctx, r, 7))
		}},
		{"lobpcg", func(r rt.Runtime, unfused bool) ([]float64, error) {
			l, err := NewLOBPCG(a, 3)
			if err != nil {
				return nil, err
			}
			source(&l.g, unfused)
			return eig(l.Run(ctx, r, 7, 6))
		}},
	}
	// The one CG/PCG driver, at the width CG and PCG run it and at a batch's.
	for _, k := range []int{1, 3} {
		for _, m := range []*precond.IC0{nil, ic} {
			cases = append(cases, fusionCase{fmt.Sprintf("krylov k=%d pcg=%v", k, m != nil), func(r rt.Runtime, unfused bool) ([]float64, error) {
				c, err := newKrylov("test", a, m, k, nil, nil)
				if err != nil {
					return nil, err
				}
				source(&c.g, unfused)
				return cols(c.Solve(ctx, r, rhs[:k]))
			}})
		}
	}
	return cases
}

// TestFusedSolversBitIdentical is the bit-identity statement of graph fusion:
// every solver, run on its fused graph under every backend at 1, 2 and 4
// workers, returns exactly what it returns on the unfused graph executed in
// program order — the same eigenvalues or solutions, the same residuals, the
// same iteration counts.
func TestFusedSolversBitIdentical(t *testing.T) {
	const rows, block = 240, 16
	coo := randomSPD(rows, 11)
	ic, err := precond.Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	sym, err := coo.ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []sparse.Matrix{coo.ToCSB(block), sym} {
		for _, c := range fusionCases(t, a, ic, rows) {
			want, err := c.run(rt.NewDeepSparse(rt.Options{Workers: 1}), true)
			if err != nil {
				t.Fatalf("%s on %T, unfused: %v", c.name, a, err)
			}
			for _, w := range []int{1, 2, 4} {
				opt := rt.Options{Workers: w, AnalysisCost: 1}
				for _, r := range allBackends(opt) {
					name := fmt.Sprintf("%s on %T, %s, %d workers", c.name, a, r.Name(), w)
					got, err := c.run(r, false)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d values, unfused run returned %d", name, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: value %d is %v, unfused run returned %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
