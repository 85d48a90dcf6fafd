package main

import (
	"fmt"
	"math"

	"sparsetask/internal/blas"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// Tolerances of the output checks. Eigenvalues are compared with the
// sequential reference solvers relative to the largest reference eigenvalue;
// linear solves are checked by the true residual recomputed from x. LOBPCG
// runs a fixed ten iterations and stops unconverged, where a different
// summation order (tiles against CSR rows) is amplified from 1e-16 to as much
// as 2e-7 on the 65k-row FEM matrix (seed 4) — hence its looser tolerance; a
// wrong kernel shows as an error of order one.
const (
	lanczosTol  = 1e-8
	lobpcgTol   = 1e-5
	residualTol = 1e-8
)

// trueResidual returns ‖b − A·x‖/‖b‖ computed on CSR, independently of the
// solver's own recurrence.
func trueResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != len(b) {
		return math.Inf(1)
	}
	r := make([]float64, len(b))
	a.SpMV(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return blas.Nrm2(r) / blas.Nrm2(b)
}

// referenceEig computes the eigenvalues the sequential reference solver
// returns for an eigen solve.
func referenceEig(a *sparse.CSR, spec solveSpec) ([]float64, error) {
	switch spec.solver {
	case "lanczos":
		return solver.LanczosReference(a, spec.k, spec.seed)
	case "lobpcg":
		lam, _, err := solver.LOBPCGReference(a, spec.k, spec.iters, spec.seed)
		return lam, err
	}
	return nil, fmt.Errorf("no eigen reference for %q", spec.solver)
}

// eigMismatch reports how got differs from want, or "" when every eigenvalue
// agrees within the solver's tolerance of the largest reference magnitude.
func eigMismatch(solver string, got, want []float64) string {
	tol := lanczosTol
	if solver == "lobpcg" {
		tol = lobpcgTol
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d eigenvalues, reference has %d", len(got), len(want))
	}
	scale := 1.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			return fmt.Sprintf("eigenvalue %d is %.17g, reference %.17g", i, got[i], want[i])
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
