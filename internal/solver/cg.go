package solver

import (
	"context"
	"errors"
	"math/rand"

	"sparsetask/internal/blas"
	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// CG solves the symmetric positive definite linear system A·x = b with the
// conjugate gradient method, expressed as a task-dataflow program over the
// same CSB decomposition as the eigensolvers. The paper's introduction
// motivates task parallelism for "the solution of systems of linear
// equations" alongside eigenproblems; CG is the canonical such solver and
// exercises the same SpMV/DOT/AXPBY kernel mix as Lanczos with an even
// shorter critical path. It is the batched driver at k = 1.
type CG struct{ *krylov }

// NewCG builds the solver and its single-iteration TDG. A *sparse.SymCSB
// matrix routes the SpMV through the symmetry-exploiting kernels.
func NewCG(a sparse.Matrix) (*CG, error) {
	c, err := newKrylov("CG", a, nil, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	return &CG{c}, nil
}

// Solve runs CG for the right-hand side b under the given runtime (nil =
// sequential BSP) and returns the solution, the final relative residual, and
// the iteration count; a breakdown or a solve that does not converge within
// MaxIter returns them with an error. Cancelling ctx aborts the solve
// mid-iteration and returns the context's error.
func (c *CG) Solve(ctx context.Context, r rt.Runtime, b []float64) ([]float64, float64, int, error) {
	return c.solveOne(ctx, r, b)
}

// PCG solves A·x = b with the preconditioned conjugate gradient method. The
// preconditioner application z = M⁻¹·r runs *inside* the per-iteration task
// graph: for an IC(0) factorization it is two level-scheduled triangular
// solves (CSpTrsv calls whose tasks form the factor's segment DAG — irregular,
// with a deep critical path), and for the Jacobi fallback a single DiagScale
// call. Everything else is CG's kernel mix, so one PCG iteration interleaves
// regular wide ranks (SpMV, AXPBY, DOT) with the skewed triangular
// wavefronts. It is the batched driver at k = 1.
type PCG struct{ *krylov }

// NewPCG builds the solver and its single-iteration TDG, deriving the
// triangular level structure by scanning the factors.
func NewPCG(a sparse.Matrix, m *precond.IC0) (*PCG, error) {
	return NewPCGWithLevels(a, m, nil, nil)
}

// NewPCGWithLevels is NewPCG with memoized level analyses for the forward
// and backward factors (precond.Levels at the CSB block size). solverd's
// operator cache passes these so a repeat solve skips the analysis and shares
// the factors' substitution layouts; nil levels are analysed here.
func NewPCGWithLevels(a sparse.Matrix, m *precond.IC0, lower, upper *precond.Levels) (*PCG, error) {
	c, err := newPreconditioned("PCG", a, m, 1, lower, upper)
	if err != nil {
		return nil, err
	}
	return &PCG{c}, nil
}

// Solve runs PCG for the right-hand side b (see CG.Solve).
func (c *PCG) Solve(ctx context.Context, r rt.Runtime, b []float64) ([]float64, float64, int, error) {
	return c.solveOne(ctx, r, b)
}

// CGReference is a plain sequential CG on CSR for validation.
func CGReference(a *sparse.CSR, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	m := a.Rows
	x := make([]float64, m)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	q := make([]float64, m)
	rr := blas.Dot(r, r)
	bn := blas.Nrm2(b)
	if bn == 0 {
		return x, 0, nil
	}
	for it := 1; it <= maxIter; it++ {
		a.SpMV(q, p)
		alpha := rr / blas.Dot(p, q)
		blas.Axpy(alpha, p, x)
		blas.Axpy(-alpha, q, r)
		rrn := blas.Dot(r, r)
		if blas.Nrm2(r)/bn < tol {
			return x, it, nil
		}
		beta := rrn / rr
		rr = rrn
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return x, maxIter, errors.New("solver: reference CG did not converge")
}

// PCGReference is a plain sequential PCG on CSR for validation, using the
// preconditioner's serial Apply.
func PCGReference(a *sparse.CSR, m *precond.IC0, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := a.Rows
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	y := make([]float64, n)
	q := make([]float64, n)
	m.Apply(z, y, r)
	p := append([]float64(nil), z...)
	rz := blas.Dot(r, z)
	bn := blas.Nrm2(b)
	if bn == 0 {
		return x, 0, nil
	}
	for it := 1; it <= maxIter; it++ {
		a.SpMV(q, p)
		alpha := rz / blas.Dot(p, q)
		blas.Axpy(alpha, p, x)
		blas.Axpy(-alpha, q, r)
		if blas.Nrm2(r)/bn < tol {
			return x, it, nil
		}
		m.Apply(z, y, r)
		rzn := blas.Dot(r, z)
		beta := rzn / rz
		rz = rzn
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, maxIter, errors.New("solver: reference PCG did not converge")
}

// RandomRHS returns a deterministic random right-hand side for examples and
// tests.
func RandomRHS(m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}
