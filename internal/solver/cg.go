package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// CG solves the symmetric positive definite linear system A·x = b with the
// conjugate gradient method, expressed as a task-dataflow program over the
// same CSB decomposition as the eigensolvers. The paper's introduction
// motivates task parallelism for "the solution of systems of linear
// equations" alongside eigenproblems; CG is the canonical such solver and
// exercises the same SpMV/DOT/AXPBY kernel mix as Lanczos with an even
// shorter critical path.
//
// Per-iteration program (fixed shape; scalar recurrences run as small steps):
//
//	q      = A·p          (SpMV)
//	pq     = pᵀ·q         (DOT)
//	α      = rr/pq        (small step)
//	x     += α·p          (AXPBY, via scalar-bearing small trick below)
//	r     -= α·q
//	rrNew  = rᵀ·r         (DOT)
//	β      = rrNew/rr     (small step)
//	p      = r + β·p
//
// AXPBY coefficients in the program IR are static, so the α/β-dependent
// updates use the DiagScale-style pattern: a width-1 coefficient vector is
// broadcast by a small step and applied per block. To keep the kernel mix
// faithful without adding bespoke kernels, the scalar multiplies are folded
// into ScaleInv and Axpby by maintaining scaled copies.
type CG struct {
	A sparse.Matrix
	// Tol is the convergence threshold on ‖r‖/‖b‖.
	Tol     float64
	MaxIter int

	prog *program.Program
	g    *graph.TDG
	st   *program.Store

	opA, opX, opP, opQ, opR program.OperandID
	opAP                    program.OperandID // α·p
	opAQ                    program.OperandID // α·q
	opBP                    program.OperandID // β·p
	opPQ, opRR, opRRN       program.OperandID // scalars
	opAlphaInv, opBetaInv   program.OperandID // scalars used via ScaleInv
	opRnorm                 program.OperandID
}

// NewCG builds the solver and its single-iteration TDG. A *sparse.SymCSB
// matrix routes the SpMV through the symmetry-exploiting kernels.
func NewCG(a sparse.Matrix) (*CG, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("solver: CG needs a square matrix, got %dx%d", rows, cols)
	}
	c := &CG{A: a, Tol: 1e-10, MaxIter: 10 * rows}
	p := program.New(rows, a.BlockSize())
	c.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, err
	}
	c.opA = w.op
	c.opX = p.Vec("x", 1)
	c.opP = p.Vec("p", 1)
	c.opQ = p.Vec("q", 1)
	c.opR = p.Vec("r", 1)
	c.opAP = p.Vec("alpha_p", 1)
	c.opAQ = p.Vec("alpha_q", 1)
	c.opBP = p.Vec("beta_p", 1)
	c.opPQ = p.Scalar("pq")
	c.opRR = p.Scalar("rr")
	c.opRRN = p.Scalar("rr_new")
	c.opAlphaInv = p.Scalar("alpha_inv")
	c.opBetaInv = p.Scalar("beta_inv")
	c.opRnorm = p.Scalar("rnorm")

	// q = A·p ; pq = pᵀq.
	w.spmm(p, c.opQ, c.opP)
	p.Dot(c.opPQ, c.opP, c.opQ)
	// α = rr/pq computed as its inverse so ScaleInv can apply it:
	// alpha_inv = pq/rr.
	p.SmallStep("alpha", func(st *program.Store) {
		rr := st.Scalars[c.opRR]
		pq := st.Scalars[c.opPQ]
		if rr == 0 {
			st.Scalars[c.opAlphaInv] = 0 // converged; updates become zero
		} else {
			st.Scalars[c.opAlphaInv] = pq / rr
		}
	}, []program.OperandID{c.opRR, c.opPQ}, []program.OperandID{c.opAlphaInv})
	// alpha_p = p/alpha_inv = α·p ; alpha_q = q/alpha_inv = α·q.
	p.ScaleInv(c.opAP, c.opP, c.opAlphaInv).MarkIndexLaunch()
	p.ScaleInv(c.opAQ, c.opQ, c.opAlphaInv).MarkIndexLaunch()
	// x += α·p ; r -= α·q.
	p.Axpby(c.opX, 1, c.opX, 1, c.opAP)
	p.Axpby(c.opR, 1, c.opR, -1, c.opAQ)
	// rr_new = rᵀr and the residual norm for convergence.
	p.Dot(c.opRRN, c.opR, c.opR)
	p.Norm(c.opRnorm, c.opR)
	// β = rr_new/rr, applied as beta_inv = rr/rr_new via ScaleInv; then
	// p = r + β·p and the rr recurrence advances.
	p.SmallStep("beta", func(st *program.Store) {
		rrn := st.Scalars[c.opRRN]
		rr := st.Scalars[c.opRR]
		if rrn == 0 {
			st.Scalars[c.opBetaInv] = 0
		} else {
			st.Scalars[c.opBetaInv] = rr / rrn
		}
		st.Scalars[c.opRR] = rrn
	}, []program.OperandID{c.opRR, c.opRRN}, []program.OperandID{c.opBetaInv, c.opRR})
	p.ScaleInv(c.opBP, c.opP, c.opBetaInv).MarkIndexLaunch()
	p.Axpby(c.opP, 1, c.opR, 1, c.opBP)

	opt := graph.DefaultOptions()
	g, err := w.buildGraph(p, opt)
	if err != nil {
		return nil, err
	}
	c.g = g
	c.st = program.NewStore(p)
	w.attach(c.st)
	return c, nil
}

// Graph exposes the per-iteration TDG.
func (c *CG) Graph() *graph.TDG { return c.g }

// Program exposes the per-iteration program.
func (c *CG) Program() *program.Program { return c.prog }

// Solve runs CG for the right-hand side b under the given runtime (nil =
// sequential BSP) and returns the solution, the final relative residual, and
// the iteration count. Cancelling ctx aborts the solve mid-iteration and
// returns the context's error.
func (c *CG) Solve(ctx context.Context, r rt.Runtime, b []float64) ([]float64, float64, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, _ := c.A.Dims()
	if len(b) != m {
		return nil, 0, 0, fmt.Errorf("solver: CG rhs has length %d, want %d", len(b), m)
	}
	if r == nil {
		r = rt.NewBSP(rt.Options{Workers: 1})
	}
	bn := blas.Nrm2(b)
	if bn == 0 {
		return make([]float64, m), 0, 0, nil
	}
	c.initState(b)
	pr := rt.PrepareRun(r, c.g, c.st)
	defer pr.Close()
	var relres float64
	for it := 1; it <= c.MaxIter; it++ {
		rnorm, err := c.iterate(ctx, pr)
		if err != nil {
			return nil, relres, it - 1, err
		}
		relres = rnorm / bn
		if relres < c.Tol {
			x := append([]float64(nil), c.st.Vec[c.opX]...)
			return x, relres, it, nil
		}
	}
	x := append([]float64(nil), c.st.Vec[c.opX]...)
	return x, relres, c.MaxIter, errors.New("solver: CG did not converge")
}

// initState seeds the CG state: x0 = 0, r0 = p0 = b, rr = r0ᵀr0.
func (c *CG) initState(b []float64) {
	zero(c.st.Vec[c.opX])
	copy(c.st.Vec[c.opR], b)
	copy(c.st.Vec[c.opP], b)
	c.st.Scalars[c.opRR] = blas.Dot(b, b)
}

// iterate executes one CG iteration (one full graph run) and returns the
// residual norm it measured. Steady-state calls perform no heap allocations.
//
//sparselint:hotpath
func (c *CG) iterate(ctx context.Context, pr rt.PreparedRun) (float64, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return c.st.Scalars[c.opRnorm], nil
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
