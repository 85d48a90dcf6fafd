package solver

import (
	"context"
	"errors"
	"fmt"

	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// PCG solves A·x = b with the preconditioned conjugate gradient method. The
// preconditioner application z = M⁻¹·r runs *inside* the per-iteration task
// graph: for an IC(0) factorization it is two level-scheduled triangular
// solves (CSpTrsv calls whose tasks form the factor's level DAG — the
// irregular, deep-critical-path graph shape this PR introduces), and for the
// Jacobi fallback a single DiagScale call. Everything else reuses the CG
// kernel mix, so one PCG iteration interleaves regular wide ranks (SpMV,
// AXPBY, DOT) with the skewed triangular wavefronts.
//
// Per-iteration program:
//
//	q      = A·p          (SpMV)
//	pq     = pᵀ·q         (DOT)
//	α      = rz/pq        (small step, applied via ScaleInv)
//	x     += α·p ; r -= α·q
//	rnorm  = ‖r‖          (convergence)
//	z      = M⁻¹·r        (TRSV·2 or DSCALE)
//	rzNew  = rᵀ·z         (DOT)
//	β      = rzNew/rz     (small step, applied via ScaleInv)
//	p      = z + β·p
type PCG struct {
	A sparse.Matrix
	M *precond.IC0
	// Tol is the convergence threshold on ‖r‖/‖b‖.
	Tol     float64
	MaxIter int

	prog *program.Program
	g    *graph.TDG
	st   *program.Store

	opA, opX, opP, opQ, opR program.OperandID
	opZ                     program.OperandID // z = M⁻¹·r
	opY                     program.OperandID // forward-solve intermediate
	opL, opU                program.OperandID // IC(0) factors (KindIC0 only)
	opD                     program.OperandID // inverse diagonal (KindJacobi only)
	opAP, opAQ, opBP        program.OperandID
	opPQ, opRZ, opRZN       program.OperandID
	opAlphaInv, opBetaInv   program.OperandID
	opRnorm                 program.OperandID
}

// NewPCG builds the solver and its single-iteration TDG, deriving the
// triangular level structure by scanning the factors.
func NewPCG(a sparse.Matrix, m *precond.IC0) (*PCG, error) {
	return NewPCGWithLevels(a, m, nil, nil)
}

// NewPCGWithLevels is NewPCG with memoized level analyses for the forward
// and backward factors (precond.Levels at the CSB block size). solverd's
// factorization cache passes these so a repeat solve skips the level
// re-analysis; nil lowers/uppers fall back to scanning.
func NewPCGWithLevels(a sparse.Matrix, m *precond.IC0, lower, upper *precond.Levels) (*PCG, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("solver: PCG needs a square matrix, got %dx%d", rows, cols)
	}
	if m == nil {
		return nil, errors.New("solver: PCG needs a preconditioner (use CG for none)")
	}
	if m.Rows != rows {
		return nil, fmt.Errorf("solver: preconditioner is over %d rows, matrix has %d", m.Rows, rows)
	}
	c := &PCG{A: a, M: m, Tol: 1e-10, MaxIter: 10 * rows}
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
	c.opZ = p.Vec("z", 1)
	c.opAP = p.Vec("alpha_p", 1)
	c.opAQ = p.Vec("alpha_q", 1)
	c.opBP = p.Vec("beta_p", 1)
	c.opPQ = p.Scalar("pq")
	c.opRZ = p.Scalar("rz")
	c.opRZN = p.Scalar("rz_new")
	c.opAlphaInv = p.Scalar("alpha_inv")
	c.opBetaInv = p.Scalar("beta_inv")
	c.opRnorm = p.Scalar("rnorm")

	// q = A·p ; pq = pᵀq ; alpha_inv = pq/rz so ScaleInv applies α.
	w.spmm(p, c.opQ, c.opP)
	p.Dot(c.opPQ, c.opP, c.opQ)
	p.SmallStep("alpha", func(st *program.Store) {
		rz := st.Scalars[c.opRZ]
		pq := st.Scalars[c.opPQ]
		if rz == 0 {
			st.Scalars[c.opAlphaInv] = 0 // converged; updates become zero
		} else {
			st.Scalars[c.opAlphaInv] = pq / rz
		}
	}, []program.OperandID{c.opRZ, c.opPQ}, []program.OperandID{c.opAlphaInv})
	p.ScaleInv(c.opAP, c.opP, c.opAlphaInv).MarkIndexLaunch()
	p.ScaleInv(c.opAQ, c.opQ, c.opAlphaInv).MarkIndexLaunch()
	p.Axpby(c.opX, 1, c.opX, 1, c.opAP)
	p.Axpby(c.opR, 1, c.opR, -1, c.opAQ)
	p.Norm(c.opRnorm, c.opR)

	// z = M⁻¹·r: the preconditioner application.
	opt := graph.DefaultOptions()
	if m.Kind == precond.KindIC0 {
		c.opL = p.Tri("L")
		c.opU = p.Tri("U")
		c.opY = p.Vec("y", 1)
		p.SpTrsvLower(c.opY, c.opL, c.opR)
		p.SpTrsvUpper(c.opZ, c.opU, c.opY)
		opt.Tris = map[program.OperandID]*sparse.CSR{c.opL: m.L, c.opU: m.U}
		if lower != nil && upper != nil && lower.Block == a.BlockSize() && upper.Block == a.BlockSize() {
			opt.TriDeps = map[program.OperandID][][]int32{
				c.opL: lower.BlockDeps,
				c.opU: upper.BlockDeps,
			}
		}
	} else {
		c.opD = p.Vec("dinv", 1)
		p.DiagScale(c.opZ, c.opD, c.opR).MarkIndexLaunch()
	}

	// rz_new = rᵀz ; β = rz_new/rz applied via ScaleInv; p = z + β·p.
	p.Dot(c.opRZN, c.opR, c.opZ)
	p.SmallStep("beta", func(st *program.Store) {
		rzn := st.Scalars[c.opRZN]
		rz := st.Scalars[c.opRZ]
		if rzn == 0 {
			st.Scalars[c.opBetaInv] = 0
		} else {
			st.Scalars[c.opBetaInv] = rz / rzn
		}
		st.Scalars[c.opRZ] = rzn
	}, []program.OperandID{c.opRZ, c.opRZN}, []program.OperandID{c.opBetaInv, c.opRZ})
	p.ScaleInv(c.opBP, c.opP, c.opBetaInv).MarkIndexLaunch()
	p.Axpby(c.opP, 1, c.opZ, 1, c.opBP)

	g, err := w.buildGraph(p, opt)
	if err != nil {
		return nil, err
	}
	c.g = g
	c.st = program.NewStore(p)
	w.attach(c.st)
	if m.Kind == precond.KindIC0 {
		c.st.SetTri(c.opL, m.L)
		c.st.SetTri(c.opU, m.U)
	} else {
		copy(c.st.Vec[c.opD], m.DiagInv)
	}
	return c, nil
}

// Graph exposes the per-iteration TDG.
func (c *PCG) Graph() *graph.TDG { return c.g }

// Program exposes the per-iteration program.
func (c *PCG) Program() *program.Program { return c.prog }

// Solve runs PCG for the right-hand side b under the given runtime (nil =
// sequential BSP) and returns the solution, the final relative residual, and
// the iteration count.
func (c *PCG) Solve(ctx context.Context, r rt.Runtime, b []float64) ([]float64, float64, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, _ := c.A.Dims()
	if len(b) != m {
		return nil, 0, 0, fmt.Errorf("solver: PCG rhs has length %d, want %d", len(b), m)
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
	return x, relres, c.MaxIter, errors.New("solver: PCG did not converge")
}

// initState seeds the PCG state: x0 = 0, r0 = b, z0 = M⁻¹·r0 (applied
// serially — init is off the hot path), p0 = z0, rz = r0ᵀz0.
func (c *PCG) initState(b []float64) {
	zero(c.st.Vec[c.opX])
	copy(c.st.Vec[c.opR], b)
	z := c.st.Vec[c.opZ]
	if c.M.Kind == precond.KindIC0 {
		c.M.Apply(z, c.st.Vec[c.opY], b)
	} else {
		c.M.Apply(z, nil, b)
	}
	copy(c.st.Vec[c.opP], z)
	c.st.Scalars[c.opRZ] = blas.Dot(b, z)
}

// iterate executes one PCG iteration (one full graph run, including the
// level-scheduled triangular solves) and returns the residual norm it
// measured. Steady-state calls perform no heap allocations.
//
//sparselint:hotpath
func (c *PCG) iterate(ctx context.Context, pr rt.PreparedRun) (float64, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return c.st.Scalars[c.opRnorm], nil
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
