// Package solver implements the paper's two benchmark eigensolvers — Lanczos
// (Alg. 1, SpMV-based) and LOBPCG (Alg. 2, SpMM-based) — as task-dataflow
// programs over block-partitioned operands, plus sequential reference
// implementations used for validation.
//
// Each solver builds one fixed-shape program for a single iteration; the
// runtime executes that program's TDG once per iteration with a barrier
// between iterations (the structure all three frameworks use in the paper,
// since the convergence check pins iterations anyway). Host code between
// iterations is limited to O(m) bookkeeping and the convergence test.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// Result reports a solver run.
type Result struct {
	// Eigenvalues in descending order for Lanczos (largest first, as Alg. 1
	// targets) and ascending for LOBPCG (smallest first, as Alg. 2 targets).
	Eigenvalues []float64
	Iterations  int
	// Residual is the final convergence metric: |β_k| for Lanczos, the
	// Frobenius residual norm for LOBPCG.
	Residual  float64
	Converged bool
}

// Lanczos computes the k algebraically largest eigenvalues of a symmetric
// matrix via the Lanczos process with full reorthogonalization.
//
// Per-iteration program (fixed shape so one TDG serves all iterations):
//
//	z     = A·q           (SpMV)
//	C     = Qbᵀ·z         (XTY against the full preallocated basis; columns
//	                       beyond the current iteration are zero and
//	                       contribute nothing)
//	z    -= Qb·C          (XY, full reorthogonalization; α_i = C[i-1])
//	β     = ‖z‖           (NORM)
//	qn    = z/β           (SCALE)
//
// The host then appends qn as basis column i and advances q ← qn.
type Lanczos struct {
	A sparse.Matrix
	K int
	// Tol stops early when |β| < Tol (invariant subspace found).
	Tol float64

	prog  *program.Program
	g     *graph.TDG
	st    *program.Store
	opA   program.OperandID
	opQ   program.OperandID // current Lanczos vector q_{i-1} (m×1)
	opZ   program.OperandID // work vector z (m×1)
	opQb  program.OperandID // basis Q (m×K)
	opC   program.OperandID // projection coefficients (K×1)
	opC2  program.OperandID // second-pass coefficients (K×1)
	opBt  program.OperandID // β scalar
	opQn  program.OperandID // next vector (m×1)
	alpha []float64
	beta  []float64
}

// NewLanczos builds the solver and its single-iteration TDG. A *sparse.SymCSB
// matrix routes the SpMV through the symmetry-exploiting kernels.
func NewLanczos(a sparse.Matrix, k int) (*Lanczos, error) {
	l, w, err := planLanczos(a, k, matWiring.buildGraph)
	if err != nil {
		return nil, err
	}
	l.st = program.NewStore(l.prog)
	w.attach(l.st)
	return l, nil
}

// LanczosGraph builds the single-iteration TDG of NewLanczos(a, k) as
// graph.Build expands it — the unfused source of the graph the solver runs —
// without the operand store: what a cost model needs of the solver. It reads
// only a's tile occupancy, so a sparse.COO.TileSkeleton will do for a.
func LanczosGraph(a sparse.Matrix, k int) (*graph.TDG, error) {
	l, _, err := planLanczos(a, k, matWiring.expandGraph)
	if err != nil {
		return nil, err
	}
	return l.g, nil
}

// planLanczos is NewLanczos up to, not including, the operand store.
func planLanczos(a sparse.Matrix, k int, build graphBuilder) (*Lanczos, matWiring, error) {
	if k < 1 {
		return nil, matWiring{}, errors.New("solver: Lanczos needs k >= 1")
	}
	rows, cols := a.Dims()
	if rows != cols {
		return nil, matWiring{}, fmt.Errorf("solver: Lanczos needs a square matrix, got %dx%d", rows, cols)
	}
	if k > rows {
		return nil, matWiring{}, fmt.Errorf("solver: k=%d exceeds matrix dimension %d", k, rows)
	}
	l := &Lanczos{A: a, K: k, Tol: 1e-10}
	// Full capacity up front so per-iteration appends never reallocate.
	l.alpha = make([]float64, 0, k)
	l.beta = make([]float64, 0, k)
	p := program.New(rows, a.BlockSize())
	l.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, w, err
	}
	l.opA = w.op
	l.opQ = p.Vec("q", 1)
	l.opZ = p.Vec("z", 1)
	l.opQb = p.Vec("Qb", k)
	l.opC = p.Small("C", k, 1)
	l.opC2 = p.Small("C2", k, 1)
	l.opBt = p.Scalar("beta")
	l.opQn = p.Vec("qn", 1)

	w.spmm(p, l.opZ, l.opQ)
	// Two classical Gram–Schmidt passes ("twice is enough"): a single XTY+XY
	// pair leaves O(ε·‖z₀‖/β) orthogonality error, which destroys the
	// recurrence once β gets small near Krylov exhaustion.
	p.GemmT(l.opC, l.opQb, l.opZ)
	p.Gemm(l.opZ, -1, l.opQb, l.opC, 1).MarkIndexLaunch()
	p.GemmT(l.opC2, l.opQb, l.opZ)
	p.Gemm(l.opZ, -1, l.opQb, l.opC2, 1).MarkIndexLaunch()
	p.Norm(l.opBt, l.opZ)
	p.ScaleInv(l.opQn, l.opZ, l.opBt)

	opt := graph.DefaultOptions()
	l.g, err = build(w, p, opt)
	if err != nil {
		return nil, w, err
	}
	return l, w, nil
}

// Graph exposes the per-iteration TDG (for the simulator and analysis).
func (l *Lanczos) Graph() *graph.TDG { return l.g }

// Program exposes the per-iteration program.
func (l *Lanczos) Program() *program.Program { return l.prog }

// Run executes up to K iterations under the given runtime and returns the
// Ritz values of the resulting tridiagonal matrix. A nil runtime runs
// sequentially via the BSP backend with one worker. Cancelling ctx aborts
// the solve mid-iteration and returns the context's error; the solver's
// internal state is then poisoned and must not be reused.
func (l *Lanczos) Run(ctx context.Context, r rt.Runtime, seed int64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r == nil {
		r = rt.NewBSP(rt.Options{Workers: 1})
	}
	l.initState(seed)
	pr := r.Prepare(l.g, l.st)
	defer pr.Close()
	var res Result
	for it := 1; it <= l.K; it++ {
		stop, err := l.iterate(ctx, pr, it, &res)
		if err != nil {
			return res, err
		}
		if stop {
			break
		}
	}

	// Ritz values of the tridiagonal (α, β) via implicit QL.
	ev, err := blas.TridiagEig(l.alpha, l.beta)
	if err != nil {
		return res, fmt.Errorf("solver: tridiagonal eigensolve: %w", err)
	}
	// Largest first.
	for i, j := 0, len(ev)-1; i < j; i, j = i+1, j-1 {
		ev[i], ev[j] = ev[j], ev[i]
	}
	res.Eigenvalues = ev
	if !res.Converged {
		res.Converged = res.Iterations == l.K
	}
	return res, nil
}

// initState seeds the Lanczos state: q0 = b/‖b‖ for a random b, basis
// column 0 = q0, empty recurrence coefficients.
func (l *Lanczos) initState(seed int64) {
	l.alpha = l.alpha[:0]
	l.beta = l.beta[:0]
	rng := rand.New(rand.NewSource(seed))
	q := l.st.Vec[l.opQ]
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	blas.Scal(1/blas.Nrm2(q), q)
	qb := l.st.Vec[l.opQb]
	clear(qb)
	m, _ := l.A.Dims()
	for i := 0; i < m; i++ {
		qb[i*l.K] = q[i] // basis column 0
	}
}

// iterate runs Lanczos iteration it: one graph execution plus the O(m) host
// epilogue. Steady-state calls perform no heap allocations — alpha/beta have
// full capacity and the prepared executor reuses its scheduler state. It
// returns stop=true when the process is done: breakdown (res.Converged set)
// or the final iteration.
//
//sparselint:hotpath
func (l *Lanczos) iterate(ctx context.Context, pr rt.PreparedRun, it int, res *Result) (bool, error) {
	if err := pr.Run(ctx); err != nil {
		return true, err
	}
	// α_i is the projection of z on q_{i-1} = basis column it-1.
	c := l.st.Small[l.opC]
	//lint:ignore sparselint/hotpath alpha has cap K from NewLanczos; at most K appends per solve
	l.alpha = append(l.alpha, c[it-1])
	beta := l.st.Scalars[l.opBt]
	res.Iterations = it
	res.Residual = beta
	// Relative breakdown test: β shrinks to rounding level (relative to
	// the Ritz scale |α₁|) exactly when the Krylov space is exhausted.
	scale := 1.0
	if a0 := l.alpha[0]; a0 > scale || -a0 > scale {
		scale = a0
		if scale < 0 {
			scale = -scale
		}
	}
	if beta < l.Tol*scale {
		// Invariant subspace: the Krylov space is exhausted.
		res.Converged = true
		return true, nil
	}
	if it == l.K {
		return true, nil // last vector not needed
	}
	//lint:ignore sparselint/hotpath beta has cap K from NewLanczos; at most K appends per solve
	l.beta = append(l.beta, beta)
	// Host epilogue: append qn as basis column `it` and advance q.
	qn := l.st.Vec[l.opQn]
	qb := l.st.Vec[l.opQb]
	m, _ := l.A.Dims()
	for i := 0; i < m; i++ {
		qb[i*l.K+it] = qn[i]
	}
	copy(l.st.Vec[l.opQ], qn)
	return false, nil
}

// RitzVectors returns the Ritz vectors paired with the first `want` Ritz
// values of the most recent Run (descending eigenvalue order, m×want
// row-major): V = Q_basis · U where U are the tridiagonal eigenvectors.
func (l *Lanczos) RitzVectors(want int) ([]float64, error) {
	k := len(l.alpha)
	if k == 0 {
		return nil, errors.New("solver: RitzVectors before Run")
	}
	if want < 1 || want > k {
		return nil, fmt.Errorf("solver: want %d Ritz vectors, have %d", want, k)
	}
	_, u, err := blas.SymTriEig(l.alpha, l.beta)
	if err != nil {
		return nil, err
	}
	// SymTriEig orders ascending; Run reports descending, so column j of
	// the result pairs with tridiagonal eigenvector column k-1-j.
	m, _ := l.A.Dims()
	qb := l.st.Vec[l.opQb]
	out := make([]float64, m*want)
	for j := 0; j < want; j++ {
		src := k - 1 - j
		for i := 0; i < m; i++ {
			var v float64
			for c := 0; c < k; c++ {
				v += qb[i*l.K+c] * u[c*k+src]
			}
			out[i*want+j] = v
		}
	}
	return out, nil
}

// LanczosReference runs a plain sequential Lanczos with full
// reorthogonalization on a CSR matrix: the ground truth for tests.
func LanczosReference(a *sparse.CSR, k int, seed int64) ([]float64, error) {
	m := a.Rows
	rng := rand.New(rand.NewSource(seed))
	q := make([]float64, m)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	blas.Scal(1/blas.Nrm2(q), q)
	basis := [][]float64{append([]float64(nil), q...)}
	var alpha, beta []float64
	z := make([]float64, m)
	for it := 1; it <= k; it++ {
		a.SpMV(z, basis[len(basis)-1])
		// Two classical Gram–Schmidt passes, matching the task version's
		// XTY+XY pairs. α is the last first-pass coefficient.
		coeff := make([]float64, len(basis))
		for pass := 0; pass < 2; pass++ {
			c := make([]float64, len(basis))
			for j, qj := range basis {
				c[j] = blas.Dot(qj, z)
			}
			for j, qj := range basis {
				blas.Axpy(-c[j], qj, z)
			}
			if pass == 0 {
				copy(coeff, c)
			}
		}
		alpha = append(alpha, coeff[len(basis)-1])
		b := blas.Nrm2(z)
		scale := 1.0
		if alpha[0] > scale || -alpha[0] > scale {
			scale = math.Abs(alpha[0])
		}
		if b < 1e-10*scale || it == k {
			break
		}
		beta = append(beta, b)
		qn := append([]float64(nil), z...)
		blas.Scal(1/b, qn)
		basis = append(basis, qn)
	}
	ev, err := blas.TridiagEig(alpha, beta)
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(ev)-1; i < j; i, j = i+1, j-1 {
		ev[i], ev[j] = ev[j], ev[i]
	}
	return ev, nil
}
