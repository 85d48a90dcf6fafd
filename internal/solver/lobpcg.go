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

// LOBPCG computes the n smallest eigenvalues of a symmetric matrix with the
// Locally Optimal Block Preconditioned Conjugate Gradient method (Knyazev
// 2001; the paper's Alg. 2, unpreconditioned as in the paper's benchmarks).
//
// The per-iteration program is a fixed 30-call kernel sequence — one SpMM
// (HR = A·R), twelve XTY inner products forming the 3n×3n Rayleigh–Ritz Gram
// blocks, the sequential Rayleigh–Ritz solve, six XY updates rebuilding
// {Ψ, HΨ} from the subspace coefficients, and AXPBY/COPY bookkeeping for the
// conjugate directions. HΨ and HQ are maintained by the standard LOBPCG
// recurrences so only one SpMM runs per iteration; the task graph this
// produces is the deep, wide DAG of the paper's Fig. 4.
type LOBPCG struct {
	A sparse.Matrix
	N int // block width (paper uses 8–16)
	// Tol is the convergence threshold on the Frobenius residual norm
	// ‖HΨ − ΨM‖_F relative to the Ritz value magnitudes.
	Tol     float64
	MaxIter int

	// precondition enables the Jacobi (inverse-diagonal) preconditioner:
	// the residual block is scaled row-wise by 1/diag(A) before entering the
	// Rayleigh–Ritz basis, the "P" of LOBPCG (Alg. 2 runs unpreconditioned
	// in the paper's benchmarks; this is the standard extension).
	precondition bool

	prog   *program.Program
	g      *graph.TDG
	st     *program.Store
	opDinv program.OperandID

	opA                                 program.OperandID
	opPsi, opHPsi, opR, opHR, opQ, opHQ program.OperandID
	opPsiN, opHPsiN, opQN, opHQN        program.OperandID
	opM                                 program.OperandID
	opOPP, opOPR, opORR, opOPQ, opORQ   program.OperandID
	opOQQ                               program.OperandID
	opGPR, opGRR, opGPQ, opGRQ, opGQQ   program.OperandID
	opCP, opCR, opCQ, opLam             program.OperandID
	opRnorm                             program.OperandID
	firstIteration                      bool
	ws                                  *rrWorkspace
}

// Option configures a LOBPCG solver at construction.
type Option func(*LOBPCG)

// WithJacobiPreconditioner enables T = diag(A)⁻¹ preconditioning of the
// residual block, which accelerates convergence on matrices with strongly
// varying diagonals.
func WithJacobiPreconditioner() Option {
	return func(l *LOBPCG) { l.precondition = true }
}

// NewLOBPCG builds the solver and its single-iteration TDG for block width n.
// A *sparse.SymCSB matrix routes the SpMM through the symmetry-exploiting
// kernels (LOBPCG requires symmetry anyway, so this is the natural storage).
func NewLOBPCG(a sparse.Matrix, n int, opts ...Option) (*LOBPCG, error) {
	l, w, err := planLOBPCG(a, n, opts, matWiring.buildGraph)
	if err != nil {
		return nil, err
	}
	l.st = program.NewStore(l.prog)
	w.attach(l.st)
	l.ws = newRRWorkspace(n)
	return l, nil
}

// LOBPCGGraph builds the single-iteration TDG of NewLOBPCG(a, n) as
// graph.Build expands it, without the operand store or the Rayleigh–Ritz
// workspace (see LanczosGraph).
func LOBPCGGraph(a sparse.Matrix, n int) (*graph.TDG, error) {
	l, _, err := planLOBPCG(a, n, nil, matWiring.expandGraph)
	if err != nil {
		return nil, err
	}
	return l.g, nil
}

// planLOBPCG is NewLOBPCG up to, not including, the state a run needs.
func planLOBPCG(a sparse.Matrix, n int, opts []Option, build graphBuilder) (*LOBPCG, matWiring, error) {
	if n < 1 {
		return nil, matWiring{}, errors.New("solver: LOBPCG needs block width >= 1")
	}
	rows, cols := a.Dims()
	if rows != cols {
		return nil, matWiring{}, fmt.Errorf("solver: LOBPCG needs a square matrix, got %dx%d", rows, cols)
	}
	if 3*n > rows {
		return nil, matWiring{}, fmt.Errorf("solver: block width %d too large for dimension %d", n, rows)
	}
	l := &LOBPCG{A: a, N: n, Tol: 1e-8, MaxIter: 100}
	for _, o := range opts {
		o(l)
	}
	p := program.New(rows, a.BlockSize())
	l.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, w, err
	}
	l.opA = w.op
	l.opPsi = p.Vec("Psi", n)
	l.opHPsi = p.Vec("HPsi", n)
	l.opR = p.Vec("R", n)
	l.opHR = p.Vec("HR", n)
	l.opQ = p.Vec("Q", n)
	l.opHQ = p.Vec("HQ", n)
	l.opPsiN = p.Vec("PsiN", n)
	l.opHPsiN = p.Vec("HPsiN", n)
	l.opQN = p.Vec("QN", n)
	l.opHQN = p.Vec("HQN", n)
	l.opM = p.Small("M", n, n)
	l.opOPP = p.Small("oPP", n, n)
	l.opOPR = p.Small("oPR", n, n)
	l.opORR = p.Small("oRR", n, n)
	l.opOPQ = p.Small("oPQ", n, n)
	l.opORQ = p.Small("oRQ", n, n)
	l.opOQQ = p.Small("oQQ", n, n)
	l.opGPR = p.Small("gPR", n, n)
	l.opGRR = p.Small("gRR", n, n)
	l.opGPQ = p.Small("gPQ", n, n)
	l.opGRQ = p.Small("gRQ", n, n)
	l.opGQQ = p.Small("gQQ", n, n)
	l.opCP = p.Small("CP", n, n)
	l.opCR = p.Small("CR", n, n)
	l.opCQ = p.Small("CQ", n, n)
	l.opLam = p.Small("Lam", n, 1)
	l.opRnorm = p.Scalar("rnorm")

	// M = ΨᵀHΨ; R = HΨ − ΨM.
	p.GemmT(l.opM, l.opPsi, l.opHPsi)
	p.Gemm(l.opR, 1, l.opPsi, l.opM, 0)
	p.Axpby(l.opR, 1, l.opHPsi, -1, l.opR)
	p.Norm(l.opRnorm, l.opR)
	if l.precondition {
		// W = T·R with T = diag(A)⁻¹ (held in the Dinv operand); the
		// preconditioned residual replaces R in the basis.
		l.opDinv = p.Vec("Dinv", 1)
		p.DiagScale(l.opR, l.opDinv, l.opR)
	}
	// Normalize the residual block: keeps the Rayleigh–Ritz Gram matrix
	// well-scaled as ‖R‖ shrinks toward convergence (without this, the R
	// directions fall below the rank-filter threshold and stagnate).
	p.ScaleInv(l.opR, l.opR, l.opRnorm)
	// HR = A·R — the iteration's one SpMM.
	w.spmm(p, l.opHR, l.opR)
	// Rayleigh–Ritz Gram blocks over span{Ψ, R, Q}.
	p.GemmT(l.opOPP, l.opPsi, l.opPsi)
	p.GemmT(l.opOPR, l.opPsi, l.opR)
	p.GemmT(l.opORR, l.opR, l.opR)
	p.GemmT(l.opOPQ, l.opPsi, l.opQ)
	p.GemmT(l.opORQ, l.opR, l.opQ)
	p.GemmT(l.opOQQ, l.opQ, l.opQ)
	p.GemmT(l.opGPR, l.opPsi, l.opHR)
	p.GemmT(l.opGRR, l.opR, l.opHR)
	p.GemmT(l.opGPQ, l.opPsi, l.opHQ)
	p.GemmT(l.opGRQ, l.opR, l.opHQ)
	p.GemmT(l.opGQQ, l.opQ, l.opHQ)
	// Sequential Rayleigh–Ritz solve.
	p.SmallStep("RayleighRitz", l.rayleighRitz,
		[]program.OperandID{l.opM, l.opGPR, l.opGRR, l.opGPQ, l.opGRQ, l.opGQQ,
			l.opOPP, l.opOPR, l.opORR, l.opOPQ, l.opORQ, l.opOQQ},
		[]program.OperandID{l.opCP, l.opCR, l.opCQ, l.opLam})
	// Subspace updates in the numerically stable split form (Knyazev's
	// reference implementation): the new conjugate direction omits the Ψ
	// component, Q' = R·CR + Q·CQ, and Ψ' = Ψ·CP + Q'. (Alg. 2 states
	// Q' = Ψ' − Ψ, which is the same vector in exact arithmetic but nearly
	// parallel to span{Ψ}, degrading the Gram basis.)
	p.Gemm(l.opQN, 1, l.opR, l.opCR, 0).MarkIndexLaunch()
	p.Gemm(l.opQN, 1, l.opQ, l.opCQ, 1).MarkIndexLaunch()
	p.Gemm(l.opPsiN, 1, l.opPsi, l.opCP, 0).MarkIndexLaunch()
	p.Axpby(l.opPsiN, 1, l.opPsiN, 1, l.opQN)
	p.Gemm(l.opHQN, 1, l.opHR, l.opCR, 0).MarkIndexLaunch()
	p.Gemm(l.opHQN, 1, l.opHQ, l.opCQ, 1).MarkIndexLaunch()
	p.Gemm(l.opHPsiN, 1, l.opHPsi, l.opCP, 0).MarkIndexLaunch()
	p.Axpby(l.opHPsiN, 1, l.opHPsiN, 1, l.opHQN)
	// Advance state.
	p.Copy(l.opPsi, l.opPsiN)
	p.Copy(l.opHPsi, l.opHPsiN)
	p.Copy(l.opQ, l.opQN)
	p.Copy(l.opHQ, l.opHQN)

	opt := graph.DefaultOptions()
	l.g, err = build(w, p, opt)
	if err != nil {
		return nil, w, err
	}
	return l, w, nil
}

// Graph exposes the per-iteration TDG.
func (l *LOBPCG) Graph() *graph.TDG { return l.g }

// Eigenvectors returns a copy of the current Ritz block Ψ (m×n, row-major):
// after a converged Run these approximate the eigenvectors paired with
// Result.Eigenvalues.
func (l *LOBPCG) Eigenvectors() []float64 {
	return append([]float64(nil), l.st.Vec[l.opPsi]...)
}

// Program exposes the per-iteration program.
func (l *LOBPCG) Program() *program.Program { return l.prog }

// rayleighRitz solves the 3n×3n generalized eigenproblem G·c = λ·O·c on the
// Gram blocks, with rank filtering to tolerate the zero Q block of the first
// iteration and near-dependent directions later. It writes the coefficient
// splits CP/CR/CQ and the Ritz values. All scratch comes from the solver's
// workspace arena: steady-state calls allocate nothing.
func (l *LOBPCG) rayleighRitz(st *program.Store) {
	n := l.N
	d := 3 * n
	ws := l.ws
	G := ws.g
	O := ws.o
	set := func(dst []float64, bi, bj int, m []float64, transpose bool) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := m[i*n+j]
				if transpose {
					v = m[j*n+i]
				}
				dst[(bi*n+i)*d+bj*n+j] = v
			}
		}
	}
	set(G, 0, 0, st.Small[l.opM], false)
	set(G, 0, 1, st.Small[l.opGPR], false)
	set(G, 1, 0, st.Small[l.opGPR], true)
	set(G, 1, 1, st.Small[l.opGRR], false)
	set(G, 0, 2, st.Small[l.opGPQ], false)
	set(G, 2, 0, st.Small[l.opGPQ], true)
	set(G, 1, 2, st.Small[l.opGRQ], false)
	set(G, 2, 1, st.Small[l.opGRQ], true)
	set(G, 2, 2, st.Small[l.opGQQ], false)
	set(O, 0, 0, st.Small[l.opOPP], false)
	set(O, 0, 1, st.Small[l.opOPR], false)
	set(O, 1, 0, st.Small[l.opOPR], true)
	set(O, 1, 1, st.Small[l.opORR], false)
	set(O, 0, 2, st.Small[l.opOPQ], false)
	set(O, 2, 0, st.Small[l.opOPQ], true)
	set(O, 1, 2, st.Small[l.opORQ], false)
	set(O, 2, 1, st.Small[l.opORQ], true)
	set(O, 2, 2, st.Small[l.opOQQ], false)

	// Enforce exact symmetry (XTY pairs agree only to rounding).
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			g := 0.5 * (G[i*d+j] + G[j*d+i])
			G[i*d+j], G[j*d+i] = g, g
			o := 0.5 * (O[i*d+j] + O[j*d+i])
			O[i*d+j], O[j*d+i] = o, o
		}
	}

	cp := st.Small[l.opCP]
	cr := st.Small[l.opCR]
	cq := st.Small[l.opCQ]
	lam := st.Small[l.opLam]

	// Soft-orthogonalize the basis: O = V·D·Vᵀ, keep directions with
	// D_i > ε·max(D), W = V_kept·D^{-1/2}.
	ovals, ovecs := ws.oVals, ws.oVecs
	if err := blas.SymEigInto(O, d, ws.eigWork, ovals, ovecs); err != nil {
		// Leave previous coefficients in place; the solver will flag
		// breakdown via the residual not improving.
		return
	}
	dmax := ovals[d-1]
	if dmax <= 0 {
		return
	}
	tol := 1e-12 * dmax
	keep := ws.keep[:0]
	for i := 0; i < d; i++ {
		if ovals[i] > tol {
			keep = append(keep, i)
		}
	}
	r := len(keep)
	if r < n {
		return
	}
	w := ws.w[:d*r] // d×r, W columns = kept scaled eigvecs
	for kk, col := range keep {
		s := 1 / math.Sqrt(ovals[col])
		for i := 0; i < d; i++ {
			w[i*r+kk] = ovecs[i*d+col] * s
		}
	}
	// Gt = Wᵀ·G·W (r×r).
	gw := ws.gw[:d*r]
	blas.Gemm(1, G, d, d, w, r, 0, gw)
	gt := ws.gt[:r*r]
	blas.GemmTN(1, w, d, r, gw, r, 0, gt)
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			v := 0.5 * (gt[i*r+j] + gt[j*r+i])
			gt[i*r+j], gt[j*r+i] = v, v
		}
	}
	evals, evecs := ws.tVals, ws.tVecs
	if err := blas.SymEigInto(gt, r, ws.eigWork, evals, evecs); err != nil {
		return
	}
	// C = W·U[:, :n] — smallest n Ritz pairs.
	u := ws.u[:r*n]
	for i := 0; i < r; i++ {
		for j := 0; j < n; j++ {
			u[i*n+j] = evecs[i*r+j]
		}
	}
	c3 := ws.c3[:d*n]
	blas.Gemm(1, w, d, r, u, n, 0, c3)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cp[i*n+j] = c3[i*n+j]
			cr[i*n+j] = c3[(n+i)*n+j]
			cq[i*n+j] = c3[(2*n+i)*n+j]
		}
	}
	for j := 0; j < n; j++ {
		lam[j] = evals[j]
	}
}

// Run executes LOBPCG iterations under the given runtime until the residual
// drops below Tol or MaxIter is reached. A nil runtime runs with the BSP
// backend on one worker. iters > 0 overrides MaxIter with a fixed iteration
// count and disables the convergence exit (the benchmarking mode the paper
// uses: fixed 10 or 5 iterations). Cancelling ctx aborts the solve
// mid-iteration and returns the context's error.
func (l *LOBPCG) Run(ctx context.Context, r rt.Runtime, seed int64, iters int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r == nil {
		r = rt.NewBSP(rt.Options{Workers: 1})
	}
	maxIter := l.MaxIter
	fixed := false
	if iters > 0 {
		maxIter = iters
		fixed = true
	}
	if err := l.initState(seed); err != nil {
		return Result{}, err
	}
	pr := r.Prepare(l.g, l.st)
	defer pr.Close()
	var res Result
	for it := 1; it <= maxIter; it++ {
		resid, err := l.iterate(ctx, pr)
		if err != nil {
			return res, err
		}
		res.Iterations = it
		res.Residual = resid
		if !fixed && res.Residual < l.Tol {
			res.Converged = true
			break
		}
	}
	lam := l.st.Small[l.opLam]
	res.Eigenvalues = append([]float64(nil), lam...)
	if fixed {
		res.Converged = res.Residual < l.Tol
	}
	return res, nil
}

// initState seeds the LOBPCG state: Ψ0 is a random orthonormal block,
// HΨ0 = A·Ψ0, and the conjugate-direction blocks start at zero (host init,
// excluded from iteration timing just as the paper excludes setup).
func (l *LOBPCG) initState(seed int64) error {
	m, _ := l.A.Dims()
	n := l.N
	rng := rand.New(rand.NewSource(seed))
	psi := l.st.Vec[l.opPsi]
	for i := range psi {
		psi[i] = rng.NormFloat64()
	}
	if err := blas.Orthonormalize(psi, m, n); err != nil {
		return fmt.Errorf("solver: LOBPCG init: %w", err)
	}
	l.A.SpMM(l.st.Vec[l.opHPsi], psi, n)
	zero(l.st.Vec[l.opQ])
	zero(l.st.Vec[l.opHQ])
	if l.precondition {
		l.A.InverseDiagonal(l.st.Vec[l.opDinv])
	}
	return nil
}

// iterate executes one LOBPCG iteration (one full graph run) and returns the
// Frobenius residual norm it measured. Steady-state calls perform no heap
// allocations: the graph, store, prepared executor, and Rayleigh–Ritz
// workspace are all reused.
//
//sparselint:hotpath
func (l *LOBPCG) iterate(ctx context.Context, pr rt.PreparedRun) (float64, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return l.st.Scalars[l.opRnorm], nil
}

func zero(s []float64) {
	clear(s)
}

// LOBPCGReference runs a dense-algebra sequential LOBPCG on a CSR matrix for
// validation: same algorithm, no task decomposition.
func LOBPCGReference(a *sparse.CSR, n, iters int, seed int64) ([]float64, float64, error) {
	m := a.Rows
	rng := rand.New(rand.NewSource(seed))
	psi := make([]float64, m*n)
	for i := range psi {
		psi[i] = rng.NormFloat64()
	}
	if err := blas.Orthonormalize(psi, m, n); err != nil {
		return nil, 0, err
	}
	hpsi := make([]float64, m*n)
	a.SpMM(hpsi, psi, n)
	q := make([]float64, m*n)
	hq := make([]float64, m*n)
	// Plain loop mirroring the 29-call program.
	mm := make([]float64, n*n)
	r := make([]float64, m*n)
	hr := make([]float64, m*n)
	var resid float64
	lam := make([]float64, n)
	for it := 0; it < iters; it++ {
		blas.GemmTN(1, psi, m, n, hpsi, n, 0, mm)
		blas.Gemm(1, psi, m, n, mm, n, 0, r)
		for i := range r {
			r[i] = hpsi[i] - r[i]
		}
		resid = blas.Nrm2(r)
		if resid != 0 {
			blas.Scal(1/resid, r)
		}
		a.SpMM(hr, r, n)
		cp, cr, cq, lv, ok := denseRayleighRitz(psi, r, q, hpsi, hr, hq, m, n)
		if !ok {
			break
		}
		copy(lam, lv)
		qN := make([]float64, m*n)
		hqN := make([]float64, m*n)
		psiN := make([]float64, m*n)
		hpsiN := make([]float64, m*n)
		blas.Gemm(1, r, m, n, cr, n, 0, qN)
		blas.Gemm(1, q, m, n, cq, n, 1, qN)
		blas.Gemm(1, psi, m, n, cp, n, 0, psiN)
		blas.Axpy(1, qN, psiN)
		blas.Gemm(1, hr, m, n, cr, n, 0, hqN)
		blas.Gemm(1, hq, m, n, cq, n, 1, hqN)
		blas.Gemm(1, hpsi, m, n, cp, n, 0, hpsiN)
		blas.Axpy(1, hqN, hpsiN)
		copy(q, qN)
		copy(hq, hqN)
		copy(psi, psiN)
		copy(hpsi, hpsiN)
	}
	return lam, resid, nil
}

// denseRayleighRitz mirrors LOBPCG.rayleighRitz on dense blocks.
func denseRayleighRitz(psi, r, q, hpsi, hr, hq []float64, m, n int) (cp, cr, cq, lam []float64, ok bool) {
	d := 3 * n
	cols := [][]float64{psi, r, q}
	hcols := [][]float64{hpsi, hr, hq}
	G := make([]float64, d*d)
	O := make([]float64, d*d)
	tmp := make([]float64, n*n)
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 3; bj++ {
			blas.GemmTN(1, cols[bi], m, n, hcols[bj], n, 0, tmp)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					G[(bi*n+i)*d+bj*n+j] = tmp[i*n+j]
				}
			}
			blas.GemmTN(1, cols[bi], m, n, cols[bj], n, 0, tmp)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					O[(bi*n+i)*d+bj*n+j] = tmp[i*n+j]
				}
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			g := 0.5 * (G[i*d+j] + G[j*d+i])
			G[i*d+j], G[j*d+i] = g, g
			o := 0.5 * (O[i*d+j] + O[j*d+i])
			O[i*d+j], O[j*d+i] = o, o
		}
	}
	ovals, ovecs, err := blas.SymEig(O, d)
	if err != nil || ovals[d-1] <= 0 {
		return nil, nil, nil, nil, false
	}
	tol := 1e-12 * ovals[d-1]
	var keep []int
	for i := 0; i < d; i++ {
		if ovals[i] > tol {
			keep = append(keep, i)
		}
	}
	rr := len(keep)
	if rr < n {
		return nil, nil, nil, nil, false
	}
	w := make([]float64, d*rr)
	for kk, col := range keep {
		s := 1 / math.Sqrt(ovals[col])
		for i := 0; i < d; i++ {
			w[i*rr+kk] = ovecs[i*d+col] * s
		}
	}
	gw := make([]float64, d*rr)
	blas.Gemm(1, G, d, d, w, rr, 0, gw)
	gt := make([]float64, rr*rr)
	blas.GemmTN(1, w, d, rr, gw, rr, 0, gt)
	for i := 0; i < rr; i++ {
		for j := i + 1; j < rr; j++ {
			v := 0.5 * (gt[i*rr+j] + gt[j*rr+i])
			gt[i*rr+j], gt[j*rr+i] = v, v
		}
	}
	evals, evecs, err := blas.SymEig(gt, rr)
	if err != nil {
		return nil, nil, nil, nil, false
	}
	u := make([]float64, rr*n)
	for i := 0; i < rr; i++ {
		for j := 0; j < n; j++ {
			u[i*n+j] = evecs[i*rr+j]
		}
	}
	c3 := make([]float64, d*n)
	blas.Gemm(1, w, d, rr, u, n, 0, c3)
	cp = make([]float64, n*n)
	cr = make([]float64, n*n)
	cq = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cp[i*n+j] = c3[i*n+j]
			cr[i*n+j] = c3[(n+i)*n+j]
			cq[i*n+j] = c3[(2*n+i)*n+j]
		}
	}
	return cp, cr, cq, evals[:n], true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
