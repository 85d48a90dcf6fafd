package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// The conjugate-gradient driver. There is one: k right-hand sides against the
// same matrix advance in lockstep through one width-k program, so every
// iteration streams the matrix once (SpMM/SpMMSym) instead of k times — the
// memory-bandwidth amortization the serving layer's batch coalescer exists to
// exploit — and a single right-hand side is the same program at k = 1 (CG,
// PCG). Scalar recurrences are per-column recurrences carried by the
// CColDot/CColAxpby calls, whose arithmetic on column j reads column j alone,
// so a column's answer does not depend on the width it was solved at or on
// its neighbours. Each column converges independently and is *retired* by
// zeroing its update coefficients (α_j = β_j = 0 freezes x_j and r_j
// exactly), so early columns cost only the residual vector-op work while the
// batch finishes the stragglers.

// BatchColResult is the outcome of one column (one right-hand side) of a
// solve.
type BatchColResult struct {
	X          []float64
	RelRes     float64
	Iterations int
	Converged  bool
	// Breakdown reports that the column stopped at iteration Iterations
	// because pᵀAp, kept in PAP, was not a positive finite number: the matrix
	// is not positive definite, and CG has no next step.
	Breakdown bool
	PAP       float64
}

// Err is nil for a converged column and otherwise says why it stopped.
func (c BatchColResult) Err() error {
	switch {
	case c.Converged:
		return nil
	case c.Breakdown:
		return fmt.Errorf("matrix is not positive definite (pᵀAp = %.3e at iteration %d)", c.PAP, c.Iterations)
	default:
		return fmt.Errorf("did not converge after %d iterations (relres %.3e)", c.Iterations, c.RelRes)
	}
}

// batchState is the per-column convergence bookkeeping. act mirrors the
// coefficient zeroing: 1 while a column is live, 0 after retirement.
type batchState struct {
	bn        []float64 // per-column ‖b_j‖
	act       []float64
	relres    []float64
	iters     []int
	converged []bool
	pap       []float64 // pᵀAp that retired a column by breakdown; 0 otherwise
	it        int       // current iteration, set by Solve before each run
	nact      int       // live columns after the last run
}

func newBatchState(k int) batchState {
	return batchState{
		bn:        make([]float64, k),
		act:       make([]float64, k),
		relres:    make([]float64, k),
		iters:     make([]int, k),
		converged: make([]bool, k),
		pap:       make([]float64, k),
	}
}

// seed resets the bookkeeping from the per-column right-hand-side norms in
// bn. Columns with a zero right-hand side are born retired: their solution
// is 0. A live column starts at x = 0, so its relative residual is 1.
func (s *batchState) seed() {
	s.it = 0
	s.nact = 0
	for j, n := range s.bn {
		s.iters[j] = 0
		s.pap[j] = 0
		if n == 0 {
			s.act[j] = 0
			s.relres[j] = 0
			s.converged[j] = true
		} else {
			s.act[j] = 1
			s.relres[j] = 1
			s.converged[j] = false
			s.nact++
		}
	}
}

// checkRHS validates the k right-hand sides of a Solve call.
func checkRHS(bs [][]float64, m, k int) error {
	if len(bs) != k {
		return fmt.Errorf("solver: solve got %d right-hand sides, want %d", len(bs), k)
	}
	for j, b := range bs {
		if len(b) != m {
			return fmt.Errorf("solver: rhs %d has length %d, want %d", j, len(b), m)
		}
	}
	return nil
}

// scatterCols interleaves bs (k vectors of length m) into dst, a row-major
// m×k block, and returns each column's 2-norm.
func scatterCols(dst []float64, bs [][]float64, m, k int, bn []float64) {
	for j := range bn {
		bn[j] = 0
	}
	for i := 0; i < m; i++ {
		row := dst[i*k : i*k+k]
		for j := range row {
			v := bs[j][i]
			row[j] = v
			bn[j] += v * v
		}
	}
	for j := range bn {
		bn[j] = math.Sqrt(bn[j])
	}
}

// gatherResults extracts per-column solutions and bookkeeping into results. A
// column still live when the loop ended ran all maxIter iterations; one that
// retired without converging broke down.
func (s *batchState) gatherResults(x []float64, m, k, maxIter int) []BatchColResult {
	out := make([]BatchColResult, k)
	for j := 0; j < k; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = x[i*k+j]
		}
		it := s.iters[j]
		if s.act[j] != 0 {
			it = maxIter
		}
		out[j] = BatchColResult{X: col, RelRes: s.relres[j], Iterations: it, Converged: s.converged[j],
			Breakdown: s.act[j] == 0 && !s.converged[j], PAP: s.pap[j]}
	}
	return out
}

// krylov is the driver behind CG, PCG, BatchCG and BatchPCG: k symmetric
// positive definite systems A·x_j = b_j in lockstep, preconditioned by M when
// it is set. The per-iteration program:
//
//	Q      = A·P             (SpMM — the matrix is streamed once for all k)
//	pq_j   = P_jᵀ·Q_j        (CDOT)
//	α_j    = act_j·rz_j/pq_j (small step; 0 retires the column, and
//	                          pq_j ≤ 0 is a breakdown that retires it)
//	X_j   += α_j·P_j ; R_j -= α_j·Q_j   (CAXPBY)
//	rr_j   = R_jᵀ·R_j        (CDOT, convergence on ‖r_j‖/‖b_j‖)
//	Z      = M⁻¹·R           (TRSV·2 for IC(0), DSCALE for Jacobi)
//	rzn_j  = R_jᵀ·Z_j        (CDOT)
//	β_j    = act_j·rzn_j/rz_j, convergence + retirement  (small step)
//	P_j    = Z_j + β_j·P_j   (CAXPBY)
//
// The triangular solves run inside the iteration graph as the factor's level
// DAG, each task substituting all k columns of its row block. Without a
// preconditioner Z is R and rzn is rr: the program carries neither a second
// CDOT nor a copy.
type krylov struct {
	A sparse.Matrix
	// M is the preconditioner; nil for plain CG.
	M *precond.IC0
	K int
	// Tol is the per-column convergence threshold on ‖r_j‖/‖b_j‖.
	Tol     float64
	MaxIter int

	name string
	prog *program.Program
	g    *graph.TDG
	st   *program.Store

	opX, opP, opQ, opR, opZ, opY program.OperandID
	opRZ                         program.OperandID
	state                        batchState
	colR, colY, colZ             []float64 // init-time per-column scratch (M only)
}

// newKrylov builds the driver and its single-iteration TDG for k right-hand
// sides. A *sparse.SymCSB matrix routes the SpMM through the
// symmetry-exploiting kernels; lower/upper optionally carry the factors'
// memoized level analyses (precond.Levels at the matrix's block size), whose
// substitution layouts the solves then share; without them the factors are
// analysed here. A factor the triangular kernel cannot solve is an error.
func newKrylov(name string, a sparse.Matrix, m *precond.IC0, k int, lower, upper *precond.Levels) (*krylov, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("solver: %s needs a square matrix, got %dx%d", name, rows, cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("solver: %s needs k >= 1, got %d", name, k)
	}
	if m != nil && m.Rows != rows {
		return nil, fmt.Errorf("solver: preconditioner is over %d rows, matrix has %d", m.Rows, rows)
	}
	c := &krylov{A: a, M: m, K: k, Tol: 1e-10, MaxIter: 10 * rows, name: name, state: newBatchState(k)}
	p := program.New(rows, a.BlockSize())
	c.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, err
	}
	c.opX = p.Vec("x", k)
	c.opP = p.Vec("p", k)
	c.opQ = p.Vec("q", k)
	c.opR = p.Vec("r", k)
	c.opRZ = p.Small("rz", 1, k)
	opPQ := p.Small("pq", 1, k)
	opRZN := p.Small("rz_new", 1, k)
	opAlpha := p.Small("alpha", 1, k)
	opBeta := p.Small("beta", 1, k)

	// Q = A·P ; pq = P∘Q column dots ; α_j = rz_j/pq_j for live columns.
	w.spmm(p, c.opQ, c.opP)
	p.ColDot(opPQ, c.opP, c.opQ)
	p.SmallStep("alpha", func(st *program.Store) {
		rz := st.Small[c.opRZ]
		pq := st.Small[opPQ]
		al := st.Small[opAlpha]
		s := &c.state
		for j := range al {
			switch {
			case s.act[j] == 0:
				al[j] = 0
			case pq[j] > 0 && !math.IsInf(pq[j], 1):
				al[j] = rz[j] / pq[j]
			default: // zero, negative or non-finite curvature: no step exists
				al[j] = 0
				s.act[j] = 0
				s.iters[j] = s.it
				s.pap[j] = pq[j]
			}
		}
	}, []program.OperandID{c.opRZ, opPQ}, []program.OperandID{opAlpha})
	// X += α∘P ; R -= α∘Q.
	p.ColAxpby(c.opX, c.opX, opAlpha, 1, c.opP).MarkIndexLaunch()
	p.ColAxpby(c.opR, c.opR, opAlpha, -1, c.opQ).MarkIndexLaunch()

	// Z = M⁻¹·R and the two dots of R: rr for convergence, rz_new for the
	// recurrence. Unpreconditioned they are one operand and one dot.
	opt := graph.DefaultOptions()
	opRR := opRZN
	c.opZ = c.opR
	betaIns := []program.OperandID{c.opRZ, opRZN}
	if m != nil {
		opRR = p.Small("rr", 1, k)
		betaIns = append(betaIns, opRR)
		p.ColDot(opRR, c.opR, c.opR)
		c.opZ = p.Vec("z", k)
		c.colR, c.colY, c.colZ = make([]float64, rows), make([]float64, rows), make([]float64, rows)
	}
	var opL, opU, opD program.OperandID
	switch {
	case m == nil:
	case m.Kind == precond.KindIC0:
		opL = p.Tri("L")
		opU = p.Tri("U")
		c.opY = p.Vec("y", k)
		p.SpTrsvLower(c.opY, opL, c.opR)
		p.SpTrsvUpper(c.opZ, opU, c.opY)
		if lower == nil || lower.Block != a.BlockSize() {
			lower = precond.AnalyzeLower(m.L, a.BlockSize())
		}
		if upper == nil || upper.Block != a.BlockSize() {
			upper = precond.AnalyzeUpper(m.U, a.BlockSize())
		}
		if err := errors.Join(lower.Err, upper.Err); err != nil {
			return nil, fmt.Errorf("solver: %s preconditioner: %w", name, err)
		}
		opt.Tris = map[program.OperandID]*sparse.BlockTri{opL: lower.Tri, opU: upper.Tri}
	default:
		opD = p.Vec("dinv", 1)
		p.DiagScale(c.opZ, opD, c.opR).MarkIndexLaunch()
	}
	p.ColDot(opRZN, c.opR, c.opZ)
	p.SmallStep("beta", func(st *program.Store) {
		rz := st.Small[c.opRZ]
		rzn := st.Small[opRZN]
		rr := st.Small[opRR]
		be := st.Small[opBeta]
		s := &c.state
		live := 0
		for j := range be {
			if s.act[j] == 0 {
				be[j] = 0
				continue
			}
			rel := math.Sqrt(rr[j]) / s.bn[j]
			s.relres[j] = rel
			if rel < c.Tol {
				s.act[j] = 0
				s.iters[j] = s.it
				s.converged[j] = true
				be[j] = 0
			} else {
				if rz[j] == 0 {
					be[j] = 0
				} else {
					be[j] = rzn[j] / rz[j]
				}
				live++
			}
			rz[j] = rzn[j]
		}
		s.nact = live
	}, betaIns, []program.OperandID{opBeta, c.opRZ})
	// P = Z + β∘P.
	p.ColAxpby(c.opP, c.opZ, opBeta, 1, c.opP).MarkIndexLaunch()

	g, err := w.buildGraph(p, opt)
	if err != nil {
		return nil, err
	}
	c.g = g
	c.st = program.NewStore(p)
	w.attach(c.st)
	switch {
	case m == nil:
	case m.Kind == precond.KindIC0:
		c.st.SetBlockTri(opL, opt.Tris[opL])
		c.st.SetBlockTri(opU, opt.Tris[opU])
	default:
		copy(c.st.Vec[opD], m.DiagInv)
	}
	return c, nil
}

// Graph exposes the per-iteration TDG.
func (c *krylov) Graph() *graph.TDG { return c.g }

// Program exposes the per-iteration program.
func (c *krylov) Program() *program.Program { return c.prog }

// Solve runs the iteration for right-hand sides bs (len K, each of the
// matrix's row dimension) under the given runtime (nil = sequential BSP) and
// returns one result per column. A column that breaks down or fails to
// converge within MaxIter says so in its result rather than failing the
// batch. Cancelling ctx aborts the solve mid-iteration.
func (c *krylov) Solve(ctx context.Context, r rt.Runtime, bs [][]float64) ([]BatchColResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, _ := c.A.Dims()
	if err := checkRHS(bs, m, c.K); err != nil {
		return nil, err
	}
	if r == nil {
		r = rt.NewBSP(rt.Options{Workers: 1})
	}
	c.initState(bs)
	if c.state.nact > 0 {
		pr := rt.PrepareRun(r, c.g, c.st)
		defer pr.Close()
		for it := 1; it <= c.MaxIter; it++ {
			c.state.it = it
			nact, err := c.iterate(ctx, pr)
			if err != nil {
				return nil, err
			}
			if nact == 0 {
				break
			}
		}
	}
	return c.state.gatherResults(c.st.Vec[c.opX], m, c.K, c.MaxIter), nil
}

// solveOne is Solve for the width-1 adapters: the solution, the final
// relative residual and the iteration count of the only column, and its Err.
func (c *krylov) solveOne(ctx context.Context, r rt.Runtime, b []float64) ([]float64, float64, int, error) {
	res, err := c.Solve(ctx, r, [][]float64{b})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := res[0].Err(); err != nil {
		return res[0].X, res[0].RelRes, res[0].Iterations, fmt.Errorf("solver: %s: %w", c.name, err)
	}
	return res[0].X, res[0].RelRes, res[0].Iterations, nil
}

// initState seeds the state: X = 0, R = B, Z = M⁻¹·R applied column by
// column (init is off the hot path), P = Z, rz_j = r_jᵀz_j.
func (c *krylov) initState(bs [][]float64) {
	m, _ := c.A.Dims()
	k := c.K
	s := &c.state
	zero(c.st.Vec[c.opX])
	r := c.st.Vec[c.opR]
	scatterCols(r, bs, m, k, s.bn)
	pv := c.st.Vec[c.opP]
	rz := c.st.Small[c.opRZ]
	if c.M == nil {
		copy(pv, r)
		for j := range rz {
			rz[j] = s.bn[j] * s.bn[j]
		}
		s.seed()
		return
	}
	z := c.st.Vec[c.opZ]
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			c.colR[i] = r[i*k+j]
		}
		c.M.Apply(c.colZ, c.colY, c.colR)
		var dot float64
		for i := 0; i < m; i++ {
			z[i*k+j] = c.colZ[i]
			pv[i*k+j] = c.colZ[i]
			dot += c.colR[i] * c.colZ[i]
		}
		rz[j] = dot
	}
	s.seed()
}

// iterate executes one iteration (one full graph run, including the width-k
// level-scheduled triangular solves when preconditioned) and returns the
// number of still-live columns. Steady-state calls perform no heap
// allocations.
//
//sparselint:hotpath
func (c *krylov) iterate(ctx context.Context, pr rt.PreparedRun) (int, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return c.state.nact, nil
}

// BatchCG solves k symmetric positive definite systems in lockstep; Solve is
// the driver's.
type BatchCG struct{ *krylov }

// NewBatchCG builds the batched solver and its single-iteration TDG for k
// right-hand sides.
func NewBatchCG(a sparse.Matrix, k int) (*BatchCG, error) {
	c, err := newKrylov("BatchCG", a, nil, k, nil, nil)
	if err != nil {
		return nil, err
	}
	return &BatchCG{c}, nil
}

// BatchPCG is BatchCG with the preconditioner applied inside the iteration
// graph: width-k triangular solves for an IC(0) factorization, or a width-k
// DiagScale for the Jacobi fallback.
type BatchPCG struct{ *krylov }

// NewBatchPCG builds the batched preconditioned solver for k right-hand
// sides; lower/upper optionally memoize the factors' level analyses exactly as
// in NewPCGWithLevels.
func NewBatchPCG(a sparse.Matrix, m *precond.IC0, k int, lower, upper *precond.Levels) (*BatchPCG, error) {
	c, err := newPreconditioned("BatchPCG", a, m, k, lower, upper)
	if err != nil {
		return nil, err
	}
	return &BatchPCG{c}, nil
}

// newPreconditioned is newKrylov for the constructors that promise a
// preconditioner.
func newPreconditioned(name string, a sparse.Matrix, m *precond.IC0, k int, lower, upper *precond.Levels) (*krylov, error) {
	if m == nil {
		return nil, fmt.Errorf("solver: %s needs a preconditioner", name)
	}
	return newKrylov(name, a, m, k, lower, upper)
}
