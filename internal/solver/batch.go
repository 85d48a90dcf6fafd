package solver

import (
	"context"
	"fmt"
	"math"

	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// Batched conjugate-gradient solvers: k right-hand sides against the same
// matrix advance in lockstep through one width-k program, so every iteration
// streams the matrix once (SpMM/SpMMSym) instead of k times (SpMV) — the
// memory-bandwidth amortization the serving layer's batch coalescer exists to
// exploit. Scalar recurrences become per-column recurrences carried by the
// CColDot/CColAxpby calls; each column converges independently and is
// *retired* by zeroing its update coefficients (α_j = β_j = 0 freezes x_j, r_j
// and p_j exactly), so early columns cost only the residual vector-op work
// while the batch finishes the stragglers.

// BatchColResult is the outcome of one column (one right-hand side) of a
// batched solve.
type BatchColResult struct {
	X          []float64
	RelRes     float64
	Iterations int
	Converged  bool
}

// batchState is the per-column convergence bookkeeping shared by the batched
// solvers. act mirrors the coefficient zeroing: 1 while a column is live, 0
// after retirement.
type batchState struct {
	bn        []float64 // per-column ‖b_j‖
	act       []float64
	relres    []float64
	iters     []int
	converged []bool
	it        int // current iteration, set by Solve before each run
	nact      int // live columns after the last run
}

func newBatchState(k int) batchState {
	return batchState{
		bn:        make([]float64, k),
		act:       make([]float64, k),
		relres:    make([]float64, k),
		iters:     make([]int, k),
		converged: make([]bool, k),
	}
}

// seed resets the bookkeeping from the per-column right-hand-side norms.
// Columns with a zero right-hand side are born retired: their solution is 0.
func (s *batchState) seed(bn []float64) {
	s.it = 0
	s.nact = 0
	for j, n := range bn {
		s.bn[j] = n
		s.relres[j] = 0
		s.iters[j] = 0
		if n == 0 {
			s.act[j] = 0
			s.converged[j] = true
		} else {
			s.act[j] = 1
			s.converged[j] = false
			s.nact++
		}
	}
}

// checkRHS validates the k right-hand sides of a batched Solve call.
func checkRHS(bs [][]float64, m, k int) error {
	if len(bs) != k {
		return fmt.Errorf("solver: batch solve got %d right-hand sides, want %d", len(bs), k)
	}
	for j, b := range bs {
		if len(b) != m {
			return fmt.Errorf("solver: batch rhs %d has length %d, want %d", j, len(b), m)
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

// gatherResults extracts per-column solutions and bookkeeping into results.
func (s *batchState) gatherResults(x []float64, m, k, maxIter int) []BatchColResult {
	out := make([]BatchColResult, k)
	for j := 0; j < k; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = x[i*k+j]
		}
		it := s.iters[j]
		if !s.converged[j] {
			it = maxIter
		}
		out[j] = BatchColResult{X: col, RelRes: s.relres[j], Iterations: it, Converged: s.converged[j]}
	}
	return out
}

// BatchCG solves k symmetric positive definite systems A·x_j = b_j in
// lockstep. The per-iteration program is CG's with width-k operands:
//
//	Q      = A·P            (SpMM — the matrix is streamed once for all k)
//	pq_j   = P_jᵀ·Q_j       (CDOT)
//	α_j    = act_j·rr_j/pq_j (small step; 0 retires the column)
//	X_j   += α_j·P_j ; R_j -= α_j·Q_j   (CAXPBY)
//	rrn_j  = R_jᵀ·R_j       (CDOT)
//	β_j    = act_j·rrn_j/rr_j, convergence + retirement  (small step)
//	P_j    = R_j + β_j·P_j  (CAXPBY)
type BatchCG struct {
	A sparse.Matrix
	K int
	// Tol is the per-column convergence threshold on ‖r_j‖/‖b_j‖.
	Tol     float64
	MaxIter int

	prog *program.Program
	g    *graph.TDG
	st   *program.Store

	opA, opX, opP, opQ, opR            program.OperandID
	opPQ, opRR, opRRN, opAlpha, opBeta program.OperandID
	state                              batchState
}

// NewBatchCG builds the batched solver and its single-iteration TDG for k
// right-hand sides. A *sparse.SymCSB matrix routes the SpMM through the
// symmetry-exploiting kernels.
func NewBatchCG(a sparse.Matrix, k int) (*BatchCG, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("solver: BatchCG needs a square matrix, got %dx%d", rows, cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("solver: BatchCG needs k >= 1, got %d", k)
	}
	c := &BatchCG{A: a, K: k, Tol: 1e-10, MaxIter: 10 * rows, state: newBatchState(k)}
	p := program.New(rows, a.BlockSize())
	c.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, err
	}
	c.opA = w.op
	c.opX = p.Vec("x", k)
	c.opP = p.Vec("p", k)
	c.opQ = p.Vec("q", k)
	c.opR = p.Vec("r", k)
	c.opPQ = p.Small("pq", 1, k)
	c.opRR = p.Small("rr", 1, k)
	c.opRRN = p.Small("rr_new", 1, k)
	c.opAlpha = p.Small("alpha", 1, k)
	c.opBeta = p.Small("beta", 1, k)

	// Q = A·P ; pq = P∘Q column dots ; α_j = rr_j/pq_j for live columns.
	w.spmm(p, c.opQ, c.opP)
	p.ColDot(c.opPQ, c.opP, c.opQ)
	p.SmallStep("alpha", func(st *program.Store) {
		rr := st.Small[c.opRR]
		pq := st.Small[c.opPQ]
		al := st.Small[c.opAlpha]
		for j := range al {
			if c.state.act[j] == 0 || pq[j] == 0 {
				al[j] = 0
			} else {
				al[j] = rr[j] / pq[j]
			}
		}
	}, []program.OperandID{c.opRR, c.opPQ}, []program.OperandID{c.opAlpha})
	// X += α∘P ; R -= α∘Q.
	p.ColAxpby(c.opX, c.opX, c.opAlpha, 1, c.opP).MarkIndexLaunch()
	p.ColAxpby(c.opR, c.opR, c.opAlpha, -1, c.opQ).MarkIndexLaunch()
	// rr_new = R∘R column dots; convergence, retirement and β per column.
	p.ColDot(c.opRRN, c.opR, c.opR)
	p.SmallStep("beta", func(st *program.Store) {
		rr := st.Small[c.opRR]
		rrn := st.Small[c.opRRN]
		be := st.Small[c.opBeta]
		live := 0
		for j := range be {
			if c.state.act[j] == 0 {
				be[j] = 0
				continue
			}
			rel := math.Sqrt(rrn[j]) / c.state.bn[j]
			c.state.relres[j] = rel
			if rel < c.Tol {
				c.state.act[j] = 0
				c.state.iters[j] = c.state.it
				c.state.converged[j] = true
				be[j] = 0
			} else {
				if rr[j] == 0 {
					be[j] = 0
				} else {
					be[j] = rrn[j] / rr[j]
				}
				live++
			}
			rr[j] = rrn[j]
		}
		c.state.nact = live
	}, []program.OperandID{c.opRR, c.opRRN}, []program.OperandID{c.opBeta, c.opRR})
	// P = R + β∘P.
	p.ColAxpby(c.opP, c.opR, c.opBeta, 1, c.opP)

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
func (c *BatchCG) Graph() *graph.TDG { return c.g }

// Program exposes the per-iteration program.
func (c *BatchCG) Program() *program.Program { return c.prog }

// Solve runs the batched CG for right-hand sides bs (len K, each of the
// matrix's row dimension) under the given runtime (nil = sequential BSP) and
// returns one result per column. Columns that fail to converge within MaxIter
// report Converged=false rather than failing the batch. Cancelling ctx aborts
// the solve mid-iteration.
func (c *BatchCG) Solve(ctx context.Context, r rt.Runtime, bs [][]float64) ([]BatchColResult, error) {
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

// initState seeds the batched CG state: X = 0, R = P = B, rr_j = b_jᵀb_j.
func (c *BatchCG) initState(bs [][]float64) {
	m, _ := c.A.Dims()
	zero(c.st.Vec[c.opX])
	r := c.st.Vec[c.opR]
	scatterCols(r, bs, m, c.K, c.state.bn)
	copy(c.st.Vec[c.opP], r)
	rr := st0(c.st, c.opRR)
	for j := range rr {
		rr[j] = c.state.bn[j] * c.state.bn[j]
	}
	c.state.seed(c.state.bn)
}

// iterate executes one batched iteration (one full graph run) and returns the
// number of still-live columns. Steady-state calls perform no heap
// allocations.
//
//sparselint:hotpath
func (c *BatchCG) iterate(ctx context.Context, pr rt.PreparedRun) (int, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return c.state.nact, nil
}

// st0 returns the backing slice of a small operand.
func st0(st *program.Store, id program.OperandID) []float64 { return st.Small[id] }

// BatchPCG is BatchCG with the preconditioner applied inside the iteration
// graph: width-k triangular solves for an IC(0) factorization (the same level
// DAG as PCG, each task substituting all k columns of its row block), or a
// width-k DiagScale for the Jacobi fallback.
type BatchPCG struct {
	A sparse.Matrix
	M *precond.IC0
	K int
	// Tol is the per-column convergence threshold on ‖r_j‖/‖b_j‖.
	Tol     float64
	MaxIter int

	prog *program.Program
	g    *graph.TDG
	st   *program.Store

	opA, opX, opP, opQ, opR, opZ, opY program.OperandID
	opL, opU, opD                     program.OperandID
	opPQ, opRZ, opRZN, opRR2          program.OperandID
	opAlpha, opBeta                   program.OperandID
	state                             batchState
	colR, colY, colZ                  []float64 // init-time per-column scratch
}

// NewBatchPCG builds the batched preconditioned solver for k right-hand
// sides; lower/upper optionally memoize the factors' level analyses exactly as
// in NewPCGWithLevels.
func NewBatchPCG(a sparse.Matrix, m *precond.IC0, k int, lower, upper *precond.Levels) (*BatchPCG, error) {
	rows, cols := a.Dims()
	if rows != cols {
		return nil, fmt.Errorf("solver: BatchPCG needs a square matrix, got %dx%d", rows, cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("solver: BatchPCG needs k >= 1, got %d", k)
	}
	if m == nil {
		return nil, fmt.Errorf("solver: BatchPCG needs a preconditioner (use BatchCG for none)")
	}
	if m.Rows != rows {
		return nil, fmt.Errorf("solver: preconditioner is over %d rows, matrix has %d", m.Rows, rows)
	}
	c := &BatchPCG{A: a, M: m, K: k, Tol: 1e-10, MaxIter: 10 * rows, state: newBatchState(k),
		colR: make([]float64, rows), colY: make([]float64, rows), colZ: make([]float64, rows)}
	p := program.New(rows, a.BlockSize())
	c.prog = p
	w, err := wireMatrix(p, a)
	if err != nil {
		return nil, err
	}
	c.opA = w.op
	c.opX = p.Vec("x", k)
	c.opP = p.Vec("p", k)
	c.opQ = p.Vec("q", k)
	c.opR = p.Vec("r", k)
	c.opZ = p.Vec("z", k)
	c.opPQ = p.Small("pq", 1, k)
	c.opRZ = p.Small("rz", 1, k)
	c.opRZN = p.Small("rz_new", 1, k)
	c.opRR2 = p.Small("rr2", 1, k)
	c.opAlpha = p.Small("alpha", 1, k)
	c.opBeta = p.Small("beta", 1, k)

	// Q = A·P ; pq = P∘Q ; α_j = rz_j/pq_j for live columns.
	w.spmm(p, c.opQ, c.opP)
	p.ColDot(c.opPQ, c.opP, c.opQ)
	p.SmallStep("alpha", func(st *program.Store) {
		rz := st.Small[c.opRZ]
		pq := st.Small[c.opPQ]
		al := st.Small[c.opAlpha]
		for j := range al {
			if c.state.act[j] == 0 || pq[j] == 0 {
				al[j] = 0
			} else {
				al[j] = rz[j] / pq[j]
			}
		}
	}, []program.OperandID{c.opRZ, c.opPQ}, []program.OperandID{c.opAlpha})
	p.ColAxpby(c.opX, c.opX, c.opAlpha, 1, c.opP).MarkIndexLaunch()
	p.ColAxpby(c.opR, c.opR, c.opAlpha, -1, c.opQ).MarkIndexLaunch()
	// rr2 = R∘R for per-column convergence on ‖r_j‖/‖b_j‖.
	p.ColDot(c.opRR2, c.opR, c.opR)

	// Z = M⁻¹·R: width-k preconditioner application.
	opt := graph.DefaultOptions()
	if m.Kind == precond.KindIC0 {
		c.opL = p.Tri("L")
		c.opU = p.Tri("U")
		c.opY = p.Vec("y", k)
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

	// rz_new = R∘Z ; convergence, retirement and β per column.
	p.ColDot(c.opRZN, c.opR, c.opZ)
	p.SmallStep("beta", func(st *program.Store) {
		rz := st.Small[c.opRZ]
		rzn := st.Small[c.opRZN]
		rr2 := st.Small[c.opRR2]
		be := st.Small[c.opBeta]
		live := 0
		for j := range be {
			if c.state.act[j] == 0 {
				be[j] = 0
				continue
			}
			rel := math.Sqrt(rr2[j]) / c.state.bn[j]
			c.state.relres[j] = rel
			if rel < c.Tol {
				c.state.act[j] = 0
				c.state.iters[j] = c.state.it
				c.state.converged[j] = true
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
		c.state.nact = live
	}, []program.OperandID{c.opRZ, c.opRZN, c.opRR2}, []program.OperandID{c.opBeta, c.opRZ})
	// P = Z + β∘P.
	p.ColAxpby(c.opP, c.opZ, c.opBeta, 1, c.opP)

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
func (c *BatchPCG) Graph() *graph.TDG { return c.g }

// Program exposes the per-iteration program.
func (c *BatchPCG) Program() *program.Program { return c.prog }

// Solve runs the batched PCG for right-hand sides bs and returns one result
// per column (see BatchCG.Solve).
func (c *BatchPCG) Solve(ctx context.Context, r rt.Runtime, bs [][]float64) ([]BatchColResult, error) {
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

// initState seeds the batched PCG state: X = 0, R = B, Z = M⁻¹·R applied
// column by column (init is off the hot path), P = Z, rz_j = r_jᵀz_j.
func (c *BatchPCG) initState(bs [][]float64) {
	m, _ := c.A.Dims()
	k := c.K
	zero(c.st.Vec[c.opX])
	r := c.st.Vec[c.opR]
	scatterCols(r, bs, m, k, c.state.bn)
	z := c.st.Vec[c.opZ]
	pv := c.st.Vec[c.opP]
	rz := st0(c.st, c.opRZ)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			c.colR[i] = r[i*k+j]
		}
		if c.M.Kind == precond.KindIC0 {
			c.M.Apply(c.colZ, c.colY, c.colR)
		} else {
			c.M.Apply(c.colZ, nil, c.colR)
		}
		var s float64
		for i := 0; i < m; i++ {
			z[i*k+j] = c.colZ[i]
			pv[i*k+j] = c.colZ[i]
			s += c.colR[i] * c.colZ[i]
		}
		rz[j] = s
	}
	c.state.seed(c.state.bn)
}

// iterate executes one batched PCG iteration (one full graph run, including
// the width-k level-scheduled triangular solves) and returns the number of
// still-live columns. Steady-state calls perform no heap allocations.
//
//sparselint:hotpath
func (c *BatchPCG) iterate(ctx context.Context, pr rt.PreparedRun) (int, error) {
	if err := pr.Run(ctx); err != nil {
		return 0, err
	}
	return c.state.nact, nil
}
