package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// The analytic autotune evaluator's cost constants, as solverd's engine sets
// them (internal/server/exec.go), so a replayed sweep does the engine's work.
const (
	tuneFlopsPerNs = 1.0
	tuneOverheadNs = 500.0
)

// matrixSpec says how to produce a matrix and how to tile it. Exactly one of
// tiles, block and tune is set.
type matrixSpec struct {
	name  string
	build func() (*sparse.COO, error)
	// buildLayer and buildName label the build span: matgen/generate for a
	// generator, sparse/mm_parse for an inline MatrixMarket document.
	buildLayer, buildName string
	tiles                 int             // fixed tiles per dimension
	block                 int             // fixed block size in rows (a replayed plan-cache hit)
	tune                  autotune.Solver // when tiles == 0 && block == 0: run the §5.4 sweep
	tuneWorkers           int
	factorize             bool // IC(0) + level analyses, for pcg
	// factorCached: the replayed job got its factors from the factor cache, so
	// they are computed under cachedLayer and charged to nobody.
	factorCached bool
}

// cachedLayer holds the spans of work a replayed job did not do itself.
const cachedLayer = "cached"

// builtMatrix is a matrix taken through the stages solverd's Engine.run takes
// it through: COO → CSR → stats → plan → CSB/SymCSB (→ IC(0) → levels).
type builtMatrix struct {
	spec   matrixSpec
	coo    *sparse.COO
	csr    *sparse.CSR
	stats  sparse.Stats
	block  int
	trials int // autotune trials run (0 when the tiling was given)
	mat    sparse.Matrix
	ic     *precond.IC0
	low    *precond.Levels
	up     *precond.Levels
	// Stage times in milliseconds; convertMS is to_csr + stats + to_storage.
	buildMS, convertMS, tuneMS, factorMS, levelsMS float64
}

// stage runs f inside a span and adds its duration to *acc.
func stage(tr *tracer, parent, op int, layer, name string, acc *float64, f func() error) error {
	start := time.Now()
	id := tr.begin(parent, op, layer, name)
	err := f()
	tr.end(id)
	*acc += ms(time.Since(start))
	return err
}

// buildMatrix runs the matrix stages, each inside a span under parent.
func buildMatrix(tr *tracer, parent, op int, spec matrixSpec) (*builtMatrix, error) {
	bm := &builtMatrix{spec: spec}
	if err := stage(tr, parent, op, spec.buildLayer, spec.buildName, &bm.buildMS, func() (err error) {
		bm.coo, err = spec.build()
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	_ = stage(tr, parent, op, "sparse", "to_csr", &bm.convertMS, func() error {
		bm.csr = bm.coo.ToCSR()
		return nil
	})
	_ = stage(tr, parent, op, "sparse", "stats", &bm.convertMS, func() error {
		bm.stats = sparse.ComputeStats(bm.csr)
		return nil
	})
	rows := bm.coo.Rows
	switch {
	case spec.tiles > 0:
		bm.block = (rows + spec.tiles - 1) / spec.tiles
	case spec.block > 0:
		bm.block = spec.block
	default:
		_ = stage(tr, parent, op, "autotune", "tune", &bm.tuneMS, func() error {
			res, err := autotune.Tune(rows, autotune.GraphEvaluator(bm.coo, spec.tune, spec.tuneWorkers, tuneFlopsPerNs, tuneOverheadNs))
			bm.trials = len(res.Trials)
			bm.block = res.Block
			if err != nil { // too small to tune: the engine's single-tile fallback
				bm.block = rows
			}
			return nil
		})
	}
	if err := stage(tr, parent, op, "sparse", "to_storage", &bm.convertMS, func() error {
		if !bm.stats.Symmetric {
			bm.mat = bm.coo.ToCSB(bm.block)
			return nil
		}
		sym, err := bm.coo.ToSymCSB(bm.block)
		bm.mat = sym
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: storage: %w", spec.name, err)
	}
	if spec.factorize {
		layer, factorMS, levelsMS := "precond", &bm.factorMS, &bm.levelsMS
		if spec.factorCached {
			layer, factorMS, levelsMS = cachedLayer, new(float64), new(float64)
		}
		if err := stage(tr, parent, op, layer, "factorize", factorMS, func() (err error) {
			bm.ic, err = precond.Factorize(bm.csr)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: factorize: %w", spec.name, err)
		}
		if bm.ic.Kind == precond.KindIC0 {
			_ = stage(tr, parent, op, layer, "levels", levelsMS, func() error {
				bm.low = precond.AnalyzeLower(bm.ic.L, bm.block)
				bm.up = precond.AnalyzeUpper(bm.ic.U, bm.block)
				return nil
			})
		}
	}
	return bm, nil
}

// solveSpec is one solve on a built matrix.
type solveSpec struct {
	label   string // metric suffix: the solver's name, or the backend's on solve-finegrain
	solver  string // lanczos, lobpcg, cg, pcg
	backend string
	k       int   // lanczos: Krylov steps; lobpcg: block width
	iters   int   // lobpcg: fixed iteration count
	batch   int   // cg/pcg: > 1 solves that many right-hand sides as one multi-RHS solve
	seed    int64 // start vector / first right-hand side; batch column j uses seed+j
}

// solveOut is what a solve returned, in the form the verifier needs.
type solveOut struct {
	iters     int
	eig       []float64   // lanczos, lobpcg
	xs        [][]float64 // cg, pcg: one solution per right-hand side
	relres    float64     // the solver's own convergence measure
	converged bool
}

// builtSolve is a constructed solver bound to its matrix.
type builtSolve struct {
	spec solveSpec
	bm   *builtMatrix
	g    *graph.TDG
	prog *program.Program
	rhs  [][]float64
	run  func(ctx context.Context, r rt.Runtime) (solveOut, error)
	// newMS is what solver.New* took: program, task graph and store.
	newMS float64
}

// buildSolve constructs the solver (graph build included) inside a span.
func buildSolve(tr *tracer, parent, op int, bm *builtMatrix, spec solveSpec) (*builtSolve, error) {
	bs := &builtSolve{spec: spec, bm: bm}
	rows := bm.coo.Rows
	if spec.solver == "cg" || spec.solver == "pcg" {
		n := max(spec.batch, 1)
		for j := 0; j < n; j++ {
			bs.rhs = append(bs.rhs, solver.RandomRHS(rows, spec.seed+int64(j)))
		}
	}
	err := stage(tr, parent, op, "graph", "new_"+spec.solver, &bs.newMS, func() error {
		switch {
		case spec.solver == "lanczos":
			l, err := solver.NewLanczos(bm.mat, spec.k)
			if err != nil {
				return err
			}
			bs.g, bs.prog = l.Graph(), l.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				res, err := l.Run(ctx, r, spec.seed)
				return solveOut{iters: res.Iterations, eig: res.Eigenvalues, relres: res.Residual, converged: res.Converged}, err
			}
		case spec.solver == "lobpcg":
			l, err := solver.NewLOBPCG(bm.mat, spec.k)
			if err != nil {
				return err
			}
			bs.g, bs.prog = l.Graph(), l.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				res, err := l.Run(ctx, r, spec.seed, spec.iters)
				return solveOut{iters: res.Iterations, eig: res.Eigenvalues, relres: res.Residual, converged: true}, err
			}
		case spec.solver == "cg" && spec.batch <= 1:
			c, err := solver.NewCG(bm.mat)
			if err != nil {
				return err
			}
			bs.g, bs.prog = c.Graph(), c.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				x, relres, iters, err := c.Solve(ctx, r, bs.rhs[0])
				return solveOut{iters: iters, xs: [][]float64{x}, relres: relres, converged: err == nil}, err
			}
		case spec.solver == "pcg" && spec.batch <= 1:
			c, err := solver.NewPCGWithLevels(bm.mat, bm.ic, bm.low, bm.up)
			if err != nil {
				return err
			}
			bs.g, bs.prog = c.Graph(), c.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				x, relres, iters, err := c.Solve(ctx, r, bs.rhs[0])
				return solveOut{iters: iters, xs: [][]float64{x}, relres: relres, converged: err == nil}, err
			}
		case spec.solver == "cg":
			c, err := solver.NewBatchCG(bm.mat, spec.batch)
			if err != nil {
				return err
			}
			bs.g, bs.prog = c.Graph(), c.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				cols, err := c.Solve(ctx, r, bs.rhs)
				return batchOut(cols), err
			}
		case spec.solver == "pcg":
			c, err := solver.NewBatchPCG(bm.mat, bm.ic, spec.batch, bm.low, bm.up)
			if err != nil {
				return err
			}
			bs.g, bs.prog = c.Graph(), c.Program()
			bs.run = func(ctx context.Context, r rt.Runtime) (solveOut, error) {
				cols, err := c.Solve(ctx, r, bs.rhs)
				return batchOut(cols), err
			}
		default:
			return fmt.Errorf("unknown solver %q", spec.solver)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", spec.solver, bm.spec.name, err)
	}
	return bs, nil
}

// batchOut folds a multi-RHS result: the solve took as long as its slowest
// column and converged only if every column did.
func batchOut(cols []solver.BatchColResult) solveOut {
	out := solveOut{converged: true}
	for _, c := range cols {
		out.xs = append(out.xs, c.X)
		out.iters = max(out.iters, c.Iterations)
		out.relres = math.Max(out.relres, c.RelRes)
		out.converged = out.converged && c.Converged
	}
	return out
}

// solve runs the solver once inside a solver-layer span. When tracing, the
// runtime is wrapped so every graph preparation and execution becomes a child
// span in the rt layer; the solve span's self time is then the solver's own.
func (bs *builtSolve) solve(ctx context.Context, tr *tracer, parent, op int, r rt.Runtime) (solveOut, time.Duration, error) {
	start := time.Now()
	id := tr.begin(parent, op, "solver", bs.spec.label)
	if tr != nil {
		r = &tracedRuntime{inner: r, tr: tr, parent: id, op: op}
	}
	out, err := bs.run(ctx, r)
	tr.end(id)
	return out, time.Since(start), err
}

// newRuntime constructs a backend by its solverd name.
func newRuntime(backend string, workers int) (rt.Runtime, error) {
	opt := rt.Options{Workers: workers}
	switch backend {
	case "bsp":
		return rt.NewBSP(opt), nil
	case "deepsparse":
		return rt.NewDeepSparse(opt), nil
	case "hpx":
		return rt.NewHPX(opt), nil
	case "regent":
		return rt.NewRegent(opt), nil
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}

var backends = []string{"bsp", "deepsparse", "hpx", "regent"}

// tracedRuntime times a backend from outside: it implements rt.Runtime and
// rt.Preparer and records one rt-layer span per Prepare and per graph
// execution.
type tracedRuntime struct {
	inner  rt.Runtime
	tr     *tracer
	parent int
	op     int
}

func (t *tracedRuntime) Name() string { return t.inner.Name() }

// Run is the unprepared form; the solvers all go through Prepare.
func (t *tracedRuntime) Run(ctx context.Context, g *graph.TDG, st *program.Store) error {
	p := t.Prepare(g, st)
	defer p.Close()
	return p.Run(ctx)
}

func (t *tracedRuntime) Prepare(g *graph.TDG, st *program.Store) rt.PreparedRun {
	id := t.tr.begin(t.parent, t.op, "rt", "prepare")
	pr := rt.PrepareRun(t.inner, g, st)
	t.tr.end(id)
	return &tracedPrepared{PreparedRun: pr, t: t, tasks: int64(len(g.Tasks))}
}

type tracedPrepared struct {
	rt.PreparedRun
	t     *tracedRuntime
	tasks int64
}

// Run times one graph execution.
//
//sparselint:coldcall the traced pass's timing wrapper: it records a span per graph execution (an amortized append), which is the tracing overhead trace.overhead_share reports
func (p *tracedPrepared) Run(ctx context.Context) error {
	id := p.t.tr.begin(p.t.parent, p.t.op, "rt", "run")
	err := p.PreparedRun.Run(ctx)
	p.t.tr.end(id)
	p.t.tr.count("rt.graph_runs", 1)
	p.t.tr.count("rt.tasks_run", p.tasks)
	return err
}
