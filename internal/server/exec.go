package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
	"sparsetask/internal/topo"
)

// Cost-model constants for the analytic autotune evaluator. Only relative
// costs across block counts matter for picking a bin, so rough host-scale
// numbers suffice: ~1 flop/ns sustained and ~500 ns of scheduling overhead
// per task.
const (
	tuneFlopsPerNs = 1.0
	tuneOverheadNs = 500.0
	defaultSolverK = 6
	defaultJobSeed = 1
)

// newRuntime constructs a backend. Backend names are validated at admission.
func newRuntime(backend string, workers int, tp topo.Topology) rt.Runtime {
	opt := rt.Options{Workers: workers, Topo: tp}
	switch backend {
	case "bsp":
		return rt.NewBSP(opt)
	case "deepsparse":
		return rt.NewDeepSparse(opt)
	case "hpx":
		return rt.NewHPX(opt)
	case "regent":
		return rt.NewRegent(opt)
	}
	panic(fmt.Sprintf("server: unknown backend %q", backend))
}

// effectiveWorkers resolves a job's runtime worker count.
func (e *Engine) effectiveWorkers(spec JobSpec) int {
	if spec.Workers > 0 {
		return spec.Workers
	}
	if e.cfg.RTWorkers > 0 {
		return e.cfg.RTWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// execute runs one dequeued job through plan + solve and records metrics.
func (e *Engine) execute(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while queued
		job.mu.Unlock()
		return
	}
	start := time.Now()
	job.state = StateRunning
	job.started = start
	ctx := e.baseCtx
	var cancel context.CancelFunc
	if job.Spec.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(job.Spec.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	job.cancel = cancel
	job.mu.Unlock()
	defer cancel()
	e.metrics.QueueWait.Observe(start.Sub(job.submitted))
	e.metrics.QueueWaitKind.Observe(job.Spec.Solver, start.Sub(job.submitted))

	res, err := e.run(ctx, job)

	fin := time.Now()
	job.mu.Lock()
	job.finished = fin
	job.cancel = nil
	switch {
	case err == nil:
		job.state = StateDone
		job.result = res
		e.metrics.Done.Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		job.state = StateCanceled
		job.err = err.Error()
		e.metrics.Canceled.Add(1)
	default:
		job.state = StateFailed
		job.err = err.Error()
		e.metrics.Failed.Add(1)
	}
	job.mu.Unlock()
	e.metrics.Total.Observe(fin.Sub(job.submitted))
}

// batchCancel aggregates DELETE requests across a batch's members. The
// shared solve context is cancelled only once every live member has asked —
// the multi-RHS iteration cannot abandon one column mid-run, and a retired
// column costs almost nothing — but members that asked are still marked
// canceled when the batch completes, so a DELETE is never silently ignored.
type batchCancel struct {
	mu        sync.Mutex
	armed     bool
	total     int
	requested map[*Job]bool
	cancel    context.CancelFunc
}

// request registers one member's cancellation vote. Callers hold j.mu, so
// request must not touch any job's mutex.
func (bc *batchCancel) request(j *Job) {
	bc.mu.Lock()
	bc.requested[j] = true
	fire := bc.armed && len(bc.requested) >= bc.total
	bc.mu.Unlock()
	if fire {
		bc.cancel()
	}
}

// arm sets the member count once the batch's live set is known. Votes cast
// before arming (between a member's claim and arm) are honored here.
func (bc *batchCancel) arm(n int) {
	bc.mu.Lock()
	bc.armed = true
	bc.total = n
	fire := n > 0 && len(bc.requested) >= n
	bc.mu.Unlock()
	if fire {
		bc.cancel()
	}
}

// requestedFor reports whether a member voted to cancel.
func (bc *batchCancel) requestedFor(j *Job) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.requested[j]
}

// executeBatch runs one dispatcher group. Singleton groups (and groups
// reduced to one live member by cancel-while-queued) take the exact
// single-job path; larger groups run as one multi-RHS batched solve.
func (e *Engine) executeBatch(group []*Job) {
	live := 0
	for _, j := range group {
		if j.StateNow() == StateQueued {
			live++
		}
	}
	if live <= 1 {
		if live == 1 {
			e.metrics.BatchSizes.Observe(group[0].Spec.Solver, 1)
		}
		for _, j := range group {
			e.execute(j)
		}
		return
	}
	e.runBatchJobs(group)
}

// runBatchJobs claims a group's still-queued members, runs them as one
// batched solve, and distributes the per-column outcomes.
func (e *Engine) runBatchJobs(group []*Job) {
	start := time.Now()
	ctx, cancel := context.WithCancel(e.baseCtx)
	defer cancel()
	bc := &batchCancel{requested: make(map[*Job]bool), cancel: cancel}

	jobs := make([]*Job, 0, len(group))
	for _, j := range group {
		j.mu.Lock()
		if j.state != StateQueued { // cancelled between dispatch and claim
			j.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = start
		member := j
		j.cancel = func() { bc.request(member) }
		j.mu.Unlock()
		e.metrics.QueueWait.Observe(start.Sub(j.submitted))
		e.metrics.QueueWaitKind.Observe(j.Spec.Solver, start.Sub(j.submitted))
		jobs = append(jobs, j)
	}
	bc.arm(len(jobs))
	if len(jobs) == 0 {
		return
	}
	e.metrics.BatchSizes.Observe(jobs[0].Spec.Solver, len(jobs))
	if len(jobs) >= 2 {
		e.metrics.CoalescedBatches.Add(1)
		e.metrics.BatchedJobs.Add(int64(len(jobs)))
	}
	e.mu.Lock()
	e.batchSeq++
	batchID := fmt.Sprintf("batch-%d", e.batchSeq)
	e.mu.Unlock()

	results, shared, err := e.runBatch(ctx, jobs)
	// Classify the batch-level outcome once, before the per-job loop: the
	// error is shared by every member, and the loop is not the place to
	// decide what it means.
	batchCanceled := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))

	fin := time.Now()
	for i, j := range jobs {
		j.mu.Lock()
		j.finished = fin
		j.cancel = nil
		switch {
		case batchCanceled:
			j.state = StateCanceled
			j.err = err.Error()
			e.metrics.Canceled.Add(1)
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
			e.metrics.Failed.Add(1)
		case bc.requestedFor(j):
			j.state = StateCanceled
			j.err = "canceled while batched"
			e.metrics.Canceled.Add(1)
		case !results[i].Converged:
			j.state = StateFailed
			j.err = fmt.Sprintf("%s did not converge after %d iterations (relres %.3e)",
				j.Spec.Solver, results[i].Iterations, results[i].RelRes)
			e.metrics.Failed.Add(1)
		default:
			res := *shared
			res.Iterations = results[i].Iterations
			res.Residual = results[i].RelRes
			res.Converged = true
			res.BatchID = batchID
			res.BatchSize = len(jobs)
			res.BatchIndex = i
			if i > 0 { // only the first member can have built the operator, or paid for any stage
				res.MatrixSource = "cache"
				res.Timings = nil
			}
			j.state = StateDone
			j.result = &res
			e.metrics.Done.Add(1)
		}
		j.mu.Unlock()
		e.metrics.Total.Observe(fin.Sub(j.submitted))
	}
}

// materialized is a job's operator resolved to one tiling: what run and
// runBatch need to construct a solver, and where each piece came from.
type materialized struct {
	op           *operator
	plan         Plan
	mat          sparse.Matrix
	planSource   string
	matrixSource string
	// timings is where the job's time went, stage by stage; firstSight says
	// some stage before the solve did its work instead of finding it cached,
	// which is when the result reports them.
	timings    Timings
	firstSight bool
}

// sinceMS is the time since start in milliseconds.
func sinceMS(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

// materialize is the front half of every job: identity lookup in the
// operator cache (a miss generates or parses the matrix and scans it, once,
// however many jobs are waiting on it), plan lookup by the operator's
// structural fingerprint, and the operator's storage at the plan's block
// size. On repeat traffic all three are cache hits and the job pays only its
// solve.
func (e *Engine) materialize(job *Job, workers int) (*materialized, error) {
	start := time.Now()
	op, built, err := e.operators.get(job.identity, &job.Spec.Matrix)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	m := &materialized{op: op, matrixSource: "cache"}
	if built {
		m.matrixSource = "built"
	}
	m.timings.LoadMS = sinceMS(start)
	planStart := time.Now()
	m.plan, m.planSource = e.resolvePlan(job.Spec, op, workers)
	m.timings.PlanMS = sinceMS(planStart)
	e.metrics.PlanStage.Observe(time.Since(start))
	convertStart := time.Now()
	if m.mat, err = op.storageFor(m.plan.Block); err != nil {
		return nil, err
	}
	m.timings.ConvertMS = sinceMS(convertStart)
	m.firstSight = built || m.planSource == "autotune" || m.planSource == "fallback"
	return m, nil
}

// preconditioner is the operator's, timed: a pcg job that had to factorize is
// a first-sight job even when matrix and plan were cached.
func (m *materialized) preconditioner() (*precond.IC0, *precond.Levels, *precond.Levels, string, error) {
	start := time.Now()
	ic, low, up, source, err := m.op.preconditioner(m.plan.Block)
	m.timings.FactorMS = sinceMS(start)
	m.firstSight = m.firstSight || source == "computed"
	return ic, low, up, source, err
}

// reportTimings closes the solve stage and attaches the timings to the result
// of a first-sight job. Repeat traffic reports none: its stages are lookups.
func (m *materialized) reportTimings(solveStart time.Time, res *JobResult) {
	if m.firstSight {
		t := m.timings
		t.SolveMS = sinceMS(solveStart)
		res.Timings = &t
	}
}

// result starts a JobResult with the fields every solver kind reports.
func (m *materialized) result() *JobResult {
	return &JobResult{
		MatrixRows:   m.op.coo.Rows,
		MatrixNNZ:    m.op.coo.NNZ(),
		Block:        m.plan.Block,
		BlockCount:   m.plan.BlockCount,
		SymStorage:   m.op.stats.Symmetric,
		PlanSource:   m.planSource,
		MatrixSource: m.matrixSource,
	}
}

// rhsSeed is the job's solver seed with the default applied.
func rhsSeed(spec JobSpec) int64 {
	if spec.Seed == 0 {
		return defaultJobSeed
	}
	return spec.Seed
}

// runBatch materializes the shared operator once, then solves every
// member's right-hand side in one width-k program. The members agree on
// solver, backend, workers, block, and matrix identity (the coalesce key),
// differing only in their RHS seeds. The returned JobResult holds the
// batch-invariant fields each member's result is copied from.
func (e *Engine) runBatch(ctx context.Context, jobs []*Job) ([]solver.BatchColResult, *JobResult, error) {
	spec := jobs[0].Spec
	workers := e.effectiveWorkers(spec)
	m, err := e.materialize(jobs[0], workers)
	if err != nil {
		return nil, nil, err
	}
	rtm := e.runtimeFor(spec.Backend, workers)

	k := len(jobs)
	bs := make([][]float64, k)
	for i, j := range jobs {
		bs[i] = solver.RandomRHS(m.op.coo.Rows, rhsSeed(j.Spec))
	}
	shared := m.result()

	solveStart := time.Now()
	var results []solver.BatchColResult
	switch spec.Solver {
	case "cg":
		c, err := solver.NewBatchCG(m.mat, k)
		if err != nil {
			return nil, nil, err
		}
		results, err = c.Solve(ctx, rtm, bs)
		if err != nil {
			return nil, nil, err
		}
	case "pcg":
		ic, low, up, fsource, err := m.preconditioner()
		if err != nil {
			return nil, nil, err
		}
		c, err := solver.NewBatchPCG(m.mat, ic, k, low, up)
		if err != nil {
			return nil, nil, err
		}
		results, err = c.Solve(ctx, rtm, bs)
		if err != nil {
			return nil, nil, err
		}
		shared.Precond = ic.Kind.String()
		shared.FactorSource = fsource
	default:
		return nil, nil, fmt.Errorf("solver %q is not batchable", spec.Solver)
	}
	e.metrics.Solve.Observe(time.Since(solveStart))
	m.reportTimings(solveStart, shared)
	return results, shared, nil
}

// run materializes the job's operator and solves.
func (e *Engine) run(ctx context.Context, job *Job) (*JobResult, error) {
	spec := job.Spec
	workers := e.effectiveWorkers(spec)
	m, err := e.materialize(job, workers)
	if err != nil {
		return nil, err
	}
	mat, rows := m.mat, m.op.coo.Rows
	rtm := e.runtimeFor(spec.Backend, workers)
	seed := rhsSeed(spec)
	res := m.result()

	solveStart := time.Now()
	switch spec.Solver {
	case "lanczos":
		k := spec.K
		if k <= 0 {
			k = defaultSolverK
		}
		if k > rows {
			k = rows
		}
		l, err := solver.NewLanczos(mat, k)
		if err != nil {
			return nil, err
		}
		r, err := l.Run(ctx, rtm, seed)
		if err != nil {
			return nil, err
		}
		res.Eigenvalues = r.Eigenvalues
		res.Iterations = r.Iterations
		res.Residual = r.Residual
		res.Converged = r.Converged
	case "lobpcg":
		k := spec.K
		if k <= 0 {
			k = defaultSolverK
		}
		if 3*k > rows {
			k = rows / 3
			if k < 1 {
				return nil, fmt.Errorf("matrix with %d rows too small for lobpcg", rows)
			}
		}
		l, err := solver.NewLOBPCG(mat, k)
		if err != nil {
			return nil, err
		}
		r, err := l.Run(ctx, rtm, seed, spec.Iters)
		if err != nil {
			return nil, err
		}
		res.Eigenvalues = r.Eigenvalues
		res.Iterations = r.Iterations
		res.Residual = r.Residual
		res.Converged = r.Converged
	case "cg":
		c, err := solver.NewCG(mat)
		if err != nil {
			return nil, err
		}
		b := solver.RandomRHS(rows, seed)
		_, relres, iters, err := c.Solve(ctx, rtm, b)
		if err != nil {
			return nil, fmt.Errorf("cg after %d iterations (relres %.3e): %w", iters, relres, err)
		}
		res.Iterations = iters
		res.Residual = relres
		res.Converged = true
	case "pcg":
		ic, low, up, fsource, err := m.preconditioner()
		if err != nil {
			return nil, err
		}
		c, err := solver.NewPCGWithLevels(mat, ic, low, up)
		if err != nil {
			return nil, err
		}
		b := solver.RandomRHS(rows, seed)
		_, relres, iters, err := c.Solve(ctx, rtm, b)
		if err != nil {
			return nil, fmt.Errorf("pcg after %d iterations (relres %.3e): %w", iters, relres, err)
		}
		res.Iterations = iters
		res.Residual = relres
		res.Converged = true
		res.Precond = ic.Kind.String()
		res.FactorSource = fsource
	default:
		return nil, fmt.Errorf("unknown solver %q", spec.Solver)
	}
	e.metrics.Solve.Observe(time.Since(solveStart))
	m.reportTimings(solveStart, res)
	return res, nil
}

// runtimeFor returns the shared Runtime instance for a backend, or an
// ad-hoc one when the job overrides the worker count. Shared instances are
// exercised concurrently by the pool — the pattern rt.Runtime documents as
// safe (each job has its own TDG and store).
func (e *Engine) runtimeFor(backend string, workers int) rt.Runtime {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runtimes == nil {
		e.runtimes = make(map[runtimeKey]rt.Runtime)
	}
	k := runtimeKey{backend, workers}
	r, ok := e.runtimes[k]
	if !ok {
		r = newRuntime(backend, workers, e.topo)
		e.runtimes[k] = r
	}
	return r
}

type runtimeKey struct {
	backend string
	workers int
}

// resolvePlan picks the CSB tiling: an explicit request wins, then the plan
// cache, then a fresh §5.4 six-bin autotune sweep — which evaluates only the
// bins its cost bound cannot rule out — whose result is cached under the
// matrix's structural fingerprint. Matrices too small to tune get
// a single-tile fallback (also cached, so they only pay the failed sweep
// once).
func (e *Engine) resolvePlan(spec JobSpec, op *operator, workers int) (Plan, string) {
	rows := op.coo.Rows
	if spec.Block > 0 {
		return Plan{
			Block:      spec.Block,
			BlockCount: (rows + spec.Block - 1) / spec.Block,
		}, "request"
	}
	key := PlanKey{
		Fingerprint: op.fp,
		Solver:      spec.Solver,
		Backend:     spec.Backend,
		Workers:     workers,
		Topo:        e.topo.Name,
		SymStorage:  op.stats.Symmetric,
	}
	if p, ok := e.plans.Get(key); ok {
		return p, "cache"
	}

	sv := autotune.Lanczos // cg and pcg share Lanczos's SpMV-dominated kernel mix
	if spec.Solver == "lobpcg" {
		sv = autotune.LOBPCG
	}
	e.metrics.AutotuneSweeps.Add(1)
	res, err := autotune.Tune(rows, autotune.GraphEvaluator(op.coo, sv, workers, tuneFlopsPerNs, tuneOverheadNs))
	e.metrics.AutotuneTrials.Add(int64(len(res.Trials)))
	e.metrics.AutotunePruned.Add(int64(len(res.Pruned)))
	if err != nil {
		p := Plan{Block: rows, BlockCount: 1}
		e.plans.Put(key, p)
		return p, "fallback"
	}
	p := Plan{Block: res.Block, BlockCount: res.BlockCount, Bin: res.Bin}
	e.plans.Put(key, p)
	return p, "autotune"
}
