package server

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// groupCancel aggregates DELETE requests across a group's members. The shared
// solve context is cancelled only once every live member has asked — the
// multi-RHS iteration cannot abandon one column mid-run, and a retired column
// costs almost nothing — but members that asked are still marked canceled
// when the group completes, so a DELETE is never silently ignored. A job that
// runs alone is a group of one: its vote is the whole quorum.
type groupCancel struct {
	mu        sync.Mutex
	armed     bool
	total     int
	requested map[*Job]bool
	cancel    context.CancelFunc
}

// request registers one member's cancellation vote. Callers hold j.mu, so
// request must not touch any job's mutex.
func (gc *groupCancel) request(j *Job) {
	gc.mu.Lock()
	gc.requested[j] = true
	fire := gc.armed && len(gc.requested) >= gc.total
	gc.mu.Unlock()
	if fire {
		gc.cancel()
	}
}

// arm sets the member count once the group's live set is known. Votes cast
// before arming (between a member's claim and arm) are honored here.
func (gc *groupCancel) arm(n int) {
	gc.mu.Lock()
	gc.armed = true
	gc.total = n
	fire := n > 0 && len(gc.requested) >= n
	gc.mu.Unlock()
	if fire {
		gc.cancel()
	}
}

// requestedFor reports whether a member voted to cancel.
func (gc *groupCancel) requestedFor(j *Job) bool {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.requested[j]
}

// runGroup is the one path from queued to a terminal state: it claims a
// dispatcher group's still-queued members, runs them as one solve, and
// distributes the per-member outcomes. A job that was not coalesced — every
// lanczos or lobpcg job, every job with a deadline, a cg/pcg job nobody joined
// — is a group of one through the same code, and its result carries no batch
// fields.
func (e *Engine) runGroup(group []*Job) {
	start := time.Now()
	var ctx context.Context
	var cancel context.CancelFunc
	if d := group[0].Spec.DeadlineMS; d > 0 { // never coalesced: the group is this job
		ctx, cancel = context.WithTimeout(e.baseCtx, time.Duration(d)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	defer cancel()
	gc := &groupCancel{requested: make(map[*Job]bool), cancel: cancel}

	jobs := make([]*Job, 0, len(group))
	for _, j := range group {
		j.mu.Lock()
		if j.state != StateQueued { // cancelled while queued or held by the dispatcher
			j.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = start
		member := j
		j.cancel = func() { gc.request(member) }
		j.mu.Unlock()
		e.metrics.QueueWait.Observe(start.Sub(j.submitted))
		e.metrics.QueueWaitKind.Observe(j.Spec.Solver, start.Sub(j.submitted))
		jobs = append(jobs, j)
	}
	gc.arm(len(jobs))
	if len(jobs) == 0 {
		return
	}
	e.metrics.BatchSizes.Observe(jobs[0].Spec.Solver, len(jobs))
	var batchID string
	if len(jobs) >= 2 {
		e.metrics.CoalescedBatches.Add(1)
		e.metrics.BatchedJobs.Add(int64(len(jobs)))
		e.mu.Lock()
		e.batchSeq++
		batchID = fmt.Sprintf("batch-%d", e.batchSeq)
		e.mu.Unlock()
	}

	results, failures, err := e.solve(ctx, jobs)
	// Classify the group-level outcome once, before the per-job loop: the
	// error is shared by every member, and the loop is not the place to
	// decide what it means.
	canceled := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))

	fin := time.Now()
	for i, j := range jobs {
		j.mu.Lock()
		j.finished = fin
		j.cancel = nil
		j.admitted = nil
		switch {
		case gc.requestedFor(j): // whether or not its vote stopped the solve
			j.state = StateCanceled
			j.err = "canceled while running"
			e.metrics.Canceled.Add(1)
		case canceled: // deadline, or the engine shutting down
			j.state = StateCanceled
			j.err = err.Error()
			e.metrics.Canceled.Add(1)
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
			e.metrics.Failed.Add(1)
		case failures[i] != nil:
			j.state = StateFailed
			j.err = failures[i].Error()
			e.metrics.Failed.Add(1)
		default:
			res := results[i]
			if len(jobs) >= 2 {
				res.BatchID = batchID
				res.BatchSize = len(jobs)
				res.BatchIndex = i
			}
			j.state = StateDone
			j.result = res
			e.metrics.Done.Add(1)
		}
		j.mu.Unlock()
		e.metrics.Total.Observe(fin.Sub(j.submitted))
	}
}

// materialized is a job's operator resolved to one tiling: what solve
// needs to construct a solver, and where each piece came from.
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

// lookupOperator is the identity lookup in the operator cache: a miss
// generates or parses the matrix and scans it, once, however many jobs are
// waiting on it.
func (e *Engine) lookupOperator(job *Job) (*admission, error) {
	start := time.Now()
	op, built, err := e.operators.get(job.identity, &job.Spec.Matrix)
	if err != nil {
		return nil, err
	}
	return &admission{op: op, built: built, loadMS: sinceMS(start)}, nil
}

// materialize is the front half of every job: the operator (looked up at
// admission for an inline matrix, here for a suite one), plan lookup by the
// operator's structural fingerprint, and the operator's storage at the plan's
// block size. On repeat traffic all three are cache hits and the job pays
// only its solve.
func (e *Engine) materialize(job *Job, workers int) (*materialized, error) {
	start := time.Now()
	adm := job.admitted
	var err error
	if adm == nil {
		if adm, err = e.lookupOperator(job); err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
	}
	op := adm.op
	m := &materialized{op: op, matrixSource: "cache"}
	if adm.built {
		m.matrixSource = "built"
	}
	m.timings.LoadMS = adm.loadMS
	planStart := time.Now()
	m.plan, m.planSource = e.resolvePlan(job.Spec, op, workers)
	m.timings.PlanMS = sinceMS(planStart)
	e.metrics.PlanStage.Observe(time.Since(start))
	convertStart := time.Now()
	if m.mat, err = op.storageFor(m.plan.Block); err != nil {
		return nil, err
	}
	m.timings.ConvertMS = sinceMS(convertStart)
	m.firstSight = adm.built || m.planSource == "autotune" || m.planSource == "fallback"
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

// solve materializes the group's shared operator once and solves: an
// eigensolver job alone, cg and pcg members as the columns of one width-k
// program — k = 1 included, so a job's iterations and residual are the same
// bits whatever group it landed in. The members agree on solver, backend,
// workers, block, and matrix identity (the coalesce key), differing only in
// their RHS seeds. It returns one result or one failure per member, or the
// error they all share.
func (e *Engine) solve(ctx context.Context, jobs []*Job) ([]*JobResult, []error, error) {
	spec := jobs[0].Spec
	workers := e.effectiveWorkers(spec)
	m, err := e.materialize(jobs[0], workers)
	if err != nil {
		return nil, nil, err
	}
	rows := m.op.coo.Rows
	rtm := e.runtimeFor(spec.Backend, workers)
	shared := m.result()

	solveStart := time.Now()
	var cols []solver.BatchColResult
	switch spec.Solver {
	case "lanczos", "lobpcg":
		r, err := solveEigen(ctx, spec, m.mat, rows, rtm)
		if err != nil {
			return nil, nil, err
		}
		if err := finiteEigen(r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", spec.Solver, err)
		}
		shared.Eigenvalues = r.Eigenvalues
		shared.Iterations = r.Iterations
		shared.Residual = r.Residual
		shared.Converged = r.Converged
	case "cg":
		c, err := solver.NewBatchCG(m.mat, len(jobs))
		if err != nil {
			return nil, nil, err
		}
		if cols, err = c.Solve(ctx, rtm, rightHandSides(jobs, rows)); err != nil {
			return nil, nil, err
		}
	case "pcg":
		ic, low, up, fsource, err := m.preconditioner()
		if err != nil {
			return nil, nil, err
		}
		shared.Precond = ic.Kind.String()
		shared.FactorSource = fsource
		c, err := solver.NewBatchPCG(m.mat, ic, len(jobs), low, up)
		if err != nil {
			return nil, nil, err
		}
		if cols, err = c.Solve(ctx, rtm, rightHandSides(jobs, rows)); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown solver %q", spec.Solver)
	}
	e.metrics.Solve.Observe(time.Since(solveStart))
	m.reportTimings(solveStart, shared)
	if cols == nil {
		return []*JobResult{shared}, []error{nil}, nil
	}

	results := make([]*JobResult, len(jobs))
	failures := make([]error, len(jobs))
	for i, col := range cols {
		if err := col.Err(); err != nil {
			failures[i] = fmt.Errorf("%s: %w", spec.Solver, err)
			continue
		}
		res := *shared
		res.Iterations = col.Iterations
		res.Residual = col.RelRes
		res.Converged = true
		if i > 0 { // only the first member can have built the operator, or paid for any stage
			res.MatrixSource = "cache"
			res.Timings = nil
		}
		results[i] = &res
	}
	return results, failures, nil
}

// rightHandSides is each member's seeded right-hand side, in group order.
func rightHandSides(jobs []*Job, rows int) [][]float64 {
	bs := make([][]float64, len(jobs))
	for i, j := range jobs {
		bs[i] = solver.RandomRHS(rows, rhsSeed(j.Spec))
	}
	return bs
}

// solveEigen runs a lanczos or lobpcg job.
func solveEigen(ctx context.Context, spec JobSpec, mat sparse.Matrix, rows int, rtm rt.Runtime) (solver.Result, error) {
	k := spec.K
	if k <= 0 {
		k = defaultSolverK
	}
	if spec.Solver == "lanczos" {
		if k > rows {
			k = rows
		}
		l, err := solver.NewLanczos(mat, k)
		if err != nil {
			return solver.Result{}, err
		}
		return l.Run(ctx, rtm, rhsSeed(spec))
	}
	if 3*k > rows {
		k = rows / 3
		if k < 1 {
			return solver.Result{}, fmt.Errorf("matrix with %d rows too small for lobpcg", rows)
		}
	}
	l, err := solver.NewLOBPCG(mat, k)
	if err != nil {
		return solver.Result{}, err
	}
	return l.Run(ctx, rtm, rhsSeed(spec), spec.Iters)
}

// finiteEigen refuses an eigen result with a NaN or infinite eigenvalue or
// residual: finite input can still overflow, and such a result is no answer —
// nor can JSON carry it.
func finiteEigen(r solver.Result) error {
	for i, v := range r.Eigenvalues {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite eigenvalue %d (%v)", i, v)
		}
	}
	if math.IsNaN(r.Residual) || math.IsInf(r.Residual, 0) {
		return fmt.Errorf("non-finite residual (%v)", r.Residual)
	}
	return nil
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
