package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sparsetask/internal/rt"
)

// Config sizes the engine (and the Server that wraps it).
type Config struct {
	// QueueSize bounds the FIFO admission queue; a full queue rejects new
	// jobs with ErrQueueFull (HTTP 429). The dispatcher holds one more job (or
	// one open group) off the queue while the pool is busy. Default 64.
	QueueSize int
	// Workers is the pool size — how many jobs (or batches) execute
	// concurrently. Default 2.
	Workers int
	// RTWorkers is the default per-job runtime worker count (0 =
	// GOMAXPROCS). Jobs may override with JobSpec.Workers.
	RTWorkers int
	// CoalesceMax caps how many same-matrix cg/pcg jobs the dispatcher may
	// merge into one multi-RHS batched solve. Values <= 1 disable coalescing:
	// the dispatcher hands every job to the pool as a group of one. Default 1
	// (disabled); cmd/solverd defaults its -coalesce flag to 8.
	CoalesceMax int
	// CoalesceWindow is how long the dispatcher holds a batchable job open
	// waiting for same-matrix arrivals before dispatching the group. Only
	// consulted when CoalesceMax > 1. Default 2ms.
	CoalesceWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 1
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	return c
}

// The capacities of the engine's two caches, fixed because no deployment
// needs other values.
const (
	// planCacheSize bounds the autotune plan LRU, in entries.
	planCacheSize = 128
	// operatorCacheBytes is the byte budget of the operator cache: the LRU,
	// keyed by matrix identity, that holds each matrix's COO, tiled storage
	// per block size, and (for pcg) IC(0) factors and level analyses.
	operatorCacheBytes = 256 << 20
)

// maxTrackedJobs bounds how many jobs the engine remembers. Past it, Submit
// retires the oldest terminal jobs, so a long-lived shard's memory and the
// walks of GET /jobs and /metrics stop growing with every job it ever
// accepted. A retired job's ID answers 404.
const maxTrackedJobs = 1024

// Admission errors returned by Engine.Submit. The HTTP skin maps them to 503,
// 429 and 400; other transports (internal/route proxies them verbatim) do the
// same mapping on their side.
var (
	// ErrDraining rejects submissions while the engine is shutting down.
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity — the backpressure signal the router's spill logic keys off.
	ErrQueueFull = errors.New("queue full")
	// ErrBadMatrix rejects a submission whose inline matrix does not parse;
	// the error wraps the parser's, which names the line or entry at fault.
	// The HTTP skin maps it to 400.
	ErrBadMatrix = errors.New("bad matrix")
)

// Engine is solverd's transport-agnostic core: the bounded admission queue,
// the batch coalescer, the worker pool, the autotune plan cache, the operator
// cache, and the per-(backend,workers) runtime instances. It knows nothing
// about HTTP — Server wraps it in handlers, and tests or alternative
// transports can drive Submit/JobByID/Cancel/Drain directly.
type Engine struct {
	cfg       Config
	metrics   *Metrics
	plans     *PlanCache
	operators *OperatorCache
	// wake tells the dispatcher that the queue gained a job or the engine
	// began draining. It holds one token, so a signal sent while the
	// dispatcher is busy waits for it.
	wake chan struct{}
	// groups carries dispatcher groups to the pool.
	groups chan []*Job

	mu sync.Mutex
	// queue is the FIFO admission queue: admitted jobs the dispatcher has not
	// taken yet, none of them canceled (Cancel removes a queued job at once,
	// freeing its slot). Submit refuses once it holds QueueSize jobs.
	queue    []*Job
	jobs     map[string]*Job
	order    []string // submission order, for GET /jobs
	seq      int64
	batchSeq int64
	draining bool
	runtimes map[runtimeKey]rt.Runtime // shared per-(backend,workers) instances

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup
}

// NewEngine starts the dispatcher and the worker pool and returns a ready
// engine.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		metrics:    &Metrics{},
		plans:      NewPlanCache(planCacheSize),
		operators:  NewOperatorCache(operatorCacheBytes),
		wake:       make(chan struct{}, 1),
		groups:     make(chan []*Job),
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	e.workers.Add(cfg.Workers + 1)
	go e.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		go e.poolWorker()
	}
	return e
}

// Drain performs a graceful shutdown: stop admitting jobs (Submit returns
// ErrDraining, /healthz flips to draining), let queued and running jobs
// finish, and return. If ctx expires first, running jobs are hard-cancelled
// (they terminate at task granularity) and Drain returns ctx's error after
// the pool exits.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true // Submit checks it under mu
	e.mu.Unlock()
	e.signal()

	done := make(chan struct{})
	go func() {
		e.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.baseCancel()
		<-done
		return ctx.Err()
	}
}

// poolWorker runs dispatcher groups until dispatch closes the channel.
func (e *Engine) poolWorker() {
	defer e.workers.Done()
	for group := range e.groups {
		e.runGroup(group)
	}
}

// coalesceKey is the batch-compatibility key: jobs coalesce into one
// multi-RHS solve only when every field matches, so every member runs the
// same solver on the same backend against byte-identical matrix data with
// the same tiling override and worker count, differing only in the RHS seed.
type coalesceKey struct {
	solver  string
	backend string
	workers int
	block   int
	matrix  string
}

// coalesceKeyFor returns a job's batch key and whether the job is batchable
// at all. Only cg and pcg solve against a right-hand side, and the batched
// iteration has no per-column deadline, so jobs with DeadlineMS keep the
// single-job path. The matrix is keyed by *identity* (generator coordinates
// or MM document digest, see MatrixSpec.Identity), not structural
// fingerprint: two generator seeds share a sparsity pattern — and hence a
// fingerprint — while holding different values, and must never share a solve.
func coalesceKeyFor(job *Job) (coalesceKey, bool) {
	spec := job.Spec
	if spec.Solver != "cg" && spec.Solver != "pcg" {
		return coalesceKey{}, false
	}
	if spec.DeadlineMS > 0 {
		return coalesceKey{}, false
	}
	return coalesceKey{
		solver:  spec.Solver,
		backend: spec.Backend,
		workers: spec.Workers,
		block:   spec.Block,
		matrix:  job.identity,
	}, true
}

// signal wakes the dispatcher, or leaves it a token if it is busy.
func (e *Engine) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// take removes and returns the oldest queued job. With the queue empty it
// returns nil, and drained reports that the engine is draining, so no job
// will come.
func (e *Engine) take() (job *Job, drained bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.queue) == 0 {
		return nil, e.draining
	}
	job = e.queue[0]
	e.queue[0] = nil
	e.queue = e.queue[1:]
	return job, false
}

// dispatch sits between the admission queue and the pool and hands the pool
// groups: consecutive batchable jobs that share a coalesceKey become one
// multi-RHS solve. A group closes when it reaches CoalesceMax, when the
// CoalesceWindow expires, or when a non-matching job arrives (which then
// seeds the next group — grouping never reorders the queue). Non-batchable
// jobs, and every job when CoalesceMax is 1, pass through as groups of one
// immediately, without arming the window.
func (e *Engine) dispatch() {
	defer e.workers.Done()
	defer close(e.groups)
	var pending *Job
	for {
		job := pending
		pending = nil
		for job == nil {
			var drained bool
			if job, drained = e.take(); drained {
				return
			}
			if job == nil {
				<-e.wake
			}
		}
		group := []*Job{job}
		closed := false
		if key, batchable := coalesceKeyFor(job); batchable && e.cfg.CoalesceMax > 1 {
			timer := time.NewTimer(e.cfg.CoalesceWindow)
		collect:
			for len(group) < e.cfg.CoalesceMax {
				next, drained := e.take()
				if drained {
					closed = true
					break
				}
				if next == nil {
					select {
					case <-e.wake:
						continue
					case <-timer.C:
						break collect
					}
				}
				if nkey, nb := coalesceKeyFor(next); nb && nkey == key {
					group = append(group, next)
				} else {
					pending = next
					break
				}
			}
			timer.Stop()
		}
		e.groups <- group
		if closed {
			return
		}
	}
}

// Submit registers and enqueues a job. It returns an error wrapping
// ErrBadMatrix when an inline matrix does not parse, ErrDraining during
// shutdown, and an error wrapping ErrQueueFull when the admission queue is at
// capacity. The matrix identity is computed here, once and outside the engine
// lock (for an inline matrix it digests the whole document), and carried on
// the job for the coalescer and the operator cache.
//
// An inline matrix is parsed here too, also outside the lock, into the
// operator cache, so that no job exists for a document that does not parse. A
// refusal after the build (queue full, draining) leaves the operator cached
// for the retry. The work is bounded by MaxJobBodyBytes, like the decode
// before it; a suite matrix, whose generation cost no request bounds, is
// built by the worker that runs the job. Once admitted, the job lets go of
// the document: its operator is job.admitted and coalescing keys on
// job.identity, so nothing reads the text again. The engine tracks the job
// until it is terminal and maxTrackedJobs newer jobs have been submitted.
//
// The view Submit returns is the job as admitted, taken before the job
// reaches the queue: a worker may claim it before Submit returns.
func (e *Engine) Submit(spec JobSpec) (*Job, JobView, error) {
	job := &Job{Spec: spec, identity: spec.Matrix.Identity(), state: StateQueued}
	if spec.Matrix.MM != "" {
		adm, err := e.lookupOperator(job)
		if err != nil {
			return nil, JobView{}, fmt.Errorf("%w: %w", ErrBadMatrix, err)
		}
		job.admitted = adm
		job.Spec.Matrix.MM = ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, JobView{}, ErrDraining
	}
	e.seq++
	job.ID = fmt.Sprintf("job-%d", e.seq)
	job.submitted = time.Now()
	if len(e.queue) >= e.cfg.QueueSize {
		e.seq-- // never existed
		e.metrics.Rejected.Add(1)
		return nil, JobView{}, fmt.Errorf("%w (%d jobs)", ErrQueueFull, e.cfg.QueueSize)
	}
	view := job.View()
	e.queue = append(e.queue, job)
	e.signal()
	e.jobs[job.ID] = job
	e.order = append(e.order, job.ID)
	e.retire()
	e.metrics.Submitted.Add(1)
	return job, view, nil
}

// retire forgets the oldest jobs while more than maxTrackedJobs are tracked,
// stopping at the first that is not terminal: submission order is kept, and
// a queued or running job stays reachable. Callers hold e.mu.
func (e *Engine) retire() {
	n := 0
	for len(e.order)-n > maxTrackedJobs && e.jobs[e.order[n]].StateNow().terminal() {
		delete(e.jobs, e.order[n])
		n++
	}
	e.order = e.order[n:]
}

// JobByID returns a tracked job, or nil.
func (e *Engine) JobByID(id string) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobs[id]
}

// Views snapshots every tracked job in submission order.
func (e *Engine) Views() []JobView {
	e.mu.Lock()
	views := make([]JobView, 0, len(e.order))
	for _, id := range e.order {
		views = append(views, e.jobs[id].View())
	}
	e.mu.Unlock()
	return views
}

// Cancel cancels a job: a queued job flips to canceled immediately and leaves
// the admission queue, so its slot takes a new job at once (one the
// dispatcher already holds is skipped by the pool); a running job registers
// its vote with its group — the shared solve aborts once every member has
// voted (see groupCancel), at once for a job that runs alone — and reaches
// canceled when the group finishes. Terminal jobs are left alone.
func (e *Engine) Cancel(j *Job) {
	e.mu.Lock() // before j.mu, the order retire and /metrics take them in
	defer e.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		if i := slices.Index(e.queue, j); i >= 0 {
			e.queue = slices.Delete(e.queue, i, i+1)
		}
		j.state = StateCanceled
		j.err = "canceled while queued"
		j.admitted = nil
		j.finished = time.Now()
		e.metrics.Canceled.Add(1)
		e.metrics.Total.Observe(j.finished.Sub(j.submitted))
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}
