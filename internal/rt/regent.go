package rt

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/sched"
)

// Regent is the region/privilege analog of the Regent/Legion runtime: a
// serial dependence-analysis pipeline walks the tasks in program order,
// spending per-task analysis work before a task may issue, and workers drain
// a shared FIFO ready queue. Two Regent-specific mechanisms are modeled:
//
//   - index launches: calls marked IndexLaunch are analyzed as one batch, so
//     per-task analysis is skipped after the first task of the call;
//   - dynamic tracing: when enabled, a prepared run analyses on its first
//     execution and replays the memoized analysis on every later one.
//
// The serial analysis pipeline is the mechanism behind the paper's
// observation that Regent degrades sharply as task counts grow (§5.4,
// "Regent has scaling issues with regard to creation or scheduling of large
// number of tasks").
type Regent struct {
	opt   Options
	epoch time.Time

	mu sync.Mutex
	// LastAnalyzed counts tasks that paid full analysis in the most recent
	// Run, for tests and the ablation benches. Guarded by mu during Run;
	// read it only after Run returns.
	LastAnalyzed int
}

// regentPoll is how many Spin rounds (about a microsecond) a worker polls its
// queue before blocking on it. While the pipeline analyses, tasks arrive a
// microsecond or two apart, so a short poll catches the next one without a
// goroutine wake-up on the pipeline's critical path; but the team shares its
// processors with the pipeline (nw workers plus the caller), so a worker that
// spun its full budget would hold a processor a peer needs.
const regentPoll = 32

// analysisCost is the Regent dependence-analysis work per task, in spin-loop
// iterations. Calibrated so analysis is on the order of a microsecond per
// task: invisible next to a coarse tile task, dominant when a matrix is
// over-decomposed into tens of thousands of tiny tasks — the paper's observed
// Regent behavior.
const analysisCost = 600

// NewRegent returns the Regent-style runtime.
func NewRegent(opt Options) *Regent {
	return &Regent{opt: opt, epoch: time.Now()}
}

// Name implements Runtime.
func (r *Regent) Name() string { return "regent" }

// regentPrepared binds the runtime to one (TDG, store) pair. Dependency
// counters, the ready queue and the worker team are built once and reset per
// Run; Run's caller is the analysis pipeline — the -ll:util core — walking the
// tasks in program order while the workers drain what it issues. With
// DynamicTracing the first complete Run analyses and every later Run of this
// handle replays.
//
// A run that ends short (cancellation, a panicking task) dismisses the team
// and drains the queue; the next Run raises a fresh one.
type regentPrepared struct {
	r    *Regent
	g    *graph.TDG
	body func(int, int32)
	nw   int
	// full marks the tasks that pay dependence analysis when the graph is
	// analysed: everything but the later tasks of an index launch.
	full []bool

	// remain[i] = deps + 1: the extra count is released by the analysis
	// pipeline when the task is issued, so no task starts before its
	// program-order analysis completes — Legion semantics.
	remain []atomic.Int32
	done   atomic.Int64 // tasks left in the current run

	// ready is the one shared FIFO of issued tasks — the classic Legion
	// ready queue. It is buffered to the task count, so release never
	// blocks.
	ready chan int32
	// fin carries one token per completed run, from the worker that ran the
	// last task.
	fin chan struct{}

	traced  bool // a complete analysis of g is memoized (DynamicTracing)
	running bool // the team is up
	// halted tells the workers the run is dead; quit, closed with it, wakes
	// the ones blocked on a queue.
	halted   atomic.Bool
	quit     chan struct{}
	quitOnce *sync.Once
	panicMu  sync.Mutex
	panicVal any
	wg       sync.WaitGroup
}

// Prepare implements Runtime. The dynamic-tracing memo lives in the prepared
// run, so every new handle analyses its first Run.
func (r *Regent) Prepare(g *graph.TDG, st *program.Store) PreparedRun {
	n := len(g.Tasks)
	nw := r.opt.workers()
	p := &regentPrepared{
		r: r, g: g, nw: nw,
		body:   taskBody(g, st, r.opt.Recorder, r.epoch),
		full:   make([]bool, n),
		remain: make([]atomic.Int32, n),
		ready:  make(chan int32, n),
		fin:    make(chan struct{}, 1),
	}
	// Index launches are analysed once, with their first task: the tasks of a
	// call marked IndexLaunch, and the fused groups Fuse produced from one
	// sequence of calls over the partitions.
	for i := range g.Tasks {
		t := &g.Tasks[i]
		p.full[i] = true
		if i == 0 {
			continue
		}
		prev := &g.Tasks[i-1]
		if len(t.Parts) > 1 {
			p.full[i] = !sameCalls(prev.Parts, t.Parts)
		} else if g.Prog.Calls[t.Call].IndexLaunch && prev.Call == t.Call {
			p.full[i] = false
		}
	}
	return p
}

// sameCalls reports whether two fused groups run the same sequence of calls.
func sameCalls(a, b []graph.Part) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Call != b[k].Call {
			return false
		}
	}
	return true
}

// Close dismisses the team.
func (p *regentPrepared) Close() { p.dismiss() }

// start raises the worker team.
//
//sparselint:coldcall runs on a handle's first Run and after a run that ended short, never in steady state
func (p *regentPrepared) start() {
	p.halted.Store(false)
	p.quit = make(chan struct{})
	p.quitOnce = new(sync.Once)
	p.running = true
	p.wg.Add(p.nw)
	for w := 0; w < p.nw; w++ {
		go p.worker(w)
	}
}

// halt tells every worker to stop at its next task boundary.
func (p *regentPrepared) halt() {
	p.halted.Store(true)
	p.quitOnce.Do(func() { close(p.quit) })
}

// dismiss stops the team, waits for it, and empties the queue of whatever a
// dead run left behind.
//
//sparselint:coldcall runs on Close and after a run that ended short
func (p *regentPrepared) dismiss() {
	if !p.running {
		return
	}
	p.halt()
	p.wg.Wait()
	p.running = false
	for len(p.ready) > 0 {
		<-p.ready
	}
	for len(p.fin) > 0 {
		<-p.fin
	}
}

// release drops one count of task id and enqueues it when none is left.
//
//sparselint:hotpath
func (p *regentPrepared) release(id int32) {
	if p.remain[id].Add(-1) == 0 {
		p.ready <- id
	}
}

// Run executes the graph once: the caller analyses and issues the tasks in
// program order, then waits for the workers to finish the tail.
//
//sparselint:hotpath
func (p *regentPrepared) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(p.g.Tasks)
	if err := ctx.Err(); err != nil || n == 0 {
		return err
	}
	if !p.running {
		p.start()
	}
	for i := range p.g.Tasks {
		p.remain[i].Store(int32(len(p.g.Tasks[i].Deps)) + 1)
	}
	p.done.Store(int64(n))

	// Analysis pipeline: program order, one task at a time.
	replay := p.r.opt.DynamicTracing && p.traced
	var sink uint64
	analysed, issued := 0, 0
	for ; issued < n; issued++ {
		if p.halted.Load() || ctx.Err() != nil {
			break
		}
		t := &p.g.Tasks[issued]
		if p.full[issued] && !replay {
			// Dependence analysis: hash over the task's region set, repeated
			// to model Legion's region-tree walk.
			work := analysisCost * (1 + len(t.Reads) + len(t.Writes))
			for k := 0; k < work; k++ {
				sink = sink*0x9E3779B97F4A7C15 + uint64(t.ID) + uint64(k)
			}
			analysed++
		}
		p.release(t.ID)
	}
	_ = sink

	// The tail: the workers are at most a few tasks behind the pipeline.
	complete := false
	if issued == n {
		for i := 0; p.done.Load() != 0 && sched.Spin(i); i++ {
		}
		select {
		case <-p.fin:
			complete = true
		case <-ctx.Done():
		case <-p.quit:
		}
	}
	p.r.mu.Lock()
	p.r.LastAnalyzed = analysed
	p.r.mu.Unlock()
	if !complete {
		p.dismiss() // in-flight tasks finish; nothing new starts
		if p.panicVal != nil {
			v := p.panicVal
			p.panicVal = nil
			panic(v)
		}
		return ctx.Err()
	}
	p.traced = true
	return nil
}

// exec runs one task, releases its successors and reports the end of the run.
//
//sparselint:hotpath
func (p *regentPrepared) exec(w int, id int32) {
	p.body(w, id)
	for _, s := range p.g.Tasks[id].Succs {
		p.release(s)
	}
	if p.done.Add(-1) == 0 {
		p.fin <- struct{}{}
	}
}

// recoverTask turns a panicking task into a dead run: the first panic is kept
// for Run to re-raise on the caller's goroutine.
func (p *regentPrepared) recoverTask() {
	if rec := recover(); rec != nil {
		p.panicMu.Lock()
		if p.panicVal == nil {
			p.panicVal = rec
		}
		p.panicMu.Unlock()
		p.halt()
	}
}

// worker is the persistent body of team member w. Between tasks — and between
// runs — it polls the ready queue for a bounded spin, then blocks on it.
func (p *regentPrepared) worker(w int) {
	defer p.wg.Done()
	defer p.recoverTask()
	for {
		id, ok := p.recv()
		if !ok {
			return
		}
		p.exec(w, id)
	}
}

// recv takes the next ready task, polling for a bounded spin before it
// blocks. It reports false once the team is told to stop.
//
//sparselint:hotpath
func (p *regentPrepared) recv() (v int32, ok bool) {
	for i := 0; ; i++ {
		if p.halted.Load() {
			return v, false
		}
		select {
		case v = <-p.ready:
			return v, true
		default:
		}
		if i >= regentPoll || !sched.Spin(i) {
			break
		}
	}
	select {
	case v = <-p.ready:
		return v, !p.halted.Load()
	case <-p.quit:
		return v, false
	}
}
