package rt

import (
	"context"
	"runtime"
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
//
// With a multi-domain Options.Topo, the shared ready queue splits into one
// FIFO per locality domain (Legion's per-node ready queues): issued tasks
// enqueue to their row band's home domain and workers drain their own
// domain's queue before pulling from the others.
type Regent struct {
	opt   Options
	epoch time.Time
	acc   sched.LocalityAccumulator

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

// defaultAnalysisCost is the spin-loop iteration count per analyzed task.
// Calibrated so analysis is on the order of a microsecond per task: invisible
// next to a coarse tile task, dominant when a matrix is over-decomposed into
// tens of thousands of tiny tasks.
const defaultAnalysisCost = 600

// NewRegent returns the Regent-style runtime.
func NewRegent(opt Options) *Regent {
	return &Regent{opt: opt, epoch: time.Now()}
}

// Name implements Runtime.
func (r *Regent) Name() string { return "regent" }

// Locality implements LocalityReporter: lifetime counters across the
// multi-domain teams this runtime has dismissed (flat runs use one shared
// queue and count nothing).
func (r *Regent) Locality() sched.LocalityStats { return r.acc.Snapshot() }

// regentPrepared binds the runtime to one (TDG, store) pair. Dependency
// counters, the ready queues and the worker team are built once and reset per
// Run; Run's caller is the analysis pipeline — the -ll:util core — walking the
// tasks in program order while the workers drain what it issues. With
// DynamicTracing the first complete Run analyses and every later Run of this
// handle replays.
//
// A run that ends short (cancellation, a panicking task) dismisses the team
// and drains the queues; the next Run raises a fresh one.
type regentPrepared struct {
	r    *Regent
	g    *graph.TDG
	body func(int, int32)
	nw   int
	nd   int
	cost int
	// full marks the tasks that pay dependence analysis when the graph is
	// analysed: everything but the later tasks of an index launch.
	full    []bool
	homeDom func(int32) int // nil when nd <= 1

	// remain[i] = deps + 1: the extra count is released by the analysis
	// pipeline when the task is issued, so no task starts before its
	// program-order analysis completes — Legion semantics.
	remain []atomic.Int32
	done   atomic.Int64 // tasks left in the current run

	// Ready-task distribution. Flat topology: one shared FIFO — the classic
	// Legion ready queue. Multi-domain: one FIFO per locality domain plus a
	// token semaphore; release enqueues to the task's home domain *before*
	// signalling the token, so a worker that holds a token is guaranteed a
	// task currently sits in some queue (its scan retries until it finds
	// one). Every channel is buffered to the task count, so release never
	// blocks.
	ready  chan int32
	readyD []chan int32
	tokens chan int32 // a token's value means nothing; the type lets recv serve both
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
		nd:     r.opt.Topo.DomainCount(nw),
		cost:   r.opt.AnalysisCost,
		full:   make([]bool, n),
		remain: make([]atomic.Int32, n),
		fin:    make(chan struct{}, 1),
	}
	if p.cost <= 0 {
		p.cost = defaultAnalysisCost
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
	if p.nd <= 1 {
		p.ready = make(chan int32, n)
	} else {
		p.homeDom = g.DomainAffinity(p.nd)
		p.readyD = make([]chan int32, p.nd)
		for d := range p.readyD {
			p.readyD[d] = make(chan int32, n)
		}
		p.tokens = make(chan int32, n)
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

// Close dismisses the team and folds its locality counters into the runtime.
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

// dismiss stops the team, waits for it, and empties the queues of whatever a
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
	for _, q := range append([]chan int32{p.ready}, p.readyD...) {
		for len(q) > 0 {
			<-q
		}
	}
	for len(p.tokens) > 0 {
		<-p.tokens
	}
	for len(p.fin) > 0 {
		<-p.fin
	}
}

// release drops one count of task id and enqueues it when none is left.
//
//sparselint:hotpath
func (p *regentPrepared) release(id int32) {
	if p.remain[id].Add(-1) != 0 {
		return
	}
	if p.nd <= 1 {
		p.ready <- id
		return
	}
	d := p.homeDom(id)
	if d < 0 {
		d = int(id) % p.nd // keyless tasks spread round-robin
	}
	p.readyD[d] <- id
	p.tokens <- 0
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
			work := p.cost * (1 + len(t.Reads) + len(t.Writes))
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
// runs — it polls its queue for a bounded spin, then blocks on it.
func (p *regentPrepared) worker(w int) {
	defer p.wg.Done()
	defer p.recoverTask()
	if p.nd <= 1 {
		for {
			id, ok := p.recv(p.ready)
			if !ok {
				return
			}
			p.exec(w, id)
		}
	}
	// Multi-domain: consume a token, then locate its task — own domain's
	// queue first, the others only when home is dry.
	dw := p.r.opt.Topo.DomainOf(w, p.nw)
	var ls sched.LocalityStats
	defer func() { p.r.acc.Add(ls) }()
	for {
		if _, ok := p.recv(p.tokens); !ok {
			return
		}
		var id int32
		found := false
		for !found {
			for k := 0; k < p.nd && !found; k++ {
				select {
				case id = <-p.readyD[(dw+k)%p.nd]:
					found = true
					if k == 0 {
						ls.Domain++
					} else {
						ls.Remote++
						ls.StealsRemote++
					}
				default:
				}
			}
			if found {
				break
			}
			// Another token holder raced us to the queues; the
			// queue-before-token invariant says a task for this token exists
			// (or its enqueue is in flight) — retry.
			if p.halted.Load() {
				return
			}
			runtime.Gosched()
		}
		if d := p.homeDom(id); d < 0 {
			ls.AffinityNone++
		} else if d == dw {
			ls.AffinityLocal++
		} else {
			ls.AffinityRemote++
		}
		p.exec(w, id)
	}
}

// recv takes the next element of one of the team's queues — a ready task of
// the flat queue, a token of the multi-domain semaphore — polling for a
// bounded spin before it blocks. It reports false once the team is told to
// stop.
//
//sparselint:hotpath
func (p *regentPrepared) recv(q chan int32) (v int32, ok bool) {
	for i := 0; ; i++ {
		if p.halted.Load() {
			return v, false
		}
		select {
		case v = <-q:
			return v, true
		default:
		}
		if i >= regentPoll || !sched.Spin(i) {
			break
		}
	}
	select {
	case v = <-q:
		return v, !p.halted.Load()
	case <-p.quit:
		return v, false
	}
}
