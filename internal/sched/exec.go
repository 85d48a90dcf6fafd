package sched

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Discipline selects the order a worker drains its own queue.
type Discipline int

const (
	// LIFO pops the most recently produced task first: depth-first execution
	// with strong producer-consumer cache locality. This is the OpenMP-task
	// behavior DeepSparse relies on for pipelining.
	LIFO Discipline = iota
	// FIFO drains the oldest task first: breadth-first execution, closer to
	// HPX's default queues, producing the "shuffled" execution flow graphs
	// the paper shows in Fig. 13.
	FIFO
)

// stealBurst bounds how many extra tasks a steal migrates in one go (the
// "steal-half" transfer). Half the victim's queue amortizes the trip; the cap
// keeps one thief from draining a long queue wholesale.
const stealBurst = 16

// Options configure a graph execution.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Discipline is the local queue order.
	Discipline Discipline
}

// Executor is a reusable dependency-graph executor: all scheduler state —
// deques, dependency counters, ready-task buffers,
// per-worker PRNG and counter state, and (for Workers > 1) the helper
// goroutines themselves — is allocated once at construction and reused by
// every Run. A steady-state Run with an uncancellable context performs no
// heap allocations.
//
// Run executes the graph once and must not be called concurrently with
// itself; Close releases the helpers. Run's caller is worker 0 of a Team: with
// one worker the graph runs inline and no goroutine exists at all, with more
// the nw-1 helpers outlive the run, spinning briefly for the next one before
// they park, so back-to-back iterations cross no futex.
//
// Nothing shared is written on the per-task path. A worker counts the tasks
// it ran in its own padded block and folds the count into total only when it
// runs dry; total reaching zero is the end of the run. A worker that made
// tasks ready looks at the gate's waiter count and takes its lock only when
// somebody is, or is about to be, parked (see Gate for why no wake-up is
// lost). A worker with nothing to do spins a bounded number of rounds
// (Spin) before it parks.
//
// The executor is flat: a worker drains its own deque, then steals from the
// others, starting at a random one. A steal from a long deque migrates up to
// half of it (at most stealBurst) in one go. Nothing pins a goroutine to a
// core, so there is no locality domain for the scheduler to honour; the
// simulator (internal/sim) is where placement across NUMA domains is
// modelled.
type Executor struct {
	n     int
	nw    int
	disc  Discipline
	succs func(int32) []int32
	exec  func(int, int32)
	roots []int32 // in submission order
	indeg []int32

	deques []*Deque
	remain []atomic.Int32
	ws     []worker

	// total is the number of tasks not yet folded in by the worker that ran
	// them; <= 0 ends the run (zero: complete; haltedTotal: cancel or panic).
	// Written when a worker runs dry, polled by everyone.
	total atomic.Int64
	// team is the caller (worker 0) and the nw-1 helpers; a run is one round.
	team *Team
	// gate parks a worker that has been without work for its spin budget.
	gate Gate

	haltDone atomic.Bool // the cancellation hook of the current run has finished
	panicMu  sync.Mutex
	panicVal any // first task panic, re-raised by Run
}

// haltedTotal is what halt stores into total: far enough below zero that the
// folds of tasks still in flight cannot bring it back up.
const haltedTotal = math.MinInt64 / 2

// worker is one worker's private block: its counters, its victim-selection
// PRNG (xorshift64*, so stealing never takes the global math/rand lock) and
// its newly-ready buffer, padded so neighbouring workers never share
// a cache line. Written only by the owning worker during a run; reading is
// safe once Run has returned (the helpers' check-out orders the writes).
type worker struct {
	LocalityStats       // cumulative over runs
	ran           int64 // tasks executed in the current run
	folded        int64 // of those, already subtracted from total
	rng           uint64
	ready         []int32
	_             [16]byte
}

// NewExecutor builds a reusable executor over a fixed graph shape. indeg is
// copied; succs must be pure and stable across runs. With opt.Workers != 1
// (or 0 on a multicore host) the helper goroutines are started immediately
// and wait for Run.
func NewExecutor(n int, indeg []int32, succs func(int32) []int32, roots []int32, exec func(worker int, task int32), opt Options) *Executor {
	nw := opt.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n && n > 0 {
		nw = n
	}
	if n == 0 {
		nw = 1
	}
	e := &Executor{
		n:      n,
		nw:     nw,
		disc:   opt.Discipline,
		succs:  succs,
		exec:   exec,
		roots:  roots,
		indeg:  append([]int32(nil), indeg...),
		deques: make([]*Deque, nw),
		remain: make([]atomic.Int32, n),
		ws:     make([]worker, nw),
	}
	for i := 0; i < nw; i++ {
		e.deques[i] = NewDeque()
		e.ws[i].ready = make([]int32, 0, 16)
		// splitmix64 seeding: distinct non-zero stream per worker.
		z := uint64(i+1) * 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		e.ws[i].rng = z ^ (z >> 31) | 1
	}
	e.team = NewTeam(e.nw, e.runWorker)
	return e
}

// Workers returns the resolved worker count.
func (e *Executor) Workers() int { return e.nw }

// Run executes the graph once, taking part as worker 0, and returns nil when
// every task has executed: each at most once, only after all its
// predecessors completed. It is not safe for concurrent use; iterative
// callers invoke it once per iteration with a barrier between calls (which
// the return provides). Panics raised by task bodies are re-raised here.
//
// Cancelling ctx stops the run at task granularity: in-flight tasks finish,
// no new task starts, and Run returns ctx's error. The caller's data is then
// partially updated and must be treated as poisoned. A nil ctx behaves like
// context.Background().
func (e *Executor) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.n == 0 {
		return nil
	}
	e.reset()
	// Cancellation shuts the run down exactly like a panic, minus the
	// re-panic: workers observe total <= 0 and drain out.
	var stop func() bool
	if ctx.Done() != nil {
		e.haltDone.Store(false)
		// One cancellation hook per Run, not per task; the uncancellable
		// steady-state run allocates nothing.
		stop = context.AfterFunc(ctx, func() {
			e.halt()
			e.haltDone.Store(true)
		})
	}

	// The helpers leave within a task of total dropping to zero, so the
	// round's closing wait is almost always a short spin.
	e.team.Round()
	if stop != nil && !stop() {
		// The hook has started: let it finish, so it cannot halt a later run.
		for !e.haltDone.Load() {
			runtime.Gosched()
		}
	}

	if e.panicVal != nil {
		panic(e.panicVal)
	}
	var executed int64
	for i := range e.ws {
		executed += e.ws[i].ran
	}
	if executed != int64(e.n) {
		// The only non-panic way to stop short is cancellation.
		return ctx.Err()
	}
	return nil
}

// reset rewinds every piece of run state and seeds the roots. No worker is
// active between runs, so plain writes are fine.
func (e *Executor) reset() {
	for i := range e.remain {
		e.remain[i].Store(e.indeg[i])
	}
	for i := range e.ws {
		e.ws[i].ran, e.ws[i].folded = 0, 0
	}
	e.total.Store(int64(e.n))
	e.panicVal = nil
	for _, d := range e.deques {
		d.Reset()
	}
	// Deal the roots round-robin across workers so execution starts
	// balanced (directly onto the workers' deques — safe here, no worker is
	// running yet). The stealing protocol handles the rest.
	for k, t := range e.roots {
		e.deques[k%e.nw].Push(t)
	}
}

// Close stops the helpers and returns once they have exited. The Executor
// must not be used after.
func (e *Executor) Close() { e.team.Close() }

// abort records the first panic and releases every worker.
func (e *Executor) abort(v any) {
	e.panicMu.Lock()
	if e.panicVal == nil {
		e.panicVal = v
	}
	e.panicMu.Unlock()
	e.halt()
}

// halt ends the run short (cancellation, or abort's panic path): workers
// observe total <= 0 at their next task boundary and leave.
func (e *Executor) halt() {
	e.total.Store(haltedTotal)
	e.gate.Notify()
}

// rngNext advances worker w's private xorshift64 stream.
//
//sparselint:hotpath
func (e *Executor) rngNext(w int) uint64 {
	s := e.ws[w].rng
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	e.ws[w].rng = s
	return s
}

// take acquires the next task for worker w: from its own deque in the
// configured discipline, else by stealing from the other workers, starting
// at a random one. The second result says the task was stolen.
//
//sparselint:hotpath
func (e *Executor) take(w int) (int32, bool, bool) {
	if e.disc == LIFO {
		if t, ok := e.deques[w].Pop(); ok {
			return t, false, true
		}
	} else {
		if t, ok := e.deques[w].Steal(); ok {
			return t, false, true
		}
	}
	if e.nw == 1 {
		return 0, false, false
	}
	ws := &e.ws[w]
	start := int(e.rngNext(w) % uint64(e.nw))
	for k := 0; k < e.nw; k++ {
		v := (start + k) % e.nw
		if v == w {
			continue
		}
		if t, ok := e.deques[v].Steal(); ok {
			ws.StealsDomain++
			e.stealHalf(w, v)
			return t, true, true
		}
		ws.StealFails++
	}
	return 0, false, false
}

// stealHalf follows a successful steal from victim v: it migrates up to half
// of what v's deque still shows (at most stealBurst) onto w's own deque, so
// one trip to a long queue pays for many tasks and siblings find follow-on
// work locally. Migrated tasks were already published in the victim's deque,
// so no wake is needed.
//
//sparselint:hotpath
func (e *Executor) stealHalf(w, v int) {
	burst := e.deques[v].Size() / 2
	if burst > stealBurst {
		burst = stealBurst
	}
	for i := 0; i < burst; i++ {
		u, ok := e.deques[v].Steal()
		if !ok {
			return
		}
		e.deques[w].Push(u)
	}
}

// recoverAbort is runWorker's deferred panic backstop: a panicking task must
// not kill the worker silently (the run would wait for its tasks forever), so
// capture the first panic, shut the run down, and let Run re-panic on the
// caller's goroutine. A named method rather than a closure so the worker
// entry path stays allocation-free.
func (e *Executor) recoverAbort() {
	if r := recover(); r != nil {
		e.abort(r)
	}
}

// runWorker participates in the current run as worker w until the run
// completes, is cancelled, or panics. It is the owning loop for worker w's
// deque: all Push/Pop traffic on it happens on code reachable from here
// (TestStealPathsRunEveryTaskOnce fails when it does not).
//
//sparselint:hotpath
func (e *Executor) runWorker(w int) {
	defer e.recoverAbort()
	ws := &e.ws[w]
	idle := 0
	for e.total.Load() > 0 {
		if t, stolen, ok := e.take(w); ok {
			idle = 0
			e.runChain(w, t, stolen)
			continue
		}
		// Dry: fold what this worker ran into total. Zero means it ran the
		// run's last task — release whoever is parked.
		if done := ws.ran - ws.folded; done > 0 {
			ws.folded = ws.ran
			if e.total.Add(-done) == 0 {
				e.gate.Notify()
				return
			}
			continue
		}
		ws.Spins++
		if !Spin(idle) {
			e.park(w)
			idle = -1
		}
		idle++
	}
}

// park puts worker w to sleep until new work is published or the run ends.
// It announces itself, looks once more — at total and at every queue — and
// only then sleeps, so a task published concurrently is either found here or
// its producer finds the announcement.
//
//sparselint:coldcall reached only after the spin budget ran out; sleeping is the point
func (e *Executor) park(w int) {
	key := e.gate.prepare()
	if e.total.Load() <= 0 {
		e.gate.cancel()
		return
	}
	if t, stolen, ok := e.take(w); ok {
		e.gate.cancel()
		e.runChain(w, t, stolen)
		return
	}
	e.ws[w].Parks++
	e.gate.wait(key)
}

// runChain executes task t and then chains depth-first through successors it
// enables: under LIFO the just-enabled successor that would be popped next is
// run inline, skipping the deque round-trip and wake; the remaining ready
// tasks are pushed onto w's deque in one batch with a single wake. It returns
// when there is nothing to chain into, or the run was halted. stolen says
// whether t came from another worker's deque.
//
//sparselint:hotpath
func (e *Executor) runChain(w int, t int32, stolen bool) {
	ws := &e.ws[w]
	for {
		if stolen {
			ws.Domain++
		} else {
			ws.Local++
		}
		e.exec(w, t)
		ws.ran++
		nr := ws.ready[:0]
		for _, s := range e.succs(t) {
			if e.remain[s].Add(-1) == 0 {
				nr = append(nr, s)
			}
		}
		ws.ready = nr // keep grown capacity for reuse
		if len(nr) == 0 || e.total.Load() <= 0 {
			// Nothing enabled, or the run was halted (cancel/panic) while this
			// task was in flight: do not chain into a dead run.
			return
		}
		// Inline fast path: under LIFO, the last-pushed successor is exactly
		// the task Pop would return next — run it directly. (FIFO must not
		// chain: breadth-first order is the HPX personality under study.)
		next := int32(-1)
		if e.disc == LIFO {
			next = nr[len(nr)-1]
			nr = nr[:len(nr)-1]
		}
		if len(nr) > 0 {
			for _, s := range nr {
				e.deques[w].Push(s)
			}
			if e.gate.Notify() {
				ws.Wakes++
			}
		}
		if next < 0 {
			return
		}
		t = next
		stolen = false
	}
}
