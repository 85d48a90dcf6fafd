package sim

import (
	"sparsetask/internal/graph"
)

// Policy is a deterministic scheduling discipline for the simulator, one per
// runtime backend under evaluation.
type Policy interface {
	Name() string
	// Workers is the number of compute cores the policy occupies.
	Workers() int
	// Reset prepares internal state for a fresh TDG execution starting at
	// virtual time now.
	Reset(g *graph.TDG, now int64)
	// Ready announces that task t's dependencies are satisfied. prodCore is
	// the core that finished its last dependency (-1 for roots); now is the
	// virtual time of that completion.
	Ready(t int32, prodCore int, now int64)
	// Pick selects a task for idle core at virtual time now.
	Pick(core int, now int64) (int32, bool)
	// Done announces task completion at virtual time now (used by barrier
	// policies).
	Done(t int32, core int, now int64)
	// NextEventAfter returns the policy's next self-generated event time
	// strictly after now, or a value <= now when it has none.
	NextEventAfter(now int64) int64
	// OverheadNs is the per-task dispatch overhead.
	OverheadNs() float64
}

// Per-task dispatch overheads (ns). These constants encode the relative
// scheduling weight of each runtime: BSP's static loops are nearly free per
// chunk; OpenMP task spawning costs a few hundred ns; HPX futures slightly
// more; Regent pays both a dispatch cost and a serial per-task dependence
// analysis (see RegentPolicy). The absolute values are calibration points;
// the experiments depend on their ordering and order of magnitude, which
// follow published microbenchmarks of these runtimes.
const (
	bspOverheadNs        = 60
	deepsparseOverheadNs = 150
	hpxOverheadNs        = 300
	regentOverheadNs     = 500
	// Serial spawn costs: both OpenMP tasking (DeepSparse's master thread
	// spawns every task of the TDG) and HPX (the main thread executes the
	// dataflow-creation loop) pay a per-task creation cost on one thread.
	// Skipping empty tasks (Fig. 6) shortens exactly this serial pass.
	deepsparseSpawnNs = 250
	hpxSpawnNs        = 500
	// regentAnalysisNsPerTask is the serial program-order dependence
	// analysis cost per non-index-launch task: the Legion analysis pipeline
	// runs at roughly microsecond granularity per task.
	regentAnalysisNsPerTask = 2500
	// regentTracedAnalysisNs applies when dynamic tracing replays a
	// memoized graph.
	regentTracedAnalysisNs = 250
	// bspBarrierNsPerLog2W is the fork/join barrier cost per log2(threads):
	// OpenMP/MKL barriers on a 128-thread node cost on the order of 10 µs.
	bspBarrierNsPerLog2W = 1200
)

// scaleOr1 returns the overhead scale factor, defaulting to 1. When the
// matrix suite is scaled down by more than the machine SlowDown compensates,
// per-task work shrinks relative to real-world runtime overheads; policies
// multiply every overhead (dispatch, spawn pipelines, dependence analysis,
// barriers) by scale = SlowDown/Div so the overhead:work ratio matches the
// paper at every level.
func scaleOr1(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// issueGate serializes task availability behind a per-task pipeline running
// on one thread: OpenMP/HPX task spawning and Regent dependence analysis.
// issueTime must be monotone in task id (program/spawn order).
type issueGate struct {
	issueTime []int64
	depsDone  []bool
	cursor    int
	queue     []int32
}

func (gte *issueGate) reset(n int) {
	gte.issueTime = make([]int64, n)
	gte.depsDone = make([]bool, n)
	gte.cursor = 0
	gte.queue = gte.queue[:0]
}

// advance moves the pipeline cursor to time now, queueing deps-done tasks.
func (gte *issueGate) advance(now int64) {
	for gte.cursor < len(gte.issueTime) && gte.issueTime[gte.cursor] <= now {
		if gte.depsDone[gte.cursor] {
			gte.queue = append(gte.queue, int32(gte.cursor))
		}
		gte.cursor++
	}
}

// ready marks deps satisfied and returns true if the task is already issued
// (the caller dispatches it); otherwise the gate holds it.
func (gte *issueGate) ready(t int32, now int64) bool {
	gte.advance(now)
	gte.depsDone[t] = true
	return int(t) < gte.cursor
}

// drain returns gate-held tasks that have become issued by now.
func (gte *issueGate) drain(now int64) []int32 {
	gte.advance(now)
	q := gte.queue
	gte.queue = gte.queue[:0]
	return q
}

func (gte *issueGate) nextEventAfter(now int64) int64 {
	if gte.cursor < len(gte.issueTime) && gte.issueTime[gte.cursor] > now {
		return gte.issueTime[gte.cursor]
	}
	return now
}

// ---------------------------------------------------------------- BSP

// BSPPolicy models the libcsr/libcsb baselines: per-kernel parallel loops
// with static chain assignment (chain p → core p mod W), a full barrier
// between kernels, and serial execution of reductions.
type BSPPolicy struct {
	W int
	// Scale multiplies all overheads (see scaleOr1); 0 means 1.
	Scale float64

	g            *graph.TDG
	calls        int
	current      int32 // kernel (call index) currently executing
	remain       []int32
	perCore      [][]int32 // ready tasks of the current call per assigned core
	readyLat     [][]int32 // tasks that became ready for future calls
	barrierUntil int64     // no task of the next kernel starts before this
}

// NewBSP returns the bulk-synchronous policy on w cores.
func NewBSP(w int) *BSPPolicy { return &BSPPolicy{W: w} }

// barrierNs is the per-kernel fork/join barrier cost.
func (p *BSPPolicy) barrierNs() int64 {
	lg := 0
	for 1<<lg < p.W {
		lg++
	}
	return int64(float64(lg*bspBarrierNsPerLog2W) * scaleOr1(p.Scale))
}

// Name implements Policy.
func (p *BSPPolicy) Name() string { return "bsp" }

// Workers implements Policy.
func (p *BSPPolicy) Workers() int { return p.W }

// OverheadNs implements Policy.
func (p *BSPPolicy) OverheadNs() float64 { return bspOverheadNs * scaleOr1(p.Scale) }

// Reset implements Policy.
func (p *BSPPolicy) Reset(g *graph.TDG, now int64) {
	p.g = g
	p.calls = len(g.Prog.Calls)
	p.current = 0
	p.remain = make([]int32, p.calls)
	for i := range g.Tasks {
		p.remain[g.Tasks[i].Call]++
	}
	p.perCore = make([][]int32, p.W)
	p.readyLat = make([][]int32, p.calls)
	p.barrierUntil = now
	// Skip over calls that produced no tasks.
	p.skipEmptyCalls()
}

func (p *BSPPolicy) skipEmptyCalls() {
	for int(p.current) < p.calls && p.remain[p.current] == 0 {
		p.current++
		p.flush(p.current)
	}
}

func (p *BSPPolicy) coreOf(t int32) int {
	task := &p.g.Tasks[t]
	if task.P < 0 {
		return 0 // reductions and small steps run on core 0
	}
	if task.Kind == graph.TSpMMTile || task.Kind == graph.TSpMMZero ||
		task.Kind == graph.TSpMMBufTile || task.Kind == graph.TSpMMReduce ||
		task.Kind == graph.TSymTile {
		// MKL's SpMV/SpMM threading partitions internally (nnz-balanced),
		// which does not line up with the row chunking of the surrounding
		// vector kernels: model the mismatch as an interleaved assignment.
		// This is the cross-kernel affinity loss inherent to calling opaque
		// BSP library kernels, which the task-dataflow versions avoid.
		return int(task.P) % p.W
	}
	// Vector kernels: contiguous OpenMP-static chunks, which is also the
	// first-touch initialization layout.
	return PartitionCore(int(task.P), p.g.Prog.NP, p.W)
}

func (p *BSPPolicy) flush(call int32) {
	if int(call) >= p.calls {
		return
	}
	for _, t := range p.readyLat[call] {
		p.perCore[p.coreOf(t)] = append(p.perCore[p.coreOf(t)], t)
	}
	p.readyLat[call] = nil
}

// Ready implements Policy.
func (p *BSPPolicy) Ready(t int32, prodCore int, now int64) {
	call := p.g.Tasks[t].Call
	if call == p.current {
		p.perCore[p.coreOf(t)] = append(p.perCore[p.coreOf(t)], t)
		return
	}
	p.readyLat[call] = append(p.readyLat[call], t)
}

// Pick implements Policy. A core only runs tasks of the current kernel that
// were statically assigned to it — no stealing, so skewed chains stall the
// barrier exactly as in static loop scheduling.
func (p *BSPPolicy) Pick(core int, now int64) (int32, bool) {
	if now < p.barrierUntil {
		return 0, false
	}
	q := p.perCore[core]
	if len(q) == 0 {
		return 0, false
	}
	t := q[0]
	p.perCore[core] = q[1:]
	return t, true
}

// Done implements Policy: the last task of a kernel releases the barrier,
// which costs barrierNs before the next kernel may start.
func (p *BSPPolicy) Done(t int32, core int, now int64) {
	call := p.g.Tasks[t].Call
	p.remain[call]--
	if call == p.current && p.remain[call] == 0 {
		p.current++
		p.flush(p.current)
		p.skipEmptyCalls()
		p.barrierUntil = now + p.barrierNs()
	}
}

// NextEventAfter implements Policy.
func (p *BSPPolicy) NextEventAfter(now int64) int64 {
	if p.barrierUntil > now {
		return p.barrierUntil
	}
	return now
}

// ScratchBytes models the panel-packing workspace of library BLAS kernels:
// GEMM-family calls copy their operand panels into per-thread buffers before
// computing, roughly doubling input traffic and displacing cached vector
// chunks. The task-parallel versions call lean per-tile kernels and pay none
// of this (the paper attributes part of the BSP cache gap to exactly this
// library-kernel opacity).
func (p *BSPPolicy) ScratchBytes(k graph.TaskKind, readBytes int64) int64 {
	switch k {
	case graph.TGemm, graph.TGemmTPart:
		return readBytes
	}
	return 0
}

// ---------------------------------------------------------------- DeepSparse

// DeepSparsePolicy models OpenMP tasking as DeepSparse drives it: the master
// thread spawns every task of the TDG in depth-first topological order (a
// serial per-task spawn cost), workers run per-core LIFO deques (depth-first
// execution) with FIFO stealing from the nearest victim.
type DeepSparsePolicy struct {
	W int
	// Scale multiplies all overheads (see scaleOr1); 0 means 1.
	Scale  float64
	g      *graph.TDG
	deques [][]int32
	rrNext int
	gate   issueGate
	prod   []int32
}

// NewDeepSparse returns the OpenMP-task policy on w cores.
func NewDeepSparse(w int) *DeepSparsePolicy { return &DeepSparsePolicy{W: w} }

// Name implements Policy.
func (p *DeepSparsePolicy) Name() string { return "deepsparse" }

// Workers implements Policy.
func (p *DeepSparsePolicy) Workers() int { return p.W }

// OverheadNs implements Policy.
func (p *DeepSparsePolicy) OverheadNs() float64 { return deepsparseOverheadNs * scaleOr1(p.Scale) }

// Reset implements Policy.
func (p *DeepSparsePolicy) Reset(g *graph.TDG, now int64) {
	p.g = g
	n := len(g.Tasks)
	p.deques = make([][]int32, p.W)
	p.rrNext = 0
	p.gate.reset(n)
	p.prod = make([]int32, n)
	t := float64(now)
	for i := 0; i < n; i++ {
		p.prod[i] = -1
		t += deepsparseSpawnNs * scaleOr1(p.Scale)
		p.gate.issueTime[i] = int64(t)
	}
}

// enqueue routes a spawned+ready task. Partitioned tasks go to the home core
// of their output partition, so each partition's kernel pipeline stays where
// its data is resident — the data-affinity placement DeepSparse's
// depth-first spawn order combined with first-touch layout produces, and the
// source of the pipelined cache reuse the paper measures. Partitionless
// tasks (reductions, small steps) go to the producing core.
func (p *DeepSparsePolicy) enqueue(t int32, prodCore int) {
	c := prodCore
	if part := p.g.Tasks[t].P; part >= 0 {
		c = PartitionCore(int(part), p.g.Prog.NP, p.W)
	} else if c < 0 {
		c = p.rrNext % p.W
		p.rrNext++
	}
	p.deques[c] = append(p.deques[c], t)
}

// Ready implements Policy.
func (p *DeepSparsePolicy) Ready(t int32, prodCore int, now int64) {
	p.prod[t] = int32(prodCore)
	if p.gate.ready(t, now) {
		p.enqueue(t, prodCore)
	}
}

// Pick implements Policy: LIFO from own deque, else steal FIFO from the
// nearest non-empty victim. Nearest-first keeps steals on the same socket
// when possible, which is what thread-affinity-pinned OpenMP runs see.
func (p *DeepSparsePolicy) Pick(core int, now int64) (int32, bool) {
	for _, t := range p.gate.drain(now) {
		p.enqueue(t, int(p.prod[t]))
	}
	if q := p.deques[core]; len(q) > 0 {
		t := q[len(q)-1]
		p.deques[core] = q[:len(q)-1]
		return t, true
	}
	for k := 1; k < p.W; k++ {
		v := (core + k) % p.W
		if q := p.deques[v]; len(q) > 0 {
			t := q[0]
			p.deques[v] = q[1:]
			return t, true
		}
	}
	return 0, false
}

// Done implements Policy.
func (p *DeepSparsePolicy) Done(t int32, core int, now int64) {}

// NextEventAfter implements Policy.
func (p *DeepSparsePolicy) NextEventAfter(now int64) int64 {
	return p.gate.nextEventAfter(now)
}

// ---------------------------------------------------------------- HPX

// HPXPolicy models HPX dataflow scheduling: per-NUMA-domain FIFO queues with
// cross-domain stealing. With NUMAAware set, a ready task is routed to the
// domain owning its output partition (the scheduling-hint optimization);
// otherwise to the producing core's domain.
type HPXPolicy struct {
	W         int
	Domains   int
	NUMAAware bool
	// Scale multiplies all overheads (see scaleOr1); 0 means 1.
	Scale float64

	g      *graph.TDG
	queues [][]int32
	rr     int
	gate   issueGate
	prod   []int32
}

// NewHPX returns the HPX policy on w cores over d domains.
func NewHPX(w, d int, numaAware bool) *HPXPolicy {
	if d < 1 {
		d = 1
	}
	return &HPXPolicy{W: w, Domains: d, NUMAAware: numaAware}
}

// Name implements Policy.
func (p *HPXPolicy) Name() string { return "hpx" }

// Workers implements Policy.
func (p *HPXPolicy) Workers() int { return p.W }

// OverheadNs implements Policy.
func (p *HPXPolicy) OverheadNs() float64 { return hpxOverheadNs * scaleOr1(p.Scale) }

// Reset implements Policy. The main thread's dataflow-creation loop is a
// serial pipeline: task i may not start before its dataflow object exists
// (hpxSpawnNs per task — the cost skipping empty tasks avoids, Fig. 6).
func (p *HPXPolicy) Reset(g *graph.TDG, now int64) {
	p.g = g
	n := len(g.Tasks)
	p.queues = make([][]int32, p.Domains)
	p.rr = 0
	p.gate.reset(n)
	p.prod = make([]int32, n)
	t := float64(now)
	for i := 0; i < n; i++ {
		p.prod[i] = -1
		t += hpxSpawnNs * scaleOr1(p.Scale)
		p.gate.issueTime[i] = int64(t)
	}
}

func (p *HPXPolicy) domainOfCore(core int) int {
	return core * p.Domains / p.W
}

func (p *HPXPolicy) enqueue(t int32, prodCore int) {
	d := 0
	task := &p.g.Tasks[t]
	switch {
	case p.NUMAAware && task.P >= 0:
		d = int(int64(task.P) * int64(p.Domains) / int64(p.g.Prog.NP))
	case prodCore >= 0:
		d = p.domainOfCore(prodCore)
	default:
		d = p.rr % p.Domains
		p.rr++
	}
	p.queues[d] = append(p.queues[d], t)
}

// Ready implements Policy.
func (p *HPXPolicy) Ready(t int32, prodCore int, now int64) {
	p.prod[t] = int32(prodCore)
	if p.gate.ready(t, now) {
		p.enqueue(t, prodCore)
	}
}

// Pick implements Policy: FIFO from the core's domain queue, else steal from
// other domains round-robin.
func (p *HPXPolicy) Pick(core int, now int64) (int32, bool) {
	for _, t := range p.gate.drain(now) {
		p.enqueue(t, int(p.prod[t]))
	}
	d := p.domainOfCore(core)
	for k := 0; k < p.Domains; k++ {
		v := (d + k) % p.Domains
		if q := p.queues[v]; len(q) > 0 {
			t := q[0]
			p.queues[v] = q[1:]
			return t, true
		}
	}
	return 0, false
}

// Done implements Policy.
func (p *HPXPolicy) Done(t int32, core int, now int64) {}

// NextEventAfter implements Policy.
func (p *HPXPolicy) NextEventAfter(now int64) int64 {
	return p.gate.nextEventAfter(now)
}

// ---------------------------------------------------------------- Regent

// RegentPolicy models the Regent/Legion pipeline: a dedicated utility core
// set runs the serial program-order dependence analysis; a task may only
// start after its analysis completes AND its dependencies are done. Index
// launches batch the analysis of their whole loop; dynamic tracing replays
// a memoized analysis at a fraction of the cost. Compute workers drain a
// global FIFO.
//
// The serial analysis pipeline is the scaling bottleneck the paper observes:
// past ~64 blocks per dimension, per-iteration task counts reach the tens of
// thousands and analysis time dominates, producing the 5-10x slowdowns of
// §5.4.
type RegentPolicy struct {
	// W is the number of compute cores (the paper's -ll:cpu); Util cores
	// are reserved for the runtime (-ll:util) and do not run tasks.
	W    int
	Util int
	// Traced enables dynamic-tracing replay cost.
	Traced bool
	// Scale multiplies all overheads (see scaleOr1); 0 means 1.
	Scale float64

	g     *graph.TDG
	gate  issueGate
	queue []int32
}

// NewRegent returns a Regent policy with w compute workers and u util cores.
func NewRegent(w, u int, traced bool) *RegentPolicy {
	if u < 1 {
		u = 1
	}
	return &RegentPolicy{W: w, Util: u, Traced: traced}
}

// Name implements Policy.
func (p *RegentPolicy) Name() string { return "regent" }

// Workers implements Policy.
func (p *RegentPolicy) Workers() int { return p.W }

// OverheadNs implements Policy.
func (p *RegentPolicy) OverheadNs() float64 { return regentOverheadNs * scaleOr1(p.Scale) }

// Reset implements Policy.
func (p *RegentPolicy) Reset(g *graph.TDG, now int64) {
	p.g = g
	n := len(g.Tasks)
	p.gate.reset(n)
	p.queue = p.queue[:0]
	// The analysis pipeline is parallelized across util cores only at the
	// granularity of independent program segments; model its throughput as
	// scaling with the square root of the util core count.
	perTask := float64(regentAnalysisNsPerTask)
	if p.Traced {
		perTask = regentTracedAnalysisNs
	}
	scale := 1.0
	for s := 1; s*s <= p.Util; s++ {
		scale = float64(s)
	}
	perTask /= scale
	perTask *= scaleOr1(p.Scale)
	t := float64(now)
	lastCall := int32(-1)
	for i := range g.Tasks {
		task := &g.Tasks[i]
		c := &g.Prog.Calls[task.Call]
		cost := perTask
		if c.IndexLaunch && task.Call == lastCall {
			cost = perTask / 16 // batched with the launch's first task
		}
		t += cost
		p.gate.issueTime[i] = int64(t)
		lastCall = task.Call
	}
}

// Ready implements Policy.
func (p *RegentPolicy) Ready(t int32, prodCore int, now int64) {
	p.drainGate(now)
	if p.gate.ready(t, now) {
		p.queue = append(p.queue, t)
	}
}

func (p *RegentPolicy) drainGate(now int64) {
	p.queue = append(p.queue, p.gate.drain(now)...)
}

// Pick implements Policy: global FIFO of issued+ready tasks.
func (p *RegentPolicy) Pick(core int, now int64) (int32, bool) {
	p.drainGate(now)
	if len(p.queue) == 0 {
		return 0, false
	}
	t := p.queue[0]
	p.queue = p.queue[1:]
	return t, true
}

// Done implements Policy.
func (p *RegentPolicy) Done(t int32, core int, now int64) {}

// NextEventAfter implements Policy: the next analysis completion, which can
// unblock a deps-done task.
func (p *RegentPolicy) NextEventAfter(now int64) int64 {
	return p.gate.nextEventAfter(now)
}
