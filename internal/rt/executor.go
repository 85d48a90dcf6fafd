package rt

import (
	"context"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/sched"
)

// executorBackend runs the whole TDG on a persistent sched.Executor:
// dependency counting and per-worker deques with work stealing. DeepSparse
// and HPX are this backend with different queue disciplines.
type executorBackend struct {
	name  string
	disc  sched.Discipline
	opt   Options
	epoch time.Time
	acc   sched.LocalityAccumulator
}

// NewDeepSparse returns the OpenMP-task-style runtime. DeepSparse is the
// OpenMP-task analog: the entire TDG is handed to a dependency-counting
// executor; the master submits root tasks in depth-first topological order
// (the order the TDG generator emits them) and workers use LIFO local deques
// with work stealing, giving the depth-first, pipelined execution OpenMP task
// scheduling exhibits in the paper.
func NewDeepSparse(opt Options) Runtime {
	return &executorBackend{name: "deepsparse", disc: sched.LIFO, opt: opt, epoch: time.Now()}
}

// NewHPX returns the HPX-style runtime. HPX is the futures/dataflow analog:
// tasks become ready as their input futures resolve and are drained FIFO with
// work stealing, yielding the breadth-first, "shuffled" execution order the
// paper observes in HPX flow graphs (Fig. 13). HPX's scheduling hints, which
// bought it ~50% on EPYC (§5.1, "Other Attempts"), need pinned threads; they
// are modelled by the simulator (sim.HPXPolicy), not here.
func NewHPX(opt Options) Runtime {
	return &executorBackend{name: "hpx", disc: sched.FIFO, opt: opt, epoch: time.Now()}
}

// Name implements Runtime.
func (r *executorBackend) Name() string { return r.name }

// Locality implements LocalityReporter: lifetime counters across every
// execution this runtime has closed.
func (r *executorBackend) Locality() sched.LocalityStats { return r.acc.Snapshot() }

// Prepare implements Runtime: dependency counts, deques, and the worker pool
// are built once and reused by every PreparedRun.Run — the OpenMP "parallel
// region kept alive across iterations" analog.
func (r *executorBackend) Prepare(g *graph.TDG, st *program.Store) PreparedRun {
	ind := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		ind[i] = int32(len(g.Tasks[i].Deps))
	}
	e := sched.NewExecutor(len(g.Tasks), ind, func(i int32) []int32 { return g.Tasks[i].Succs },
		g.Roots, taskBody(g, st, r.opt.Recorder, r.epoch),
		sched.Options{Workers: r.opt.workers(), Discipline: r.disc})
	return &executorRun{e: e, acc: &r.acc}
}

// executorRun adapts a persistent sched.Executor to PreparedRun. On Close the
// executor's locality counters fold into the owning backend's lifetime
// accumulator.
type executorRun struct {
	e   *sched.Executor
	acc *sched.LocalityAccumulator
}

func (p *executorRun) Run(ctx context.Context) error { return p.e.Run(ctx) }

// Locality implements LocalityReporter with the live executor counters.
func (p *executorRun) Locality() sched.LocalityStats { return p.e.Stats() }

func (p *executorRun) Close() {
	p.acc.Add(p.e.Stats())
	p.e.Close()
}
