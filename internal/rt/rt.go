// Package rt implements the four runtime backends under evaluation, all
// executing the *same* task-dependency graph with the same kernels and
// differing only in scheduling — the paper's controlled-comparison setup:
//
//   - BSP: bulk-synchronous baseline (libcsr/libcsb analog) — static chunk
//     assignment per kernel with a barrier between kernels, no stealing. It
//     runs on a sched.Team.
//   - DeepSparse: OpenMP-task analog — whole-graph dependency counting,
//     depth-first (LIFO) local queues with work stealing.
//   - HPX: futures/dataflow analog — FIFO queues, work stealing.
//     DeepSparse and HPX are one backend on a sched.Executor that differs
//     only in the queue discipline.
//   - Regent: region/privilege analog — tasks issued in program order by a
//     serial dependence-analysis pipeline with per-task analysis cost,
//     batched for index launches and memoized under dynamic tracing.
//
// Regent keeps its own channel-fed team rather than running on sched.Executor:
// its pipeline issues tasks one at a time from the caller's goroutine, and its
// workers poll only briefly because they share processors with it. On a
// 2-vCPU host the fine-grain CG ran ~45% slower with the pipeline as a serial
// chain of executor tasks, and the executor's longer spin alone cost 10%.
package rt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/kernels"
	"sparsetask/internal/program"
	"sparsetask/internal/sched"
	"sparsetask/internal/trace"
)

// Options configure a runtime instance.
type Options struct {
	// Workers is the number of compute workers; 0 means GOMAXPROCS.
	Workers int
	// Recorder, when non-nil, receives one event per executed task.
	Recorder *trace.Recorder
	// AnalysisCost is the Regent dependence-analysis work per task, in
	// spin-loop iterations. 0 selects a default calibrated to make analysis
	// visible but not dominant at small task counts — the paper's observed
	// Regent behavior.
	AnalysisCost int
	// DynamicTracing enables Regent's memoized task-graph replay (Lee et
	// al., SC18): repeated executions of the same TDG skip most analysis.
	DynamicTracing bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Runtime executes TDGs. Prepare binds it to one (TDG, store) pair and
// returns the handle that executes the graph, once per call to its Run;
// iterative solvers call Run once per iteration with a barrier between calls,
// as all three frameworks do in the paper.
//
// A Runtime is safe for concurrent use from multiple goroutines as long as
// each prepared run has its own TDG and store — the serving layer's access
// pattern (one Runtime per backend, many jobs).
type Runtime interface {
	Name() string
	Prepare(g *graph.TDG, st *program.Store) PreparedRun
}

// PreparedRun is a reusable execution handle binding one runtime to one
// (TDG, store) pair: scheduler state (dependency counts, queues, the worker
// team) is built once and reused by every Run.
//
// Run executes the graph once. It returns nil after every task executed, or
// ctx's error when the context is cancelled mid-run. Cancellation is observed
// at task granularity: in-flight kernels finish, no new task starts, and the
// store is left partially updated — callers must discard it. A nil ctx
// behaves like context.Background(). A panicking task is re-raised on Run's
// caller. Run must not be invoked concurrently with itself.
//
// Close releases the handle's resources (e.g. a persistent worker pool) and
// must be called exactly once when the handle is no longer needed.
type PreparedRun interface {
	Run(ctx context.Context) error
	Close()
}

// LocalityReporter is implemented by the runtimes and prepared runs built on
// sched.Executor (DeepSparse and HPX), which keep its counters. A runtime's Locality is its lifetime
// aggregate (folded in as executions close); a PreparedRun's is the live
// count for that handle. Safe to call concurrently with runs on the runtime
// form; on a PreparedRun only between Run calls.
type LocalityReporter interface {
	Locality() sched.LocalityStats
}

// PrepareRun returns r.Prepare(g, st); the benchmark module calls it.
func PrepareRun(r Runtime, g *graph.TDG, st *program.Store) PreparedRun {
	return r.Prepare(g, st)
}

// backends is the one list of runtime backends, in the paper's order: the
// name a client or configuration selects each by, and its constructor.
var backends = []struct {
	name  string
	build func(Options) Runtime
}{
	{"bsp", func(o Options) Runtime { return NewBSP(o) }},
	{"deepsparse", NewDeepSparse},
	{"hpx", NewHPX},
	{"regent", func(o Options) Runtime { return NewRegent(o) }},
}

// Backends returns the names ByName accepts, in the paper's order.
func Backends() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	return names
}

// ByName builds the backend called name.
func ByName(name string, opt Options) (Runtime, error) {
	for _, b := range backends {
		if b.name == name {
			return b.build(opt), nil
		}
	}
	return nil, fmt.Errorf("rt: unknown backend %q (valid: %s)", name, strings.Join(Backends(), ", "))
}

// taskBody returns the task execution closure, wrapping kernels.Exec with
// trace recording when enabled.
func taskBody(g *graph.TDG, st *program.Store, rec *trace.Recorder, epoch time.Time) func(w int, id int32) {
	if rec == nil {
		return func(w int, id int32) {
			kernels.Exec(g, &g.Tasks[id], st)
		}
	}
	return func(w int, id int32) {
		t := &g.Tasks[id]
		s := time.Since(epoch).Nanoseconds()
		kernels.Exec(g, t, st)
		e := time.Since(epoch).Nanoseconds()
		rec.Record(w, trace.Event{
			Task: id, Call: t.Call,
			Kernel: g.Prog.Calls[t.Call].Name,
			Start:  s, End: e,
		})
	}
}
