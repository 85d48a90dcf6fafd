package rt

import (
	"context"
	"sort"
	"sync"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/sched"
)

// BSP is the bulk-synchronous baseline: each kernel (program call) executes
// as a statically partitioned parallel loop, with a full barrier before the
// next kernel starts. Row chains are assigned to workers round-robin with no
// stealing, and cross-partition reductions run serially after the barrier —
// the structure of the paper's libcsr/libcsb MKL baselines. The storage
// format distinction (libcsr vs libcsb) is expressed by the program's block
// size: a block of ceil(m/workers) rows models MKL's thread-level CSR
// chunking, while solver-tuned CSB blocks model libcsb.
type BSP struct {
	opt   Options
	epoch time.Time
}

// NewBSP returns the bulk-synchronous runtime.
func NewBSP(opt Options) *BSP { return &BSP{opt: opt, epoch: time.Now()} }

// Name implements Runtime.
func (r *BSP) Name() string { return "bsp" }

// bspCallPlan is one kernel's static schedule: per-partition task chains in
// ascending partition order (chain k goes to worker k%nw, OpenMP static-for
// semantics) plus the serial post-barrier tasks (reductions, small steps).
type bspCallPlan struct {
	chains [][]int32
	serial []int32
}

// buildBSPPlan groups a TDG's tasks by call and partition once; the plan is
// immutable and reusable across runs of the same graph.
func buildBSPPlan(g *graph.TDG) []bspCallPlan {
	byCall := make([][]int32, len(g.Prog.Calls))
	for i := range g.Tasks {
		c := g.Tasks[i].Call
		byCall[c] = append(byCall[c], g.Tasks[i].ID)
	}
	var plan []bspCallPlan
	for ci, ids := range byCall {
		if len(ids) == 0 {
			continue
		}
		if k := g.Prog.Calls[ci].Kind; k == program.CSpTrsv || k == program.CSpMMSym {
			// These calls carry dependencies *within* the call: triangular
			// block chains follow the factor's level DAG, and symmetric SpMV
			// tiles write two row bands (per-P chains would race on the
			// transposed band). Split the call into its dependency levels
			// and barrier between them — the classic OpenMP level-scheduled
			// shape. Tasks of one level share no intra-call edge, and every
			// write conflict has an edge, so levels are conflict-free. Level
			// order equals chain order per region, so results stay
			// bit-identical to the AMT runtimes'.
			plan = append(plan, bspTrsvLevels(g, ids)...)
			continue
		}
		// Partition the call's tasks into per-row chains plus serial tasks,
		// preserving id order (which is Q order within a row chain, so
		// accumulation order is identical to the AMT runtimes').
		chains := map[int32][]int32{}
		var serial []int32
		var parts []int32
		for _, id := range ids {
			p := g.Tasks[id].P
			if p < 0 {
				serial = append(serial, id)
				continue
			}
			if _, ok := chains[p]; !ok {
				parts = append(parts, p)
			}
			chains[p] = append(chains[p], id)
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
		cp := bspCallPlan{serial: serial, chains: make([][]int32, len(parts))}
		for k, p := range parts {
			cp.chains[k] = chains[p]
		}
		plan = append(plan, cp)
	}
	return plan
}

// bspTrsvLevels groups one CSpTrsv call's tasks by intra-call dependency
// depth and returns one plan phase per level, each holding single-task
// chains. Depth only counts same-call predecessors, so the phase before the
// solve still ends at the ordinary inter-call barrier.
func bspTrsvLevels(g *graph.TDG, ids []int32) []bspCallPlan {
	depth := make(map[int32]int32, len(ids))
	maxDepth := int32(0)
	call := g.Tasks[ids[0]].Call
	for _, id := range ids { // ids ascend, deps point backwards
		d := int32(0)
		for _, dep := range g.Tasks[id].Deps {
			if g.Tasks[dep].Call == call {
				if dd := depth[dep] + 1; dd > d {
					d = dd
				}
			}
		}
		depth[id] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([]bspCallPlan, maxDepth+1)
	for _, id := range ids {
		l := &levels[depth[id]]
		l.chains = append(l.chains, []int32{id})
	}
	return levels
}

// bspPrepared executes a prebuilt plan with a team that outlives the run
// (sched.Team): Run's caller is worker 0 and nw-1 helpers wait for the next
// superstep, so a barrier is a store on the way in and a counter on the way
// out instead of a goroutine fork and join. With one worker there is no team
// at all: the chains run inline on the calling goroutine. Either way a
// steady-state run allocates nothing.
type bspPrepared struct {
	plan []bspCallPlan
	body func(int, int32)
	nw   int
	team *sched.Team

	// The superstep in flight, published to the helpers by the round.
	cur *bspCallPlan
	ctx context.Context

	panicMu  sync.Mutex
	panicVal any // first task panic of the superstep, re-raised by Run
}

// Prepare implements Runtime: the per-call chain grouping is computed once,
// the helpers are started once, and every PreparedRun.Run reuses both. The
// plan is laid over the graph Build produced even when g is fused — BSP is
// the baseline whose barriers sit at kernel boundaries, and fusing across
// them would erase what it is a baseline for. Same program, same store: the
// result is bit-identical either way.
func (r *BSP) Prepare(g *graph.TDG, st *program.Store) PreparedRun {
	g = g.Source()
	p := &bspPrepared{
		plan: buildBSPPlan(g),
		body: taskBody(g, st, r.opt.Recorder, r.epoch),
		nw:   r.opt.workers(),
	}
	p.team = sched.NewTeam(p.nw, p.runChains)
	return p
}

// Close dismisses the helpers and returns once they have exited.
func (p *bspPrepared) Close() { p.team.Close() }

// Run executes the plan once. Cancellation is observed at the chain/barrier
// granularity: workers stop picking up chains, the current barrier drains,
// and Run returns ctx's error without starting the next kernel.
func (p *bspPrepared) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range p.plan {
		cp := &p.plan[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.nw == 1 || len(cp.chains) <= 1 {
			// Static round-robin over one worker: run inline, no barrier.
			for _, chain := range cp.chains {
				if ctx.Err() != nil {
					break
				}
				for _, id := range chain {
					p.body(0, id)
				}
			}
		} else {
			p.superstep(ctx, cp)
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		// Reductions and small steps run serially after the barrier.
		for _, id := range cp.serial {
			p.body(0, id)
		}
	}
	return nil
}

// superstep executes one call's chains across the team with a closing
// barrier. Static round-robin chain assignment: worker w owns chains w, w+nw,
// w+2nw, ... — OpenMP static-for semantics, so a single heavy chain (skewed
// nonzeros) stalls the barrier, the paper's BSP load-imbalance pathology.
//
//sparselint:hotpath
func (p *bspPrepared) superstep(ctx context.Context, cp *bspCallPlan) {
	p.cur, p.ctx = cp, ctx
	p.team.Round() // returns at the BSP barrier
	if p.panicVal != nil {
		v := p.panicVal
		p.panicVal = nil
		panic(v)
	}
}

// runChains executes worker w's share of the current superstep. A panicking
// task is recorded, not propagated: every worker must still reach the
// barrier, and Run re-raises the panic on the caller's goroutine after it.
//
//sparselint:hotpath
func (p *bspPrepared) runChains(w int) {
	defer p.recoverTask()
	cp, ctx := p.cur, p.ctx
	for k := w; k < len(cp.chains); k += p.nw {
		if ctx.Err() != nil {
			return
		}
		for _, id := range cp.chains[k] {
			p.body(w, id)
		}
	}
}

func (p *bspPrepared) recoverTask() {
	if rec := recover(); rec != nil {
		p.panicMu.Lock()
		if p.panicVal == nil {
			p.panicVal = rec
		}
		p.panicMu.Unlock()
	}
}
