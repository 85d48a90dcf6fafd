// Package autotune implements the paper's §5.4 block-size selection
// heuristic as a library: instead of brute-forcing every block size from
// 2^10 to 2^24, the optimal CSB block size always lands the per-dimension
// block count in [8, 511], so tuning reduces to evaluating one candidate
// per bin — six trials — and picking the fastest.
//
// An Evaluator scores one candidate: GraphEvaluator analytically, or any
// user-supplied cost (the simulator's bench.SimEvaluator, wall-clock runs of
// the real runtimes on the host). Whatever prices a candidate prices
// IterationGraph, the one description of a solver iteration at a block
// count. An evaluator that can bound a candidate's cost from below lets the
// search skip the candidates that cannot win, without changing the winner.
package autotune

import (
	"fmt"

	"sparsetask/internal/graph"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// Bins are the six block-count bins of §5.4 with their geometric-midpoint
// representatives. The paper's rule of thumb: the optimum is always in one
// of these bins, with DeepSparse favoring 32–63 (Broadwell) / 64–127 (EPYC),
// HPX 64–127, and Regent 16–31.
var Bins = []struct {
	Label string
	Lo    int
	Hi    int
	Rep   int
}{
	{"8-15", 8, 15, 11},
	{"16-31", 16, 31, 23},
	{"32-63", 32, 63, 45},
	{"64-127", 64, 127, 90},
	{"128-255", 128, 255, 181},
	{"256-511", 256, 511, 362},
}

// Solver selects which benchmark application the tuned graph runs.
type Solver int

// The two paper applications.
const (
	Lanczos Solver = iota
	LOBPCG
)

// Evaluator scores candidate block counts.
type Evaluator struct {
	// Cost measures the cost of executing one solver iteration when the
	// matrix is tiled at the given block count. Lower is better. An error
	// marks the candidate infeasible (it is skipped).
	Cost func(blockCount int) (float64, error)
	// Bound, when set, returns a value Cost(blockCount) cannot come in under,
	// for far less than Cost costs. Tune skips a candidate whose bound is no
	// better than the best cost seen so far: it could not have won.
	Bound func(blockCount int) float64
}

// Result reports a tuning run.
type Result struct {
	BlockCount int     // the winning representative block count
	Block      int     // the corresponding CSB block size in rows
	Bin        string  // the winning bin label
	Cost       float64 // evaluator cost at the winner
	// Trials records every evaluated (blockCount, cost) pair in bin order.
	Trials []Trial
	// Pruned records the candidates skipped on their bound, in bin order.
	Pruned []Pruned
}

// Trial is one evaluated candidate.
type Trial struct {
	Bin        string
	BlockCount int
	Cost       float64
	Err        error
}

// Pruned is one candidate Tune did not evaluate: Bound was already no better
// than the cost of the winner so far.
type Pruned struct {
	Bin        string
	BlockCount int
	Bound      float64
}

// Tune runs the six-bin search with the given evaluator for a matrix with
// `rows` rows. Block counts that exceed rows are skipped. The search is
// branch-and-bound over the bins, and exact: a candidate is skipped only when
// its lower bound shows it cannot cost strictly less than the incumbent, which
// is what it would have needed to replace it (ties keep the coarser bin), so
// the winner is the exhaustive sweep's.
func Tune(rows int, eval Evaluator) (Result, error) {
	if rows <= 0 {
		return Result{}, fmt.Errorf("autotune: rows must be positive, got %d", rows)
	}
	res := Result{Cost: -1}
	for _, bin := range Bins {
		bc := bin.Rep
		if bc > rows {
			continue
		}
		if eval.Bound != nil && res.Cost >= 0 {
			if lb := eval.Bound(bc); lb >= res.Cost {
				res.Pruned = append(res.Pruned, Pruned{Bin: bin.Label, BlockCount: bc, Bound: lb})
				continue
			}
		}
		cost, err := eval.Cost(bc)
		res.Trials = append(res.Trials, Trial{Bin: bin.Label, BlockCount: bc, Cost: cost, Err: err})
		if err != nil {
			continue
		}
		if res.Cost < 0 || cost < res.Cost {
			res.Cost = cost
			res.BlockCount = bc
			res.Bin = bin.Label
		}
	}
	if res.Cost < 0 {
		return res, fmt.Errorf("autotune: no feasible block count for %d rows", rows)
	}
	res.Block = (rows + res.BlockCount - 1) / res.BlockCount
	return res, nil
}

// IterationGraph builds the solver's per-iteration TDG over the matrix cut
// into blockCount tiles per dimension: graph.Build's unfused output, task for
// task the solver's Graph().Source() at that tiling. Only what a cost model
// reads is built: tile occupancy (no tile contents), the program and its
// graph (no store).
func IterationGraph(coo *sparse.COO, sv Solver, blockCount int) (*graph.TDG, error) {
	tiles := coo.TileSkeleton((coo.Rows + blockCount - 1) / blockCount)
	switch sv {
	case Lanczos:
		return solver.LanczosGraph(tiles, 10)
	case LOBPCG:
		return solver.LOBPCGGraph(tiles, 8)
	}
	return nil, fmt.Errorf("autotune: unknown solver %d", sv)
}

// boundSlack is the relative margin GraphEvaluator's bound keeps below the
// work floor: floor and graph sum the same terms in different orders, and
// rounding must not lift the bound over a cost it equals on paper.
const boundSlack = 1e-9

// GraphEvaluator returns an Evaluator that scores candidates analytically
// without simulation: estimated makespan = max(work/w, span) under the flop
// cost model plus per-task overhead on w workers. Orders of magnitude
// cheaper than simulation; useful as a pre-filter or when no machine model
// applies.
//
// Its Bound is work/w over graph.WorkFloor: the flops no tiling changes plus
// the overhead of the tasks every tiling must emit. Per-task overhead is what
// sinks the fine bins, and the floor knows their task counts from the solver's
// call list alone — no tiling, no graph.
func GraphEvaluator(coo *sparse.COO, sv Solver, workers int, flopsPerNs, overheadNs float64) Evaluator {
	ev := Evaluator{Cost: func(blockCount int) (float64, error) {
		g, err := IterationGraph(coo, sv, blockCount)
		if err != nil {
			return 0, err
		}
		b := g.ComputeBounds(func(t *graph.Task) float64 {
			return float64(t.Flops)/flopsPerNs + overheadNs
		})
		return b.LowerBound(workers), nil
	}}
	if coo.Rows <= 0 {
		return ev
	}
	// The solver's call list is the same at every tiling, so the graph of the
	// untiled matrix — a dozen tasks — supplies the program the floor walks.
	probe, err := IterationGraph(coo, sv, 1)
	if err != nil {
		return ev // Cost fails the same way on every candidate
	}
	nnz := int64(coo.NNZ()) // compacted by the probe
	ev.Bound = func(blockCount int) float64 {
		block := (coo.Rows + blockCount - 1) / blockCount
		flops, tasks := graph.WorkFloor(probe.Prog, (coo.Rows+block-1)/block, nnz)
		work := float64(flops)/flopsPerNs + overheadNs*float64(tasks)
		return (1 - boundSlack) * work / float64(workers)
	}
	return ev
}
