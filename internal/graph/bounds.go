package graph

import "sparsetask/internal/program"

// Bounds are scheduling lower bounds for executing the TDG on w workers with
// the given per-task cost function, from the two classic arguments:
//
//   - Work bound:  total cost / w (no schedule can beat perfect speedup);
//   - Span bound:  the critical-path cost (dependencies serialize it).
//
// Brent's theorem guarantees any greedy schedule finishes within
// Work/w + Span, so together the bounds bracket every reasonable scheduler.
// The simulator tests use them as invariants: simulated makespans must never
// beat the lower bound, and greedy policies must stay within the Brent
// envelope when no artificial serialization (spawn gates, barriers) applies.
type Bounds struct {
	Work float64 // Σ cost(t)
	Span float64 // max over paths of Σ cost(t)
}

// LowerBound returns the larger of the two lower bounds for w workers.
func (b Bounds) LowerBound(w int) float64 {
	lb := b.Work / float64(w)
	if b.Span > lb {
		return b.Span
	}
	return lb
}

// BrentUpperBound returns Work/w + Span, the greedy-schedule guarantee.
func (b Bounds) BrentUpperBound(w int) float64 {
	return b.Work/float64(w) + b.Span
}

// ComputeBounds evaluates the bounds under an arbitrary task cost model.
// cost must be non-negative. Runs in one topological pass (task ids are
// topologically ordered by construction).
func (g *TDG) ComputeBounds(cost func(*Task) float64) Bounds {
	var b Bounds
	reach := make([]float64, len(g.Tasks))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		c := cost(t)
		b.Work += c
		longest := 0.0
		for _, d := range t.Deps {
			if reach[d] > longest {
				longest = reach[d]
			}
		}
		reach[i] = longest + c
		if reach[i] > b.Span {
			b.Span = reach[i]
		}
	}
	return b
}

// FlopBounds are ComputeBounds under the task flop counts: the
// machine-independent work/span decomposition of the graph.
func (g *TDG) FlopBounds() Bounds {
	return g.ComputeBounds(func(t *Task) float64 { return float64(t.Flops) })
}

// Parallelism returns Work/Span under the flop cost model: the average
// available parallelism of the TDG — what the paper calls the degree of
// parallelism the decomposition exposes.
func (g *TDG) Parallelism() float64 {
	b := g.FlopBounds()
	if b.Span == 0 {
		return 0
	}
	return b.Work / b.Span
}

// WorkFloor returns flops and a task count that no expansion of p's calls can
// undercut when the row space is cut into np partitions and the sparse operand
// holds nnz entries — whatever the tile occupancy, so it needs no matrix. It
// mirrors the expand* functions: every call but the sparse product has a
// task count and flop total fixed by np alone, and a sparse product does its
// 2·nnz·n flops in at least one task per row block (a tile, or the zeroing
// task of a row block without tiles). Under a cost model that charges each
// task its flops plus a fixed overhead, the floor is a lower bound on
// ComputeBounds(...).Work; calls whose floor is not known contribute nothing.
func WorkFloor(p *program.Program, np int, nnz int64) (flops, tasks int64) {
	m, parts := int64(p.M), int64(np)
	for i := range p.Calls {
		c := &p.Calls[i]
		n := int64(p.Op(c.Out).Cols)
		switch c.Kind {
		case program.CSpMM:
			flops += 2 * nnz * n
			tasks += parts
		case program.CGemm:
			flops += 2 * m * int64(p.Op(c.A).Cols) * n
			tasks += parts
		case program.CGemmT:
			kn := int64(p.Op(c.A).Cols) * int64(p.Op(c.B).Cols)
			flops += 2*m*kn + parts*kn
			tasks += parts + 1
		case program.CAxpby, program.CColAxpby:
			flops += 3 * m * n
			tasks += parts
		case program.CScaleInv, program.CCopy, program.CDiagScale:
			flops += m * n
			tasks += parts
		case program.CDot:
			flops += 2*m*int64(p.Op(c.A).Cols) + parts
			tasks += parts + 1
		case program.CColDot:
			w := int64(p.Op(c.A).Cols)
			flops += 2*m*w + parts*w
			tasks += parts + 1
		case program.CSmall:
			flops++
			tasks++
		case program.CSpTrsv:
			tasks += parts
		}
	}
	return flops, tasks
}
