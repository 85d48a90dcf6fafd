package solver

import (
	"fmt"

	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// matWiring binds a solver's system matrix to the program IR. The solvers
// accept any sparse.Matrix; the wiring type-switches once at construction so
// the per-iteration program uses the symmetric kernels (OpSymSparse +
// CSpMMSym) when handed a SymCSB, and the general path otherwise — the rest
// of the solver code is format-agnostic.
type matWiring struct {
	op  program.OperandID
	gen *sparse.CSB
	sym *sparse.SymCSB
}

// wireMatrix declares the matrix operand for a. Supported concrete types are
// *sparse.CSB (general tiles) and *sparse.SymCSB (lower-triangle storage with
// symmetry-exploiting kernels).
func wireMatrix(p *program.Program, a sparse.Matrix) (matWiring, error) {
	switch m := a.(type) {
	case *sparse.CSB:
		return matWiring{op: p.Sparse("A"), gen: m}, nil
	case *sparse.SymCSB:
		return matWiring{op: p.SymSparse("A"), sym: m}, nil
	default:
		return matWiring{}, fmt.Errorf("solver: unsupported matrix type %T", a)
	}
}

// spmm appends the out = A·x call matching the storage format.
func (w matWiring) spmm(p *program.Program, out, x program.OperandID) {
	if w.sym != nil {
		p.SpMMSym(out, w.op, x)
	} else {
		p.SpMM(out, w.op, x)
	}
}

// graphInputs returns the general-matrix map for graph.Build and records the
// symmetric matrix in opt, whichever applies.
func (w matWiring) graphInputs(opt *graph.Options) map[program.OperandID]*sparse.CSB {
	if w.sym != nil {
		opt.Syms = map[program.OperandID]*sparse.SymCSB{w.op: w.sym}
		return nil
	}
	return map[program.OperandID]*sparse.CSB{w.op: w.gen}
}

// graphBuilder turns a solver's program into the task graph it hands out:
// buildGraph for a solver that will run, expandGraph for a cost model.
type graphBuilder func(w matWiring, p *program.Program, opt graph.Options) (*graph.TDG, error)

// expandGraph expands p over the wired matrix: graph.Build's output, the
// graph the block-size cost model prices (its constants are calibrated to it).
func (w matWiring) expandGraph(p *program.Program, opt graph.Options) (*graph.TDG, error) {
	return graph.Build(p, w.graphInputs(&opt), opt)
}

// buildGraph expands p and fuses its partition-local groups: every solver
// iterates on the fused graph, whose Unfused field keeps graph.Build's output
// for the backends and ablations that want it.
func (w matWiring) buildGraph(p *program.Program, opt graph.Options) (*graph.TDG, error) {
	g, err := w.expandGraph(p, opt)
	if err != nil {
		return nil, err
	}
	return graph.Fuse(g), nil
}

// attach binds the matrix storage to the run's store.
func (w matWiring) attach(st *program.Store) {
	if w.sym != nil {
		st.SetSymSparse(w.op, w.sym)
	} else {
		st.SetSparse(w.op, w.gen)
	}
}
