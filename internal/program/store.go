package program

import (
	"fmt"

	"sparsetask/internal/sparse"
)

// Store holds the concrete data behind a program's operands. One Store is
// shared by all tasks of an execution; the task-dependency graph guarantees
// conflict-free access, so the store needs no locking: all per-operand
// backing slices are preallocated up front and only their *elements* are
// written by tasks (never the slice headers or any map), keeping concurrent
// task execution race-free.
type Store struct {
	P       *Program
	SparseM map[OperandID]*sparse.CSB
	// SymM holds the SymCSB matrices behind OpSymSparse operands. Like
	// SparseM it is populated before execution and read-only afterwards.
	SymM map[OperandID]*sparse.SymCSB
	// TriM holds the triangular factors behind OpTri operands in the block
	// substitution layout the TTrsv kernel solves on. Like SparseM it is
	// populated before execution and read-only afterwards.
	TriM map[OperandID]*sparse.BlockTri
	// Vec, Small and Scalars are indexed by OperandID; entries for operands
	// of other kinds are nil/unused.
	Vec     [][]float64
	Small   [][]float64
	Scalars []float64
	// partials and spmmBuf are flat call-major tables indexed
	// call*NP+part. A slice lookup here sits on the critical path of every
	// reduction task, so these are not maps: the flat form is one load with
	// no hashing and no lock-free-read caveats.
	partials [][]float64
	spmmBuf  [][]float64
	// symAcc holds the fallback-mode private accumulators of CSpMMSym
	// calls, indexed call*sparse.SymAccGroups+group; each is a full output
	// buffer (M·n). Allocated by SetSymSparse (the matrix's schedule decides
	// whether fallback buffers are needed), fixed before execution.
	symAcc [][]float64
}

// NewStore allocates backing storage for every operand of p except sparse
// matrices, which must be attached with SetSparse.
func NewStore(p *Program) *Store {
	st := &Store{
		P:        p,
		SparseM:  make(map[OperandID]*sparse.CSB),
		SymM:     make(map[OperandID]*sparse.SymCSB),
		TriM:     make(map[OperandID]*sparse.BlockTri),
		Vec:      make([][]float64, len(p.Ops)),
		Small:    make([][]float64, len(p.Ops)),
		Scalars:  make([]float64, len(p.Ops)),
		partials: make([][]float64, len(p.Calls)*p.NP),
		spmmBuf:  make([][]float64, len(p.Calls)*p.NP),
		symAcc:   make([][]float64, len(p.Calls)*sparse.SymAccGroups),
	}
	for _, o := range p.Ops {
		switch o.Kind {
		case OpVec:
			st.Vec[o.ID] = make([]float64, o.Rows*o.Cols)
		case OpSmall:
			st.Small[o.ID] = make([]float64, o.Rows*o.Cols)
		}
	}
	// Preallocate every reduction partial buffer up front: tasks run
	// concurrently and must never mutate the maps.
	for ci, c := range p.Calls {
		var n int
		switch c.Kind {
		case CGemmT:
			n = p.Op(c.A).Cols * p.Op(c.B).Cols
		case CDot:
			n = 1
		case CColDot:
			n = p.Op(c.Out).Cols
		case CSpMM:
			if c.ReduceSpMM {
				// One full-output-height column buffer per partition: the
				// deliberately memory-hungry reduce-based variant.
				w := p.Op(c.Out).Cols
				for bj := 0; bj < p.NP; bj++ {
					st.spmmBuf[ci*p.NP+bj] = make([]float64, p.M*w)
				}
			}
			continue
		default:
			continue
		}
		for part := 0; part < p.NP; part++ {
			st.partials[ci*p.NP+part] = make([]float64, n)
		}
	}
	return st
}

// SetSparse attaches the CSB matrix for a sparse operand. The CSB tile size
// must equal the program block size so matrix tiles and vector partitions
// line up.
func (st *Store) SetSparse(id OperandID, a *sparse.CSB) {
	o := st.P.Op(id)
	if o.Kind != OpSparse {
		panic(fmt.Sprintf("program: SetSparse on %s operand %s", o.Kind, o.Name))
	}
	if a.Block != st.P.Block {
		panic(fmt.Sprintf("program: CSB block %d != program block %d", a.Block, st.P.Block))
	}
	if a.Rows != st.P.M {
		panic(fmt.Sprintf("program: CSB rows %d != program rows %d", a.Rows, st.P.M))
	}
	st.SparseM[id] = a
}

// SetSymSparse attaches the SymCSB matrix for a symmetric sparse operand.
// When the matrix's schedule uses the fallback accumulator path, the private
// accumulator buffers of every CSpMMSym call over this operand are allocated
// here (setup time, off the hot path) so tasks never mutate the tables.
func (st *Store) SetSymSparse(id OperandID, a *sparse.SymCSB) {
	o := st.P.Op(id)
	if o.Kind != OpSymSparse {
		panic(fmt.Sprintf("program: SetSymSparse on %s operand %s", o.Kind, o.Name))
	}
	if a.Block != st.P.Block {
		panic(fmt.Sprintf("program: SymCSB block %d != program block %d", a.Block, st.P.Block))
	}
	if a.Rows != st.P.M {
		panic(fmt.Sprintf("program: SymCSB rows %d != program rows %d", a.Rows, st.P.M))
	}
	st.SymM[id] = a
	if !a.Sched.Fallback {
		return
	}
	for ci, c := range st.P.Calls {
		if c.Kind != CSpMMSym || c.A != id {
			continue
		}
		w := st.P.Op(c.Out).Cols
		for g := 0; g < a.Sched.Groups; g++ {
			if st.symAcc[ci*sparse.SymAccGroups+g] == nil {
				st.symAcc[ci*sparse.SymAccGroups+g] = make([]float64, st.P.M*w)
			}
		}
	}
}

// SymAcc returns the fallback-mode private accumulator of CSpMMSym call
// callIdx for group g: a full-output-height buffer. Concurrent callers only
// read the flat table, which is safe because entries are fixed after
// SetSymSparse.
func (st *Store) SymAcc(callIdx, g int) []float64 {
	b := st.symAcc[callIdx*sparse.SymAccGroups+g]
	if b == nil {
		panic(fmt.Sprintf("program: no symmetric accumulator for call %d group %d", callIdx, g))
	}
	return b
}

// SetBlockTri attaches the factor for a triangular operand in its block
// substitution layout (precond.Levels.Tri: built once per factor and block
// size, shared by every store that solves with it). The layout must match the
// program's rows and block size and the direction of the CSpTrsv calls that
// use the operand.
func (st *Store) SetBlockTri(id OperandID, t *sparse.BlockTri) {
	o := st.P.Op(id)
	if o.Kind != OpTri {
		panic(fmt.Sprintf("program: SetBlockTri on %s operand %s", o.Kind, o.Name))
	}
	if t.Rows != st.P.M || t.Block != st.P.Block {
		panic(fmt.Sprintf("program: factor layout is %d rows in blocks of %d, program has %d in blocks of %d",
			t.Rows, t.Block, st.P.M, st.P.Block))
	}
	if upper, used := st.triDirection(id); used && upper != t.Upper {
		panic(fmt.Sprintf("program: factor layout of %s has Upper=%v, its solve Upper=%v", o.Name, t.Upper, upper))
	}
	st.TriM[id] = t
}

// SetTri attaches a bare CSR factor for a triangular operand, deriving the
// substitution layout on the spot (an O(rows + nnz) pass — callers that solve
// with one factor more than once build it once and use SetBlockTri). The
// direction is that of the program's CSpTrsv calls on the operand; an operand
// no call solves with is left unbound. A factor the kernel cannot solve
// (sparse.NewBlockTri's validation) panics here, as a shape mismatch does.
func (st *Store) SetTri(id OperandID, a *sparse.CSR) {
	if o := st.P.Op(id); o.Kind != OpTri {
		panic(fmt.Sprintf("program: SetTri on %s operand %s", o.Kind, o.Name))
	}
	upper, used := st.triDirection(id)
	if !used {
		return
	}
	t, err := sparse.NewBlockTri(a, st.P.Block, upper)
	if err != nil {
		panic(fmt.Sprintf("program: SetTri: %v", err))
	}
	st.SetBlockTri(id, t)
}

// triDirection reports the substitution direction of the CSpTrsv calls that
// solve with operand id, and whether any does.
func (st *Store) triDirection(id OperandID) (upper, used bool) {
	for i := range st.P.Calls {
		c := &st.P.Calls[i]
		if c.Kind != CSpTrsv || c.A != id {
			continue
		}
		if used && c.Upper != upper {
			panic(fmt.Sprintf("program: operand %s is solved with in both directions", st.P.Op(id).Name))
		}
		upper, used = c.Upper, true
	}
	return upper, used
}

// VecPart returns the slice of vec operand id covering row partition part.
func (st *Store) VecPart(id OperandID, part int) []float64 {
	o := st.P.Op(id)
	lo := part * st.P.Block * o.Cols
	hi := lo + st.P.PartRows(part)*o.Cols
	return st.Vec[id][lo:hi]
}

// Partial returns the preallocated partial buffer for reduction call callIdx
// at partition part. Concurrent callers only read the flat table, which is
// safe because entries are fixed after NewStore.
func (st *Store) Partial(callIdx, part int) []float64 {
	b := st.partials[callIdx*st.P.NP+part]
	if b == nil {
		panic(fmt.Sprintf("program: no partial buffer for call %d partition %d", callIdx, part))
	}
	return b
}

// SpMMBuf returns the reduce-based SpMM column buffer for call callIdx and
// column partition bj. It has the full output height.
func (st *Store) SpMMBuf(callIdx, bj int) []float64 {
	b := st.spmmBuf[callIdx*st.P.NP+bj]
	if b == nil {
		panic(fmt.Sprintf("program: no SpMM buffer for call %d column %d", callIdx, bj))
	}
	return b
}
