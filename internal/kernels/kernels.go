// Package kernels provides the executable bodies of TDG tasks: given a task
// and the program store, Exec performs the task's computation. Every runtime
// backend (BSP, DeepSparse-style, HPX-style, Regent-style) calls the same
// kernels, so numerical results are identical across runtimes — only the
// schedule differs. This mirrors the paper's use of the same MKL calls inside
// every framework's tasks.
package kernels

import (
	"fmt"
	"math"

	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/program"
)

// Exec runs one task against the store. It must only be called when all of
// the task's dependencies have completed; under that contract no locking is
// needed because the TDG serializes conflicting accesses. Fused tasks run
// their constituent kernels back-to-back.
//
//sparselint:hotpath
func Exec(g *graph.TDG, t *graph.Task, st *program.Store) {
	if len(t.Parts) > 1 {
		for _, part := range t.Parts {
			// Sym kinds are never fusable, so parts carry no FirstQ.
			execPart(g, part.Kind, part.Call, part.P, part.Q, part.First, false, st)
		}
		return
	}
	execPart(g, t.Kind, t.Call, t.P, t.Q, t.First, t.FirstQ, st)
}

// execPart runs one kernel instance.
//
//sparselint:hotpath
func execPart(g *graph.TDG, kind graph.TaskKind, call, tp, tq int32, first, firstQ bool, st *program.Store) {
	t := &fusedView{Kind: kind, Call: call, P: tp, Q: tq, First: first, FirstQ: firstQ}
	p := g.Prog
	c := &p.Calls[t.Call]
	switch t.Kind {
	case graph.TSpMMTile:
		a := st.SparseM[c.A]
		x := st.Vec[c.B]
		y := st.Vec[c.Out]
		n := p.Op(c.Out).Cols
		if t.First {
			zero(st.VecPart(c.Out, int(t.P)))
		}
		if n == 1 {
			a.BlockSpMV(y, x, int(t.P), int(t.Q))
		} else {
			a.BlockSpMM(y, x, n, int(t.P), int(t.Q))
		}

	case graph.TSpMMZero:
		zero(st.VecPart(c.Out, int(t.P)))

	case graph.TSpMMBufTile:
		a := st.SparseM[c.A]
		x := st.Vec[c.B]
		buf := st.SpMMBuf(int(t.Call), int(t.Q))
		n := p.Op(c.Out).Cols
		lo := int(t.P) * p.Block * n
		hi := lo + p.PartRows(int(t.P))*n
		zero(buf[lo:hi])
		if n == 1 {
			a.BlockSpMV(buf, x, int(t.P), int(t.Q))
		} else {
			a.BlockSpMM(buf, x, n, int(t.P), int(t.Q))
		}

	case graph.TSpMMReduce:
		a := st.SparseM[c.A]
		n := p.Op(c.Out).Cols
		out := st.VecPart(c.Out, int(t.P))
		zero(out)
		lo := int(t.P) * p.Block * n
		for bj := 0; bj < p.NP; bj++ {
			if a.BlockNNZ(int(t.P), bj) == 0 && g.Opt.SkipEmpty {
				continue
			}
			buf := st.SpMMBuf(int(t.Call), bj)
			src := buf[lo : lo+len(out)]
			src = src[:len(out)]
			i := 0
			for ; i+4 <= len(out); i += 4 {
				out[i] += src[i]
				out[i+1] += src[i+1]
				out[i+2] += src[i+2]
				out[i+3] += src[i+3]
			}
			for ; i < len(out); i++ {
				out[i] += src[i]
			}
		}

	case graph.TGemm:
		k := p.Op(c.A).Cols
		n := p.Op(c.Out).Cols
		rows := p.PartRows(int(t.P))
		blas.Gemm(c.Alpha, st.VecPart(c.A, int(t.P)), rows, k, st.Small[c.B], n, c.Beta, st.VecPart(c.Out, int(t.P)))

	case graph.TGemmTPart:
		k := p.Op(c.A).Cols
		n := p.Op(c.B).Cols
		rows := p.PartRows(int(t.P))
		blas.GemmTN(1, st.VecPart(c.A, int(t.P)), rows, k, st.VecPart(c.B, int(t.P)), n, 0, st.Partial(int(t.Call), int(t.P)))

	case graph.TGemmTReduce:
		out := st.Small[c.Out]
		zero(out)
		for bi := 0; bi < p.NP; bi++ {
			part := st.Partial(int(t.Call), bi)
			part = part[:len(out)]
			for i := range out {
				out[i] += part[i]
			}
		}

	case graph.TAxpby:
		a := st.VecPart(c.A, int(t.P))
		b := st.VecPart(c.B, int(t.P))
		out := st.VecPart(c.Out, int(t.P))
		al, be := c.Alpha, c.Beta
		a = a[:len(out)]
		b = b[:len(out)]
		i := 0
		for ; i+4 <= len(out); i += 4 {
			out[i] = al*a[i] + be*b[i]
			out[i+1] = al*a[i+1] + be*b[i+1]
			out[i+2] = al*a[i+2] + be*b[i+2]
			out[i+3] = al*a[i+3] + be*b[i+3]
		}
		for ; i < len(out); i++ {
			out[i] = al*a[i] + be*b[i]
		}

	case graph.TScaleInv:
		a := st.VecPart(c.A, int(t.P))
		out := st.VecPart(c.Out, int(t.P))
		s := st.Scalars[c.S]
		// Guard exact zero (e.g. a fully converged residual): produce zeros
		// rather than poisoning downstream kernels with Inf/NaN.
		var inv float64
		if s != 0 {
			inv = 1 / s
		}
		a = a[:len(out)]
		for i := range out {
			out[i] = a[i] * inv
		}

	case graph.TDotPart:
		a := st.VecPart(c.A, int(t.P))
		b := st.VecPart(c.B, int(t.P))
		st.Partial(int(t.Call), int(t.P))[0] = blas.Dot(a, b)

	case graph.TDotReduce:
		var s float64
		for bi := 0; bi < p.NP; bi++ {
			s += st.Partial(int(t.Call), bi)[0]
		}
		if c.Sqrt {
			s = math.Sqrt(s)
		}
		st.Scalars[c.Out] = s

	case graph.TSmall:
		c.Fn(st)

	case graph.TCopy:
		copy(st.VecPart(c.Out, int(t.P)), st.VecPart(c.A, int(t.P)))

	case graph.TDiagScale:
		a := st.VecPart(c.A, int(t.P))
		d := st.VecPart(c.B, int(t.P))
		out := st.VecPart(c.Out, int(t.P))
		n := p.Op(c.Out).Cols
		for i := range d {
			di := d[i]
			row := out[i*n : i*n+n]
			src := a[i*n : i*n+n]
			for cix := range row {
				row[cix] = di * src[cix]
			}
		}

	case graph.TTrsv:
		tri := st.TriM[c.A]
		x := st.Vec[c.Out]
		b := st.Vec[c.B]
		// Out and B are full-length vectors; the block's rows read entries
		// of x that dependency-predecessor tasks wrote.
		if n := p.Op(c.Out).Cols; n == 1 {
			tri.SolveBlock(x, b, int(t.P))
		} else {
			tri.SolveBlockN(x, b, n, int(t.P))
		}

	case graph.TSymTile:
		// Wave-mode symmetric tile (or a fallback-mode diagonal tile):
		// scatter both halves straight into y. First/FirstQ zero the
		// destination bands; the pre-colored waves guarantee no concurrent
		// task touches either band.
		a := st.SymM[c.A]
		x := st.Vec[c.B]
		y := st.Vec[c.Out]
		n := p.Op(c.Out).Cols
		if t.First {
			zero(st.VecPart(c.Out, int(t.P)))
		}
		if t.FirstQ {
			zero(st.VecPart(c.Out, int(t.Q)))
		}
		if n == 1 {
			a.BlockSymSpMV(y, x, int(t.P), int(t.Q))
		} else {
			a.BlockSymSpMM(y, x, n, int(t.P), int(t.Q))
		}

	case graph.TSymTileAcc:
		// Fallback-mode off-diagonal tile: direct half into y[P], transposed
		// half into the tile row's group accumulator at band-Q offset.
		a := st.SymM[c.A]
		x := st.Vec[c.B]
		y := st.Vec[c.Out]
		n := p.Op(c.Out).Cols
		if t.First {
			zero(st.VecPart(c.Out, int(t.P)))
		}
		acc := st.SymAcc(int(t.Call), a.AccGroup(int(t.P)))
		if t.FirstQ {
			lo := int(t.Q) * p.Block * n
			zero(acc[lo : lo+p.PartRows(int(t.Q))*n])
		}
		if n == 1 {
			a.BlockSymSpMVDirect(y, x, int(t.P), int(t.Q))
			a.BlockSymSpMVTrans(acc, x, int(t.P), int(t.Q))
		} else {
			a.BlockSymSpMMDirect(y, x, n, int(t.P), int(t.Q))
			a.BlockSymSpMMTrans(acc, x, n, int(t.P), int(t.Q))
		}

	case graph.TSymReduce:
		// Fold the used accumulator groups of band P back into y[P] in
		// ascending group order: a fixed order, so the fallback path is as
		// bit-reproducible as the wave path.
		a := st.SymM[c.A]
		n := p.Op(c.Out).Cols
		out := st.VecPart(c.Out, int(t.P))
		if t.First {
			zero(out)
		}
		mask := a.Sched.TransGroups[t.P]
		lo := int(t.P) * p.Block * n
		for gi := 0; gi < a.Sched.Groups; gi++ {
			if mask&(1<<uint(gi)) == 0 {
				continue
			}
			acc := st.SymAcc(int(t.Call), gi)
			src := acc[lo : lo+len(out)]
			src = src[:len(out)]
			i := 0
			for ; i+4 <= len(out); i += 4 {
				out[i] += src[i]
				out[i+1] += src[i+1]
				out[i+2] += src[i+2]
				out[i+3] += src[i+3]
			}
			for ; i < len(out); i++ {
				out[i] += src[i]
			}
		}

	case graph.TColDotPart:
		a := st.VecPart(c.A, int(t.P))
		b := st.VecPart(c.B, int(t.P))
		n := p.Op(c.A).Cols
		part := st.Partial(int(t.Call), int(t.P))
		part = part[:n]
		if n == 1 {
			// One column: one accumulator in row order, the summation order of
			// any single column of the loop below, without its row re-slicing.
			b = b[:len(a)]
			var s float64
			for i, av := range a {
				s += av * b[i]
			}
			part[0] = s
			break
		}
		zero(part)
		rows := len(a) / n
		for i := 0; i < rows; i++ {
			ar := a[i*n : i*n+n]
			br := b[i*n : i*n+n]
			for j, av := range ar {
				part[j] += av * br[j]
			}
		}

	case graph.TColDotReduce:
		out := st.Small[c.Out]
		zero(out)
		for bi := 0; bi < p.NP; bi++ {
			part := st.Partial(int(t.Call), bi)
			part = part[:len(out)]
			for i := range out {
				out[i] += part[i]
			}
		}
		if c.Sqrt {
			for i := range out {
				out[i] = math.Sqrt(out[i])
			}
		}

	case graph.TColAxpby:
		a := st.VecPart(c.A, int(t.P))
		b := st.VecPart(c.B, int(t.P))
		out := st.VecPart(c.Out, int(t.P))
		coef := st.Small[c.S]
		n := p.Op(c.Out).Cols
		be := c.Beta
		coef = coef[:n]
		if n == 1 {
			// One column: the loop below with its inner loop of one unrolled
			// away; be·coef is the same product it forms per element.
			s := be * coef[0]
			a = a[:len(out)]
			b = b[:len(out)]
			for i := range out {
				out[i] = a[i] + s*b[i]
			}
			break
		}
		rows := len(out) / n
		for i := 0; i < rows; i++ {
			row := out[i*n : i*n+n]
			ar := a[i*n : i*n+n]
			br := b[i*n : i*n+n]
			for j, cj := range coef {
				row[j] = ar[j] + be*cj*br[j]
			}
		}

	default:
		panic(fmt.Sprintf("kernels: unknown task kind %v", t.Kind))
	}
}

// fusedView carries the per-kernel fields execPart needs, matching the Task
// field names so the kernel bodies read identically.
type fusedView struct {
	Kind   graph.TaskKind
	Call   int32
	P, Q   int32
	First  bool
	FirstQ bool
}

// zero clears s; clear() compiles to a memclr, unlike an arbitrary
// assignment loop.
func zero(s []float64) {
	clear(s)
}

// RunSequential executes the whole TDG in topological (id) order on the
// calling goroutine: the reference execution every parallel runtime is
// validated against.
func RunSequential(g *graph.TDG, st *program.Store) {
	for i := range g.Tasks {
		Exec(g, &g.Tasks[i], st)
	}
}
