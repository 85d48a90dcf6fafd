// Package graph builds and analyzes the task-dependency graph (TDG) of a
// program: the fine-grained decomposition of every high-level call into tasks
// over data partitions, with dependencies derived from partition-level
// read/write sets.
//
// This is the analog of DeepSparse's Task Dependency Graph Generator: the
// same TDG drives all runtimes, so the available degree of parallelism is
// identical across them (the premise of the paper's comparison, §5).
package graph

import (
	"fmt"
	"slices"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// TaskKind identifies the fine-grained operation a task performs.
type TaskKind uint8

const (
	// TSpMMTile computes Y[bi] (+)= A(bi,bj)·X[bj] for one CSB tile. Tasks of
	// one output row block are dependency-chained; the first in the chain
	// overwrites (First=true), the rest accumulate.
	TSpMMTile TaskKind = iota
	// TSpMMZero zeroes Y[bi] for output row blocks with no tiles.
	TSpMMZero
	// TSpMMBufTile computes buf[bj][bi·b:...] = A(bi,bj)·X[bj] into a private
	// column buffer (reduce-based variant; no chaining).
	TSpMMBufTile
	// TSpMMReduce computes Y[bi] = Σ_bj buf[bj][bi·b:...] over the non-empty
	// tiles of row block bi (reduce-based variant).
	TSpMMReduce
	// TGemm computes Out[bi] = α·A[bi]·Z + β·Out[bi] (the XY kernel).
	TGemm
	// TGemmTPart computes partial[bi] = A[bi]ᵀ·B[bi] (the XTY kernel).
	TGemmTPart
	// TGemmTReduce sums XTY partials into the small output matrix.
	TGemmTReduce
	// TAxpby computes Out[bi] = α·A[bi] + β·B[bi].
	TAxpby
	// TScaleInv computes Out[bi] = A[bi]/s for scalar s.
	TScaleInv
	// TDotPart computes partial[bi] = Σ A[bi]∘B[bi].
	TDotPart
	// TDotReduce sums dot partials into a scalar (optionally √).
	TDotReduce
	// TSmall runs an opaque sequential function over small/scalar operands.
	TSmall
	// TCopy copies A[bi] to Out[bi].
	TCopy
	// TDiagScale computes Out[bi] = D[bi]∘A[bi] row-wise (Jacobi
	// preconditioner application).
	TDiagScale
	// TTrsv performs the substitution for the rows of segment Q (of row
	// block P) of a triangular solve. Tasks of one CSpTrsv call form the
	// factor's segment DAG (sparse.BlockTri.SegDeps): one wavefront level is
	// one rank of independent tasks.
	TTrsv
	// TSymTile applies stored SymCSB tile (P,Q), Q <= P, to both output
	// bands: Y[P] (+)= T·X[Q] and, off the diagonal, Y[Q] (+)= Tᵀ·X[P]
	// (symmetric SpMV; diagonal tiles have P == Q and write one band).
	// First/FirstQ mark the first writer of each band.
	TSymTile
	// TColDotPart computes partial[bi][j] = Σ_i A[bi][i,j]·B[bi][i,j] — the
	// per-column dot partial of a batched solve.
	TColDotPart
	// TColDotReduce sums per-column dot partials into the 1×k small output
	// (optionally per-column √).
	TColDotReduce
	// TColAxpby computes Out[bi][:,j] = A[bi][:,j] + β·C[0,j]·B[bi][:,j]
	// with per-column coefficients C (batched-solver update).
	TColAxpby
)

var taskKindNames = [...]string{
	"SpMM", "SpMM0", "SpMMbuf", "SpMMred", "XY", "XTYp", "XTYr",
	"AXPBY", "SCALE", "DOTp", "DOTr", "SMALL", "COPY", "DSCALE", "TRSV",
	"SYMM", "CDOTp", "CDOTr", "CAXPBY",
}

func (k TaskKind) String() string {
	if int(k) < len(taskKindNames) {
		return taskKindNames[k]
	}
	return fmt.Sprintf("TaskKind(%d)", uint8(k))
}

// Ref identifies one contiguous data region a task touches, for the cache
// and NUMA simulators. Region is a globally unique id; Bytes its footprint.
type Ref struct {
	Region uint64
	Bytes  int64
}

// Region id spaces. Operand ids and call indices are well under 2^20 and
// partition indices under 2^40, so the packing below cannot collide.
const (
	spaceVec uint64 = iota + 1
	spaceSmall
	spaceScalar
	spaceTile
	spacePartial
	spaceSpMMBuf
	spaceScratch
	spaceTri
)

func pack(space uint64, owner int32, part int64) uint64 {
	return space<<60 | uint64(uint32(owner))<<40 | uint64(part)&((1<<40)-1)
}

// VecRegion identifies row partition part of vec operand op.
func VecRegion(op program.OperandID, part int) uint64 { return pack(spaceVec, int32(op), int64(part)) }

// SmallRegion identifies the whole of small operand op.
func SmallRegion(op program.OperandID) uint64 { return pack(spaceSmall, int32(op), 0) }

// ScalarRegion identifies scalar operand op.
func ScalarRegion(op program.OperandID) uint64 { return pack(spaceScalar, int32(op), 0) }

// TileRegion identifies CSB tile (bi,bj) of sparse operand op.
func TileRegion(op program.OperandID, bi, bj, nbc int) uint64 {
	return pack(spaceTile, int32(op), int64(bi)*int64(nbc)+int64(bj))
}

// PartialRegion identifies the partial reduction buffer of call at part.
func PartialRegion(call, part int) uint64 { return pack(spacePartial, int32(call), int64(part)) }

// SpMMBufRegion identifies row block bi of the reduce-based SpMM column
// buffer bj of call.
func SpMMBufRegion(call, bj, bi, np int) uint64 {
	return pack(spaceSpMMBuf, int32(call), int64(bj)*int64(np)+int64(bi))
}

// ScratchRegion identifies a per-core scratch buffer (e.g. the panel-packing
// workspace of BLAS-library kernels in the BSP baselines).
func ScratchRegion(core int) uint64 { return pack(spaceScratch, int32(core), 0) }

// TriRegion identifies segment s of triangular-factor operand op.
func TriRegion(op program.OperandID, s int) uint64 { return pack(spaceTri, int32(op), int64(s)) }

// Task is one schedulable unit. Deps lists predecessor task ids; Succs is
// filled in after construction. P is the output row partition (bi) and Q the
// column partition (bj) for tile tasks, the segment for TTrsv tasks, -1
// otherwise.
type Task struct {
	ID    int32
	Kind  TaskKind
	Call  int32 // index into Program.Calls
	P, Q  int32
	First bool // TSpMMTile/TSymTile: overwrite band P instead of accumulating
	// FirstQ marks symmetric tile tasks whose transposed scatter is the
	// first writer of band Q of the output: the kernel zeroes that band
	// before scattering.
	FirstQ bool
	Deps   []int32
	Succs  []int32
	Flops  int64
	Reads  []Ref
	Writes []Ref
	// Parts is non-empty for fused tasks (see Fuse): the constituent
	// per-partition kernels, executed back-to-back. Kind/Call/P describe the
	// group head.
	Parts []Part
}

// TDG is the full task-dependency graph of one program execution.
type TDG struct {
	Prog *program.Program
	Opt  Options
	// Mats holds the CSB matrices the graph was built against, so executors
	// can recover tile occupancy without re-deriving it.
	Mats map[program.OperandID]*sparse.CSB
	// Syms holds the SymCSB matrices behind OpSymSparse operands
	// (Options.Syms, kept here for the same reason as Mats).
	Syms  map[program.OperandID]*sparse.SymCSB
	Tasks []Task
	// Roots are tasks with no dependencies.
	Roots []int32
	// NumEdges counts dependency edges.
	NumEdges int
	// Unfused is the Build output a fused graph descends from (nil on a Build
	// output). Both describe the same program over the same store, so a
	// runtime may plan over either: BSP keeps its kernel-boundary barriers by
	// planning over Unfused.
	Unfused *TDG
}

// Options control TDG expansion.
type Options struct {
	// SkipEmpty omits tasks for empty CSB tiles (paper Fig. 6 optimization;
	// on by default in all experiments, toggled off for the ablation).
	SkipEmpty bool
	// Tris supplies the factor behind each OpTri operand referenced by a
	// CSpTrsv call, in the block substitution layout at the program's block
	// size (precond.Levels.Tri, computed once per matrix and cached by
	// solverd alongside the factorization); its segment dependency lists
	// (SegDeps) are the solve's TDG edges.
	Tris map[program.OperandID]*sparse.BlockTri
	// Syms supplies the SymCSB matrix behind each OpSymSparse operand
	// referenced by a CSpMMSym call; its cached SymSchedule orders the
	// tile tasks into waves. Symmetric expansion always skips
	// empty stored tiles (they contribute neither half), regardless of
	// SkipEmpty.
	Syms map[program.OperandID]*sparse.SymCSB
}

// DefaultOptions returns the configuration used by the paper's main results.
func DefaultOptions() Options { return Options{SkipEmpty: true} }

// builder tracks partition-level last-writer/readers to derive dependencies.
type builder struct {
	g       *TDG
	lastW   map[uint64]int32
	readers map[uint64][]int32
	opt     Options
	mats    map[program.OperandID]*sparse.CSB
}

// Build expands prog into a TDG. mats supplies the CSB matrix for every
// sparse operand referenced by a CSpMM call (sparsity determines which tile
// tasks exist).
func Build(prog *program.Program, mats map[program.OperandID]*sparse.CSB, opt Options) (*TDG, error) {
	b := &builder{
		g:       &TDG{Prog: prog, Opt: opt, Mats: mats, Syms: opt.Syms},
		lastW:   make(map[uint64]int32),
		readers: make(map[uint64][]int32),
		opt:     opt,
		mats:    mats,
	}
	for ci := range prog.Calls {
		if err := b.expand(int32(ci), &prog.Calls[ci]); err != nil {
			return nil, fmt.Errorf("graph: call %d (%s): %w", ci, prog.Calls[ci].Name, err)
		}
	}
	b.finish()
	return b.g, nil
}

// addTask appends a task whose reads/writes are the given region refs and
// derives its dependencies: RAW on the last writer of each read region, and
// WAW+WAR on each written region.
func (b *builder) addTask(t Task, reads, writes []Ref) int32 {
	t.Reads = reads
	t.Writes = writes
	t.Deps = b.hazards(t.Deps, reads, writes)
	id := b.push(t)
	b.commitReads(id, reads)
	b.commitWrites(id, writes)
	return id
}

// push appends t, whose dependencies are complete, and returns its id.
func (b *builder) push(t Task) int32 {
	t.ID = int32(len(b.g.Tasks))
	b.g.Tasks = append(b.g.Tasks, t)
	return t.ID
}

// hazards appends to deps, without duplicates, the tasks a task touching
// reads and writes must follow: the last writer of each region it reads or
// writes, and the readers since of each region it writes.
func (b *builder) hazards(deps []int32, reads, writes []Ref) []int32 {
	add := func(d int32) {
		if !slices.Contains(deps, d) {
			deps = append(deps, d)
		}
	}
	for _, r := range reads {
		if w, ok := b.lastW[r.Region]; ok {
			add(w)
		}
	}
	for _, w := range writes {
		if lw, ok := b.lastW[w.Region]; ok {
			add(lw) // WAW
		}
		for _, r := range b.readers[w.Region] {
			add(r) // WAR
		}
	}
	return deps
}

// commitWrites makes task id the last writer of each region and clears the
// regions' readers.
func (b *builder) commitWrites(id int32, writes []Ref) {
	for _, w := range writes {
		b.lastW[w.Region] = id
		b.readers[w.Region] = b.readers[w.Region][:0]
	}
}

// commitReads records task id as a reader of each region.
func (b *builder) commitReads(id int32, reads []Ref) {
	for _, r := range reads {
		b.readers[r.Region] = append(b.readers[r.Region], id)
	}
}

func (b *builder) finish() {
	g := b.g
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if len(t.Deps) == 0 {
			g.Roots = append(g.Roots, t.ID)
		}
		for _, d := range t.Deps {
			g.Tasks[d].Succs = append(g.Tasks[d].Succs, t.ID)
			g.NumEdges++
		}
	}
}

func (b *builder) expand(ci int32, c *program.Call) error {
	switch c.Kind {
	case program.CSpMM:
		return b.expandSpMM(ci, c)
	case program.CGemm:
		b.expandGemm(ci, c)
	case program.CGemmT:
		b.expandGemmT(ci, c)
	case program.CAxpby:
		b.expandAxpby(ci, c)
	case program.CScaleInv:
		b.expandScaleInv(ci, c)
	case program.CDot:
		b.expandDot(ci, c)
	case program.CSmall:
		b.expandSmall(ci, c)
	case program.CCopy:
		b.expandCopy(ci, c)
	case program.CDiagScale:
		b.expandDiagScale(ci, c)
	case program.CSpTrsv:
		return b.expandSpTrsv(ci, c)
	case program.CSpMMSym:
		return b.expandSpMMSym(ci, c)
	case program.CColDot:
		b.expandColDot(ci, c)
	case program.CColAxpby:
		b.expandColAxpby(ci, c)
	default:
		return fmt.Errorf("unknown call kind %v", c.Kind)
	}
	return nil
}

func (b *builder) expandSpMM(ci int32, c *program.Call) error {
	p := b.g.Prog
	a, ok := b.mats[c.A]
	if !ok {
		return fmt.Errorf("no CSB matrix attached for operand %d", c.A)
	}
	if a.NBR != p.NP || a.NBC != p.NP {
		return fmt.Errorf("CSB tiling %dx%d does not match program NP=%d", a.NBR, a.NBC, p.NP)
	}
	n := p.Op(c.Out).Cols
	if c.ReduceSpMM {
		b.expandSpMMReduce(ci, c, a, n)
		return nil
	}
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		first := true
		for bj := 0; bj < p.NP; bj++ {
			nnz := a.BlockNNZ(bi, bj)
			if nnz == 0 && b.opt.SkipEmpty {
				continue
			}
			var reads, writes []Ref
			if nnz > 0 {
				reads = []Ref{
					{TileRegion(c.A, bi, bj, a.NBC), int64(nnz) * 16}, // 8B value + 8B packed coords
					{VecRegion(c.B, bj), int64(p.PartRows(bj)) * int64(n) * 8},
				}
				writes = []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}}
				if !first {
					// Accumulating tasks also read the output partition.
					reads = append(reads, writes[0])
				}
			} else {
				// The unoptimized (no-skip) variant still spawns a task for
				// each empty tile: it touches no matrix or input data and
				// contributes nothing but scheduling overhead — exactly the
				// cost Fig. 6 measures. It keeps its output-chain write ref
				// (zero bytes unless it is the First task, which zeroes the
				// block for real) so row ordering is preserved.
				bytes := int64(0)
				if first {
					bytes = rows * int64(n) * 8
				}
				writes = []Ref{{VecRegion(c.Out, bi), bytes}}
			}
			b.addTask(Task{
				Kind: TSpMMTile, Call: ci, P: int32(bi), Q: int32(bj),
				First: first,
				Flops: 2 * int64(nnz) * int64(n),
			}, reads, writes)
			first = false
		}
		if first {
			// No tiles wrote this row block: zero it explicitly.
			b.addTask(Task{
				Kind: TSpMMZero, Call: ci, P: int32(bi), Q: -1,
				Flops: rows * int64(n),
			}, nil, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
		}
	}
	return nil
}

func (b *builder) expandSpMMReduce(ci int32, c *program.Call, a *sparse.CSB, n int) {
	p := b.g.Prog
	// Phase 1: unchained tile tasks into private column buffers.
	for bi := 0; bi < p.NP; bi++ {
		for bj := 0; bj < p.NP; bj++ {
			nnz := a.BlockNNZ(bi, bj)
			if nnz == 0 && b.opt.SkipEmpty {
				continue
			}
			rows := int64(p.PartRows(bi))
			b.addTask(Task{
				Kind: TSpMMBufTile, Call: ci, P: int32(bi), Q: int32(bj),
				Flops: 2 * int64(nnz) * int64(n),
			}, []Ref{
				{TileRegion(c.A, bi, bj, a.NBC), int64(nnz) * 16},
				{VecRegion(c.B, bj), int64(p.PartRows(bj)) * int64(n) * 8},
			}, []Ref{
				{SpMMBufRegion(int(ci), bj, bi, p.NP), rows * int64(n) * 8},
			})
		}
	}
	// Phase 2: per-row reductions over the buffers.
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		var reads []Ref
		var flops int64
		for bj := 0; bj < p.NP; bj++ {
			if a.BlockNNZ(bi, bj) == 0 && b.opt.SkipEmpty {
				continue
			}
			reads = append(reads, Ref{SpMMBufRegion(int(ci), bj, bi, p.NP), rows * int64(n) * 8})
			flops += rows * int64(n)
		}
		b.addTask(Task{
			Kind: TSpMMReduce, Call: ci, P: int32(bi), Q: -1,
			Flops: flops,
		}, reads, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

func (b *builder) expandGemm(ci int32, c *program.Call) {
	p := b.g.Prog
	k := p.Op(c.A).Cols
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		reads := []Ref{
			{VecRegion(c.A, bi), rows * int64(k) * 8},
			{SmallRegion(c.B), int64(k*n) * 8},
		}
		writes := []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}}
		if c.Beta != 0 {
			reads = append(reads, writes[0])
		}
		b.addTask(Task{
			Kind: TGemm, Call: ci, P: int32(bi), Q: -1,
			Flops: 2 * rows * int64(k) * int64(n),
		}, reads, writes)
	}
}

func (b *builder) expandGemmT(ci int32, c *program.Call) {
	p := b.g.Prog
	k := p.Op(c.A).Cols
	n := p.Op(c.B).Cols
	var parts []Ref
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		pr := Ref{PartialRegion(int(ci), bi), int64(k*n) * 8}
		parts = append(parts, pr)
		b.addTask(Task{
			Kind: TGemmTPart, Call: ci, P: int32(bi), Q: -1,
			Flops: 2 * rows * int64(k) * int64(n),
		}, []Ref{
			{VecRegion(c.A, bi), rows * int64(k) * 8},
			{VecRegion(c.B, bi), rows * int64(n) * 8},
		}, []Ref{pr})
	}
	b.addTask(Task{
		Kind: TGemmTReduce, Call: ci, P: -1, Q: -1,
		Flops: int64(p.NP) * int64(k*n),
	}, parts, []Ref{{SmallRegion(c.Out), int64(k*n) * 8}})
}

func (b *builder) expandAxpby(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TAxpby, Call: ci, P: int32(bi), Q: -1,
			Flops: 3 * rows * int64(n),
		}, []Ref{
			{VecRegion(c.A, bi), rows * int64(n) * 8},
			{VecRegion(c.B, bi), rows * int64(n) * 8},
		}, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

func (b *builder) expandScaleInv(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TScaleInv, Call: ci, P: int32(bi), Q: -1,
			Flops: rows * int64(n),
		}, []Ref{
			{VecRegion(c.A, bi), rows * int64(n) * 8},
			{ScalarRegion(c.S), 8},
		}, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

func (b *builder) expandDot(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.A).Cols
	var parts []Ref
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		pr := Ref{PartialRegion(int(ci), bi), 8}
		parts = append(parts, pr)
		reads := []Ref{{VecRegion(c.A, bi), rows * int64(n) * 8}}
		if c.B != c.A {
			reads = append(reads, Ref{VecRegion(c.B, bi), rows * int64(n) * 8})
		}
		b.addTask(Task{
			Kind: TDotPart, Call: ci, P: int32(bi), Q: -1,
			Flops: 2 * rows * int64(n),
		}, reads, []Ref{pr})
	}
	b.addTask(Task{
		Kind: TDotReduce, Call: ci, P: -1, Q: -1,
		Flops: int64(p.NP),
	}, parts, []Ref{{ScalarRegion(c.Out), 8}})
}

// expandColDot mirrors expandDot with vector-valued partials: one per-column
// partial task per row block, then a reduce into the 1×k small output.
func (b *builder) expandColDot(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.A).Cols
	var parts []Ref
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		pr := Ref{PartialRegion(int(ci), bi), int64(n) * 8}
		parts = append(parts, pr)
		reads := []Ref{{VecRegion(c.A, bi), rows * int64(n) * 8}}
		if c.B != c.A {
			reads = append(reads, Ref{VecRegion(c.B, bi), rows * int64(n) * 8})
		}
		b.addTask(Task{
			Kind: TColDotPart, Call: ci, P: int32(bi), Q: -1,
			Flops: 2 * rows * int64(n),
		}, reads, []Ref{pr})
	}
	b.addTask(Task{
		Kind: TColDotReduce, Call: ci, P: -1, Q: -1,
		Flops: int64(p.NP) * int64(n),
	}, parts, []Ref{{SmallRegion(c.Out), int64(n) * 8}})
}

func (b *builder) expandColAxpby(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TColAxpby, Call: ci, P: int32(bi), Q: -1,
			Flops: 3 * rows * int64(n),
		}, []Ref{
			{VecRegion(c.A, bi), rows * int64(n) * 8},
			{VecRegion(c.B, bi), rows * int64(n) * 8},
			{SmallRegion(c.S), int64(n) * 8},
		}, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

func (b *builder) expandSmall(ci int32, c *program.Call) {
	p := b.g.Prog
	var reads, writes []Ref
	ref := func(id program.OperandID) Ref {
		o := p.Op(id)
		if o.Kind == program.OpScalar {
			return Ref{ScalarRegion(id), 8}
		}
		return Ref{SmallRegion(id), int64(o.Rows*o.Cols) * 8}
	}
	for _, id := range c.Ins {
		reads = append(reads, ref(id))
	}
	for _, id := range c.Outs {
		writes = append(writes, ref(id))
	}
	b.addTask(Task{Kind: TSmall, Call: ci, P: -1, Q: -1, Flops: 1}, reads, writes)
}

func (b *builder) expandDiagScale(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TDiagScale, Call: ci, P: int32(bi), Q: -1,
			Flops: rows * int64(n),
		}, []Ref{
			{VecRegion(c.A, bi), rows * int64(n) * 8},
			{VecRegion(c.B, bi), rows * 8},
		}, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

// expandSpTrsv emits one TTrsv task per segment of the factor
// (sparse.BlockTri.Seg), numbered in the layout's SegOrder, each depending on
// the segments its SegDeps name: the irregular, deep-critical-path graph
// shape the level-scheduled incomplete-Cholesky literature targets, cut fine
// enough that the blocks of a grid factor pipeline.
//
// Outside the call a block's segments act as one task: the block's first
// segment follows the writer of the right-hand side's rows and the earlier
// readers and writer of the output's rows, and its last segment — which
// follows every segment of the block — is recorded as the writer of the
// output block and a reader of every block the segments read
// (BlockTri.Reads). Later readers of the output block therefore wait for the
// whole block.
func (b *builder) expandSpTrsv(ci int32, c *program.Call) error {
	p := b.g.Prog
	tri := b.opt.Tris[c.A]
	if tri == nil {
		return fmt.Errorf("no factor attached for operand %d (Options.Tris)", c.A)
	}
	if tri.Rows != p.M || tri.Block != p.Block {
		return fmt.Errorf("factor layout is %d rows in blocks of %d, program has %d in blocks of %d", tri.Rows, tri.Block, p.M, p.Block)
	}
	if tri.Upper != c.Upper {
		return fmt.Errorf("factor layout of operand %d has Upper=%v, its solve Upper=%v", c.A, tri.Upper, c.Upper)
	}
	n := int64(p.Op(c.Out).Cols)
	vec := func(op program.OperandID, s int32) Ref {
		bi := int(tri.Seg[s]) / tri.Block
		return Ref{VecRegion(op, bi), int64(tri.Seg[s+1]-tri.Seg[s]) * n * 8}
	}
	block := func(op program.OperandID, bi int) []Ref {
		return []Ref{{VecRegion(op, bi), int64(p.PartRows(bi)) * n * 8}}
	}
	task := make([]int32, len(tri.SegDeps)) // segment -> task id
	for _, s := range tri.SegOrder {
		bi := int(tri.Seg[s]) / tri.Block
		lo, hi := tri.Seg[s], tri.Seg[s+1]
		// The factor's entries in the segment: strictly-triangular ones plus
		// one diagonal per row.
		nnz := tri.Ptr[hi] - tri.Ptr[lo] + int64(hi-lo)
		deps := make([]int32, 0, len(tri.SegDeps[s])+2)
		reads := make([]Ref, 0, len(tri.SegDeps[s])+2)
		reads = append(reads, Ref{TriRegion(c.A, int(s)), nnz * 12}, vec(c.B, s)) // 8B value + 4B column index
		for _, d := range tri.SegDeps[s] {
			deps = append(deps, task[d])
			if int(tri.Seg[d])/tri.Block != bi {
				reads = append(reads, vec(c.Out, d))
			}
		}
		if s == tri.BlockSeg[bi] {
			deps = b.hazards(deps, block(c.B, bi), block(c.Out, bi))
		}
		task[s] = b.push(Task{
			Kind: TTrsv, Call: ci, P: int32(bi), Q: s,
			Flops: 2 * nnz * n,
			Deps:  deps,
			Reads: reads, Writes: []Ref{vec(c.Out, s)},
		})
	}
	// Writes first: recording a block as read must survive the commit of
	// that block's own writer.
	for bi := 0; bi < tri.NB; bi++ {
		b.commitWrites(task[tri.BlockSeg[bi+1]-1], block(c.Out, bi))
	}
	var readBlocks []int32
	for bi := 0; bi < tri.NB; bi++ {
		last := task[tri.BlockSeg[bi+1]-1]
		b.commitReads(last, block(c.B, bi))
		readBlocks = tri.Reads(readBlocks[:0], bi)
		for _, j := range readBlocks {
			b.commitReads(last, block(c.Out, int(j)))
		}
	}
	return nil
}

func (b *builder) expandCopy(ci int32, c *program.Call) {
	p := b.g.Prog
	n := p.Op(c.Out).Cols
	for bi := 0; bi < p.NP; bi++ {
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TCopy, Call: ci, P: int32(bi), Q: -1,
			Flops: rows * int64(n),
		}, []Ref{{VecRegion(c.A, bi), rows * int64(n) * 8}},
			[]Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}
