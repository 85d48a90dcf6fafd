// Package program defines the solver-agnostic intermediate representation the
// task runtimes execute: a sequence of BLAS/GraphBLAS-like *calls* over named
// operands that are block-partitioned by a common block size.
//
// This mirrors the DeepSparse Primitive Conversion Unit: a solver is written
// as high-level calls (SpMM, XY, XTY, AXPBY, small dense ops, reductions) and
// the task-dependency-graph generator (package graph) decomposes each call
// into fine-grained tasks over the partitions, deriving dependencies from the
// partition-level read/write sets. The same program is executed by every
// runtime under comparison, so all frameworks see the identical DAG — the
// property the paper's methodology depends on.
package program

import "fmt"

// OperandID names an operand within a Program.
type OperandID int32

// OpKind classifies an operand's storage.
type OpKind uint8

const (
	// OpSparse is the sparse input matrix, stored as CSB and partitioned
	// into 2D tiles by the program block size.
	OpSparse OpKind = iota
	// OpVec is a dense m×n block of vectors, 1D-partitioned into row blocks
	// of the program block size. n is small (1 for Lanczos, 8–48 for LOBPCG).
	OpVec
	// OpSmall is a small dense matrix (at most a few hundred elements) that
	// every task sees as a single partition: the Z and P matrices of the
	// paper's XY and XTY kernels.
	OpSmall
	// OpScalar is a single float64 (norms, dot products, shifts).
	OpScalar
	// OpTri is a triangular factor stored as CSR (the L or U = Lᵀ of an
	// incomplete Cholesky), 1D-partitioned into row blocks like OpVec. It is
	// read-only to programs: only CSpTrsv consumes it.
	OpTri
	// OpSymSparse is a symmetric sparse input matrix stored as SymCSB (lower
	// triangle + diagonal tiles only); only CSpMMSym consumes it.
	OpSymSparse
)

func (k OpKind) String() string {
	switch k {
	case OpSparse:
		return "sparse"
	case OpVec:
		return "vec"
	case OpSmall:
		return "small"
	case OpScalar:
		return "scalar"
	case OpTri:
		return "tri"
	case OpSymSparse:
		return "symsparse"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Operand is a named, typed, partitioned datum.
type Operand struct {
	ID         OperandID
	Name       string
	Kind       OpKind
	Rows, Cols int
}

// CallKind classifies a program call. Each kind expands into a specific task
// pattern (see package graph).
type CallKind uint8

const (
	// CSpMM: Out += A·B where A is OpSparse and B, Out are OpVec. Expands to
	// one task per non-empty CSB tile, dependency-chained along each output
	// row block (the paper's dependency-based approach), or to buffered
	// tasks plus a reduction when the program requests the reduce-based
	// ablation variant.
	CSpMM CallKind = iota
	// CGemm: Out = alpha·A·B + beta·Out, A is OpVec (m×k), B is OpSmall
	// (k×n), Out is OpVec (m×n). One task per row block: the XY kernel.
	CGemm
	// CGemmT: Out = Aᵀ·B, A and B OpVec, Out OpSmall. One partial task per
	// row block plus one reduce task: the XTY (inner product) kernel.
	CGemmT
	// CAxpby: Out = alpha·A + beta·B elementwise over OpVec operands.
	// One task per row block.
	CAxpby
	// CScaleInv: Out = A / scalar(S). One task per row block, each depending
	// on the task that produced S.
	CScaleInv
	// CDot: scalar Out = Σ A∘B. One partial task per row block plus a
	// scalar reduce task; with Sqrt set it computes a 2-norm.
	CDot
	// CSmall: an opaque sequential function over small/scalar operands
	// (Rayleigh–Ritz solve, Cholesky, convergence bookkeeping). Exactly one
	// task; reads Ins, writes Outs.
	CSmall
	// CCopy: Out = A per row block (OpVec) or whole (OpSmall).
	CCopy
	// CDiagScale: Out[i,:] = D[i]·A[i,:] where D is a single-column vec
	// (e.g. the inverse diagonal of the matrix): the Jacobi preconditioner
	// application kernel. One task per row block.
	CDiagScale
	// CSpTrsv: solve the triangular system A·Out = B where A is OpTri and
	// B, Out are equal-width vecs (each of the k columns is solved against
	// its own right-hand side): forward substitution when Upper is false,
	// backward when true. Expands into one task per row block whose
	// dependencies follow the factor's level structure — the irregular DAG
	// the level-scheduled incomplete-Cholesky literature targets.
	CSpTrsv
	// CSpMMSym: Out = A·B where A is OpSymSparse and B, Out are OpVec. Each
	// stored tile task writes row band bi directly and band bj through the
	// transposed scatter; expansion resolves the write conflict with the
	// matrix's cached SymSchedule (conflict-free waves).
	CSpMMSym
	// CColDot: Out[0,j] = Σ_i A[i,j]·B[i,j] — a per-column dot product over
	// equal-width vecs, written into a 1×k OpSmall. One partial task per row
	// block plus one reduce task, like CDot but vector-valued: the reduction
	// kernel of batched multi-RHS solvers, where each right-hand side needs
	// its own scalar. With Sqrt set each column stores its 2-norm.
	CColDot
	// CColAxpby: Out[:,j] = A[:,j] + Beta·C[0,j]·B[:,j] where C is a 1×k
	// OpSmall of per-column coefficients: the batched-solver update kernel
	// (x += alpha∘p, r -= alpha∘q, p = r + beta∘p). One task per row block.
	CColAxpby
)

func (k CallKind) String() string {
	switch k {
	case CSpMM:
		return "SpMM"
	case CGemm:
		return "XY"
	case CGemmT:
		return "XTY"
	case CAxpby:
		return "AXPBY"
	case CScaleInv:
		return "SCALE"
	case CDot:
		return "DOT"
	case CSmall:
		return "SMALL"
	case CCopy:
		return "COPY"
	case CDiagScale:
		return "DSCALE"
	case CSpTrsv:
		return "TRSV"
	case CSpMMSym:
		return "SpMMsym"
	case CColDot:
		return "CDOT"
	case CColAxpby:
		return "CAXPBY"
	}
	return fmt.Sprintf("CallKind(%d)", uint8(k))
}

// SmallFn is the body of a CSmall call. It runs sequentially inside one task
// with exclusive access to the store (guaranteed by its dependencies).
type SmallFn func(st *Store)

// Call is one high-level operation of a program.
type Call struct {
	Kind        CallKind
	Name        string
	Out         OperandID
	A, B        OperandID
	S           OperandID // scalar input of CScaleInv; 1×k coefficient small of CColAxpby
	Alpha, Beta float64
	Sqrt        bool // CDot: store sqrt of the accumulated sum
	Upper       bool // CSpTrsv: backward (upper-triangular) substitution
	Fn          SmallFn
	Ins         []OperandID // CSmall extra inputs
	Outs        []OperandID // CSmall extra outputs (Out is Outs[0] by convention)
	// IndexLaunch marks the call as a provably non-interfering loop of
	// tasks; the Regent-style runtime uses it to skip per-task dependence
	// analysis (the paper's __demand(__index_launch)).
	IndexLaunch bool
	// ReduceSpMM selects the buffer-plus-reduction variant of CSpMM: every
	// tile task writes a private column buffer and per-row reduce tasks sum
	// them, instead of dependency-chaining tile tasks along output rows.
	// This is the ablation of paper Fig. 7, which the dependency-based
	// approach wins.
	ReduceSpMM bool
}

// Program is a partitioned operand space plus an ordered list of calls.
type Program struct {
	M     int // global row dimension shared by OpSparse/OpVec operands
	Block int // partition block size b
	NP    int // number of row partitions: ceil(M/Block)
	Ops   []Operand
	Calls []Call
}

// New creates a program over an m-row space partitioned into blocks of b
// rows. Panics if the dimensions are non-positive.
func New(m, b int) *Program {
	if m <= 0 || b <= 0 {
		panic(fmt.Sprintf("program: New(%d, %d): dimensions must be positive", m, b))
	}
	return &Program{M: m, Block: b, NP: (m + b - 1) / b}
}

func (p *Program) addOp(name string, kind OpKind, rows, cols int) OperandID {
	id := OperandID(len(p.Ops))
	p.Ops = append(p.Ops, Operand{ID: id, Name: name, Kind: kind, Rows: rows, Cols: cols})
	return id
}

// Sparse declares the sparse matrix operand (square, M×M).
func (p *Program) Sparse(name string) OperandID {
	return p.addOp(name, OpSparse, p.M, p.M)
}

// Vec declares an M×n block-of-vectors operand.
func (p *Program) Vec(name string, n int) OperandID {
	if n <= 0 {
		panic("program: Vec width must be positive")
	}
	return p.addOp(name, OpVec, p.M, n)
}

// Tri declares a triangular-factor operand (square, M×M, CSR-backed).
func (p *Program) Tri(name string) OperandID {
	return p.addOp(name, OpTri, p.M, p.M)
}

// SymSparse declares a symmetric sparse matrix operand (square, M×M,
// SymCSB-backed).
func (p *Program) SymSparse(name string) OperandID {
	return p.addOp(name, OpSymSparse, p.M, p.M)
}

// Small declares an r×c small dense operand.
func (p *Program) Small(name string, r, c int) OperandID {
	return p.addOp(name, OpSmall, r, c)
}

// Scalar declares a scalar operand.
func (p *Program) Scalar(name string) OperandID {
	return p.addOp(name, OpScalar, 1, 1)
}

// Op returns the operand descriptor.
func (p *Program) Op(id OperandID) Operand { return p.Ops[id] }

// PartRows returns the number of rows in row partition part.
func (p *Program) PartRows(part int) int {
	lo := part * p.Block
	hi := lo + p.Block
	if hi > p.M {
		hi = p.M
	}
	if lo >= hi {
		return 0
	}
	return hi - lo
}

func (p *Program) check(id OperandID, want OpKind, ctx string) Operand {
	if int(id) < 0 || int(id) >= len(p.Ops) {
		panic(fmt.Sprintf("program: %s: operand %d undeclared", ctx, id))
	}
	o := p.Ops[id]
	if o.Kind != want {
		panic(fmt.Sprintf("program: %s: operand %s is %s, want %s", ctx, o.Name, o.Kind, want))
	}
	return o
}

// SpMM appends Out = A·X (A sparse, X/Out vec with equal widths).
func (p *Program) SpMM(out, a, x OperandID) *Program {
	oa := p.check(a, OpSparse, "SpMM")
	ox := p.check(x, OpVec, "SpMM")
	oo := p.check(out, OpVec, "SpMM")
	if ox.Cols != oo.Cols {
		panic(fmt.Sprintf("program: SpMM width mismatch: %s has %d cols, %s has %d", ox.Name, ox.Cols, oo.Name, oo.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CSpMM, Name: "SpMM", Out: out, A: a, B: x, Alpha: 1})
	_ = oa
	return p
}

// SpMMReduceBased appends Out = A·X using the buffer-plus-reduction task
// pattern instead of dependency chaining (the losing side of the paper's
// Fig. 7 ablation). Memory cost is NP column buffers of the full output size.
func (p *Program) SpMMReduceBased(out, a, x OperandID) *Program {
	p.SpMM(out, a, x)
	p.Calls[len(p.Calls)-1].ReduceSpMM = true
	p.Calls[len(p.Calls)-1].Name = "SpMM-red"
	return p
}

// SpMMSym appends Out = A·X where A is a symmetric sparse operand and
// X/Out are vecs with equal widths. Expansion consumes the SymCSB attached
// via graph.Options.Syms; its cached schedule orders the tile tasks into
// waves.
func (p *Program) SpMMSym(out, a, x OperandID) *Program {
	p.check(a, OpSymSparse, "SpMMSym")
	ox := p.check(x, OpVec, "SpMMSym")
	oo := p.check(out, OpVec, "SpMMSym")
	if ox.Cols != oo.Cols {
		panic(fmt.Sprintf("program: SpMMSym width mismatch: %s has %d cols, %s has %d", ox.Name, ox.Cols, oo.Name, oo.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CSpMMSym, Name: "SpMMsym", Out: out, A: a, B: x, Alpha: 1})
	return p
}

// Gemm appends Out = alpha·A·Z + beta·Out (the XY kernel); A, Out are vecs,
// Z small with Z.Rows == A.Cols and Z.Cols == Out.Cols.
func (p *Program) Gemm(out OperandID, alpha float64, a, z OperandID, beta float64) *Program {
	oa := p.check(a, OpVec, "Gemm")
	oz := p.check(z, OpSmall, "Gemm")
	oo := p.check(out, OpVec, "Gemm")
	if oz.Rows != oa.Cols || oz.Cols != oo.Cols {
		panic(fmt.Sprintf("program: Gemm shape mismatch: %s is %dx%d, %s is %dx%d, %s is %dx%d",
			oa.Name, oa.Rows, oa.Cols, oz.Name, oz.Rows, oz.Cols, oo.Name, oo.Rows, oo.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CGemm, Name: "XY", Out: out, A: a, B: z, Alpha: alpha, Beta: beta})
	return p
}

// GemmT appends Out = Aᵀ·B (the XTY kernel); A, B vecs, Out small
// (A.Cols × B.Cols).
func (p *Program) GemmT(out, a, b OperandID) *Program {
	oa := p.check(a, OpVec, "GemmT")
	ob := p.check(b, OpVec, "GemmT")
	oo := p.check(out, OpSmall, "GemmT")
	if oo.Rows != oa.Cols || oo.Cols != ob.Cols {
		panic(fmt.Sprintf("program: GemmT shape mismatch: %s is %dx%d for %sᵀ·%s (%dx%d)",
			oo.Name, oo.Rows, oo.Cols, oa.Name, ob.Name, oa.Cols, ob.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CGemmT, Name: "XTY", Out: out, A: a, B: b, Alpha: 1})
	return p
}

// Axpby appends Out = alpha·A + beta·B over vec operands of equal shape.
func (p *Program) Axpby(out OperandID, alpha float64, a OperandID, beta float64, b OperandID) *Program {
	oa := p.check(a, OpVec, "Axpby")
	ob := p.check(b, OpVec, "Axpby")
	oo := p.check(out, OpVec, "Axpby")
	if oa.Cols != ob.Cols || oa.Cols != oo.Cols {
		panic("program: Axpby width mismatch")
	}
	p.Calls = append(p.Calls, Call{Kind: CAxpby, Name: "AXPBY", Out: out, A: a, B: b, Alpha: alpha, Beta: beta})
	return p
}

// ScaleInv appends Out = A / s where s is a scalar operand.
func (p *Program) ScaleInv(out, a, s OperandID) *Program {
	p.check(a, OpVec, "ScaleInv")
	p.check(out, OpVec, "ScaleInv")
	p.check(s, OpScalar, "ScaleInv")
	p.Calls = append(p.Calls, Call{Kind: CScaleInv, Name: "SCALE", Out: out, A: a, S: s})
	return p
}

// Dot appends scalar Out = Σ A∘B.
func (p *Program) Dot(out, a, b OperandID) *Program {
	p.check(a, OpVec, "Dot")
	p.check(b, OpVec, "Dot")
	p.check(out, OpScalar, "Dot")
	p.Calls = append(p.Calls, Call{Kind: CDot, Name: "DOT", Out: out, A: a, B: b})
	return p
}

// Norm appends scalar Out = ||A||₂ (a Dot with a final square root).
func (p *Program) Norm(out, a OperandID) *Program {
	p.check(a, OpVec, "Norm")
	p.check(out, OpScalar, "Norm")
	p.Calls = append(p.Calls, Call{Kind: CDot, Name: "NORM", Out: out, A: a, B: a, Sqrt: true})
	return p
}

// ColDot appends Out[0,j] = Σ_i A[i,j]·B[i,j]: a per-column dot product over
// vec operands of equal shape, written into a 1×k small operand.
func (p *Program) ColDot(out, a, b OperandID) *Program {
	oa := p.check(a, OpVec, "ColDot")
	ob := p.check(b, OpVec, "ColDot")
	oo := p.check(out, OpSmall, "ColDot")
	if oa.Cols != ob.Cols {
		panic(fmt.Sprintf("program: ColDot width mismatch: %s has %d cols, %s has %d", oa.Name, oa.Cols, ob.Name, ob.Cols))
	}
	if oo.Rows != 1 || oo.Cols != oa.Cols {
		panic(fmt.Sprintf("program: ColDot output %s is %dx%d, want 1x%d", oo.Name, oo.Rows, oo.Cols, oa.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CColDot, Name: "CDOT", Out: out, A: a, B: b})
	return p
}

// ColNorm appends Out[0,j] = ||A[:,j]||₂ (a ColDot with per-column square
// roots).
func (p *Program) ColNorm(out, a OperandID) *Program {
	oa := p.check(a, OpVec, "ColNorm")
	oo := p.check(out, OpSmall, "ColNorm")
	if oo.Rows != 1 || oo.Cols != oa.Cols {
		panic(fmt.Sprintf("program: ColNorm output %s is %dx%d, want 1x%d", oo.Name, oo.Rows, oo.Cols, oa.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CColDot, Name: "CNORM", Out: out, A: a, B: a, Sqrt: true})
	return p
}

// ColAxpby appends Out[:,j] = A[:,j] + beta·C[0,j]·B[:,j] where coef is a 1×k
// small operand of per-column coefficients: the batched-solver update kernel.
// A column whose coefficient is zero passes A through unchanged, which is how
// batched solvers freeze retired (converged) columns.
func (p *Program) ColAxpby(out, a, coef OperandID, beta float64, b OperandID) *Program {
	oa := p.check(a, OpVec, "ColAxpby")
	ob := p.check(b, OpVec, "ColAxpby")
	oo := p.check(out, OpVec, "ColAxpby")
	oc := p.check(coef, OpSmall, "ColAxpby")
	if oa.Cols != ob.Cols || oa.Cols != oo.Cols {
		panic("program: ColAxpby width mismatch")
	}
	if oc.Rows != 1 || oc.Cols != oa.Cols {
		panic(fmt.Sprintf("program: ColAxpby coefficient %s is %dx%d, want 1x%d", oc.Name, oc.Rows, oc.Cols, oa.Cols))
	}
	p.Calls = append(p.Calls, Call{Kind: CColAxpby, Name: "CAXPBY", Out: out, A: a, B: b, S: coef, Beta: beta})
	return p
}

// SmallStep appends a sequential task running fn, reading ins and writing
// outs. ins/outs must be OpSmall or OpScalar operands; block data does not
// belong in a small step.
func (p *Program) SmallStep(name string, fn SmallFn, ins, outs []OperandID) *Program {
	for _, id := range append(append([]OperandID{}, ins...), outs...) {
		o := p.Ops[id]
		if o.Kind != OpSmall && o.Kind != OpScalar {
			panic(fmt.Sprintf("program: SmallStep %s: operand %s is %s; small steps may only touch small/scalar operands", name, o.Name, o.Kind))
		}
	}
	if len(outs) == 0 {
		panic("program: SmallStep needs at least one output")
	}
	p.Calls = append(p.Calls, Call{Kind: CSmall, Name: name, Fn: fn, Ins: ins, Outs: outs, Out: outs[0]})
	return p
}

// Copy appends Out = A for two vec operands of equal shape.
func (p *Program) Copy(out, a OperandID) *Program {
	oa := p.check(a, OpVec, "Copy")
	oo := p.check(out, OpVec, "Copy")
	if oa.Cols != oo.Cols {
		panic("program: Copy width mismatch")
	}
	p.Calls = append(p.Calls, Call{Kind: CCopy, Name: "COPY", Out: out, A: a})
	return p
}

// DiagScale appends Out[i,:] = D[i]·A[i,:], the Jacobi preconditioner
// application: D is a width-1 vec holding per-row scale factors.
func (p *Program) DiagScale(out, d, a OperandID) *Program {
	od := p.check(d, OpVec, "DiagScale")
	oa := p.check(a, OpVec, "DiagScale")
	oo := p.check(out, OpVec, "DiagScale")
	if od.Cols != 1 {
		panic("program: DiagScale D must have width 1")
	}
	if oa.Cols != oo.Cols {
		panic("program: DiagScale width mismatch")
	}
	p.Calls = append(p.Calls, Call{Kind: CDiagScale, Name: "DSCALE", Out: out, A: a, B: d})
	return p
}

// SpTrsvLower appends a forward substitution solving L·Out = B, where l is
// an OpTri lower factor and B, Out are vecs of equal width.
func (p *Program) SpTrsvLower(out, l, b OperandID) *Program {
	return p.spTrsv(out, l, b, false)
}

// SpTrsvUpper appends a backward substitution solving U·Out = B, where u is
// an OpTri upper factor and B, Out are vecs of equal width.
func (p *Program) SpTrsvUpper(out, u, b OperandID) *Program {
	return p.spTrsv(out, u, b, true)
}

func (p *Program) spTrsv(out, tri, b OperandID, upper bool) *Program {
	p.check(tri, OpTri, "SpTrsv")
	ob := p.check(b, OpVec, "SpTrsv")
	oo := p.check(out, OpVec, "SpTrsv")
	if ob.Cols != oo.Cols {
		panic("program: SpTrsv width mismatch")
	}
	if out == b {
		panic("program: SpTrsv output must not alias its right-hand side")
	}
	p.Calls = append(p.Calls, Call{Kind: CSpTrsv, Name: "TRSV", Out: out, A: tri, B: b, Upper: upper})
	return p
}

// MarkIndexLaunch flags the most recently appended call as an index launch.
func (p *Program) MarkIndexLaunch() *Program {
	if len(p.Calls) == 0 {
		panic("program: MarkIndexLaunch with no calls")
	}
	p.Calls[len(p.Calls)-1].IndexLaunch = true
	return p
}
