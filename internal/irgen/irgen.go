// Package irgen generates seeded random well-formed IR programs for
// differential tests: whatever a graph transformation or a runtime backend
// does, executing the program must leave the store exactly as
// kernels.RunSequential on graph.Build's output leaves it. The correctness of
// a task-parallel execution rests on the dependency structure, not on the
// matrices tried, so the generator varies the structure: every call kind of
// the IR, operands that alias and operands that do not, reductions feeding
// scalings feeding reductions, index-launch marks, and all three matrix
// operand kinds (general tiles, symmetric storage in both of its schedules,
// triangular factors).
package irgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// Case is one generated program with everything needed to expand and run it.
type Case struct {
	Prog *program.Program
	// Mats and Opt are graph.Build's remaining arguments.
	Mats map[program.OperandID]*sparse.CSB
	Opt  graph.Options

	sym  map[program.OperandID]*sparse.SymCSB
	tri  map[program.OperandID]*sparse.BlockTri
	vecs map[program.OperandID][]float64 // initial contents, vec and small alike
	scal map[program.OperandID]float64
}

// Build expands the program into its unfused task graph.
func (c *Case) Build() (*graph.TDG, error) { return graph.Build(c.Prog, c.Mats, c.Opt) }

// NewStore returns a fresh store holding the case's initial operand values;
// every call returns identical contents.
func (c *Case) NewStore() *program.Store {
	st := program.NewStore(c.Prog)
	for id, a := range c.Mats {
		st.SetSparse(id, a)
	}
	for id, a := range c.sym {
		st.SetSymSparse(id, a)
	}
	for id, a := range c.tri {
		st.SetBlockTri(id, a)
	}
	for id, v := range c.vecs {
		if c.Prog.Op(id).Kind == program.OpVec {
			copy(st.Vec[id], v)
		} else {
			copy(st.Small[id], v)
		}
	}
	for id, v := range c.scal {
		st.Scalars[id] = v
	}
	return st
}

// SameBits reports the first operand element on which two stores of one
// program differ, comparing bit patterns (a NaN equals itself), or "".
func SameBits(a, b *program.Store) string {
	for id := range a.Vec {
		for i := range a.Vec[id] {
			if math.Float64bits(a.Vec[id][i]) != math.Float64bits(b.Vec[id][i]) {
				return fmt.Sprintf("vec %s[%d]: %v != %v", a.P.Op(program.OperandID(id)).Name, i, a.Vec[id][i], b.Vec[id][i])
			}
		}
		for i := range a.Small[id] {
			if math.Float64bits(a.Small[id][i]) != math.Float64bits(b.Small[id][i]) {
				return fmt.Sprintf("small %s[%d]: %v != %v", a.P.Op(program.OperandID(id)).Name, i, a.Small[id][i], b.Small[id][i])
			}
		}
		if math.Float64bits(a.Scalars[id]) != math.Float64bits(b.Scalars[id]) {
			return fmt.Sprintf("scalar %s: %v != %v", a.P.Op(program.OperandID(id)).Name, a.Scalars[id], b.Scalars[id])
		}
	}
	return ""
}

// Random generates the case of the given seed: 24–96 rows in 2–16
// partitions, vectors 1–3 columns wide, 6–16 calls.
func Random(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	block := 5 + rng.Intn(13)
	m := block*(2+rng.Intn(8)) + rng.Intn(block) // a ragged last partition more often than not
	n := 1 + rng.Intn(3)
	coo := RandomSPD(rng, m, rng.Intn(2) == 0)

	p := program.New(m, block)
	c := &Case{
		Prog: p,
		Mats: map[program.OperandID]*sparse.CSB{},
		Opt:  graph.DefaultOptions(),
		sym:  map[program.OperandID]*sparse.SymCSB{},
		tri:  map[program.OperandID]*sparse.BlockTri{},
		vecs: map[program.OperandID][]float64{},
		scal: map[program.OperandID]float64{},
	}
	c.Opt.Syms = c.sym
	c.Opt.Tris = c.tri

	opA := p.Sparse("A")
	c.Mats[opA] = coo.ToCSB(block)
	opS := program.OperandID(-1)
	if s, err := coo.ToSymCSB(block); err == nil {
		opS = p.SymSparse("S")
		c.sym[opS] = s
	}
	opL, opU := program.OperandID(-1), program.OperandID(-1)
	if ic, err := precond.Factorize(coo.ToCSR()); err == nil && ic.Kind == precond.KindIC0 {
		low, up := precond.AnalyzeLower(ic.L, block), precond.AnalyzeUpper(ic.U, block)
		if err := errors.Join(low.Err, up.Err); err != nil {
			panic(fmt.Sprintf("irgen: IC(0) factors refused: %v", err))
		}
		opL, opU = p.Tri("L"), p.Tri("U")
		c.tri[opL], c.tri[opU] = low.Tri, up.Tri
	}

	fill := func(id program.OperandID, len int) {
		v := make([]float64, len)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		c.vecs[id] = v
	}
	var vecs, scalars []program.OperandID
	for i := 0; i < 4+rng.Intn(3); i++ {
		id := p.Vec(fmt.Sprintf("v%d", i), n)
		fill(id, m*n)
		vecs = append(vecs, id)
	}
	opD := p.Vec("d", 1)
	fill(opD, m)
	opZ, opG := p.Small("Z", n, n), p.Small("G", n, n)
	fill(opZ, n*n)
	fill(opG, n*n)
	opC := p.Small("c", 1, n)
	fill(opC, n)
	for i := 0; i < 3; i++ {
		id := p.Scalar(fmt.Sprintf("s%d", i))
		c.scal[id] = 0.5 + rng.Float64()
		scalars = append(scalars, id)
	}

	vec := func() program.OperandID { return vecs[rng.Intn(len(vecs))] }
	other := func(not program.OperandID) program.OperandID {
		for {
			if v := vec(); v != not {
				return v
			}
		}
	}
	scalar := func() program.OperandID { return scalars[rng.Intn(len(scalars))] }
	coef := func() float64 { return float64(rng.Intn(7)-3) * 0.5 }

	for calls := 6 + rng.Intn(11); len(p.Calls) < calls; {
		before := len(p.Calls)
		switch rng.Intn(16) {
		case 0:
			x := vec()
			p.SpMM(other(x), opA, x)
		case 1:
			if opS >= 0 {
				x := vec()
				p.SpMMSym(other(x), opS, x)
			}
		case 2:
			a := vec()
			p.Gemm(other(a), coef(), a, []program.OperandID{opZ, opG}[rng.Intn(2)], coef())
		case 3:
			p.GemmT(opG, vec(), vec())
		case 4:
			p.Dot(scalar(), vec(), vec())
		case 5:
			p.Norm(scalar(), vec())
		case 6, 7:
			p.Axpby(vec(), coef(), vec(), coef(), vec())
		case 8:
			p.ScaleInv(vec(), vec(), scalar())
		case 9:
			p.DiagScale(vec(), opD, vec())
		case 10:
			p.Copy(vec(), vec())
		case 11:
			// A small step in the solvers' style: scalars in, scalar out.
			a, b, out := scalar(), scalar(), scalar()
			p.SmallStep("mix", func(st *program.Store) {
				st.Scalars[out] = 0.5*st.Scalars[a] - 0.25*st.Scalars[b] + 1
			}, []program.OperandID{a, b}, []program.OperandID{out})
		case 12:
			// And one that turns a reduction's small output into the next
			// Gemm's coefficient block.
			p.SmallStep("damp", func(st *program.Store) {
				for i, v := range st.Small[opG] {
					st.Small[opZ][i] = 0.5*st.Small[opZ][i] + 0.125*v
				}
			}, []program.OperandID{opG, opZ}, []program.OperandID{opZ})
		case 13:
			if opL >= 0 {
				b := vec()
				if rng.Intn(2) == 0 {
					p.SpTrsvLower(other(b), opL, b)
				} else {
					p.SpTrsvUpper(other(b), opU, b)
				}
			}
		case 14:
			if rng.Intn(2) == 0 {
				p.ColDot(opC, vec(), vec())
			} else {
				p.ColNorm(opC, vec())
			}
		case 15:
			p.ColAxpby(vec(), vec(), opC, coef(), vec())
		}
		if len(p.Calls) > before && rng.Intn(4) == 0 {
			p.MarkIndexLaunch()
		}
	}
	return c
}

// RandomSPD returns a strictly diagonally dominant symmetric matrix, so IC(0)
// always succeeds. banded keeps the off-diagonals near the diagonal (the
// symmetric storage's wave schedule); otherwise a few dense rows are added
// (its accumulator fallback).
func RandomSPD(rng *rand.Rand, m int, banded bool) *sparse.COO {
	coo := sparse.NewCOO(m, m, 8*m)
	sum := make([]float64, m)
	add := func(i, j int) {
		if i == j {
			return
		}
		v := rng.NormFloat64() * 0.5
		coo.Append(int32(i), int32(j), v)
		coo.Append(int32(j), int32(i), v)
		sum[i] += math.Abs(v)
		sum[j] += math.Abs(v)
	}
	for i := 0; i < m; i++ {
		for k := 0; k < 2; k++ {
			if banded {
				add(i, max(0, i-1-rng.Intn(6)))
			} else {
				add(i, rng.Intn(m))
			}
		}
	}
	if !banded {
		for k := 0; k < 2; k++ {
			hub := rng.Intn(m)
			for j := 0; j < m; j += 1 + rng.Intn(3) {
				add(hub, j)
			}
		}
	}
	// Duplicate (i,j) draws merge by summation in Compact; dominance holds
	// because |a+b| <= |a|+|b|.
	for i := 0; i < m; i++ {
		coo.Append(int32(i), int32(i), 1+sum[i])
	}
	coo.Compact()
	return coo
}
