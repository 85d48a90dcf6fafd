package rt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/kernels"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// symTestProblem builds Y = A·X → norm → scale → Axpby over symmetric SymCSB
// storage, so repeated runs feed forward, mirroring testProblem's shape.
func symTestProblem(t *testing.T, coo *sparse.COO, block, n int, seed int64) (*graph.TDG, func() *program.Store, program.OperandID) {
	t.Helper()
	sym, err := coo.ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	m := coo.Rows
	p := program.New(m, block)
	A := p.SymSparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	nrm := p.Scalar("nrm")
	W := p.Vec("W", n)
	p.SpMMSym(Y, A, X)
	p.Norm(nrm, Y)
	p.ScaleInv(W, Y, nrm)
	p.Axpby(X, 0.5, X, 0.5, W)

	opt := graph.DefaultOptions()
	opt.Syms = map[program.OperandID]*sparse.SymCSB{A: sym}
	g, err := graph.Build(p, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	xInit := make([]float64, m*n)
	for i := range xInit {
		xInit[i] = rng.NormFloat64()
	}
	mk := func() *program.Store {
		st := program.NewStore(p)
		st.SetSymSparse(A, sym)
		copy(st.Vec[X], xInit)
		return st
	}
	return g, mk, X
}

// symTestMatrices returns a banded symmetric matrix, a few waves deep, and
// an arrowhead, whose band 0 every tile row writes in a wave of its own.
func symTestMatrices(m int, seed int64) map[string]*sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	banded := sparse.NewCOO(m, m, 0)
	for i := 0; i < m; i++ {
		banded.Append(int32(i), int32(i), 4+rng.Float64())
		if i > 0 {
			v := rng.NormFloat64()
			banded.Append(int32(i), int32(i-1), v)
			banded.Append(int32(i-1), int32(i), v)
		}
	}
	banded.Compact()
	arrow := sparse.NewCOO(m, m, 0)
	for i := 0; i < m; i++ {
		arrow.Append(int32(i), int32(i), 4+rng.Float64())
		if i > 0 {
			v := rng.NormFloat64()
			arrow.Append(int32(i), 0, v)
			arrow.Append(0, int32(i), v)
		}
	}
	arrow.Compact()
	return map[string]*sparse.COO{"banded": banded, "arrowhead": arrow}
}

// All four backends, both matrices, three worker counts, repeated
// iterations: results must be bit-identical to the sequential execution.
func TestSymBackendsBitIdentical(t *testing.T) {
	for name, coo := range symTestMatrices(96, 1) {
		for _, n := range []int{1, 4} {
			g, mk, _ := symTestProblem(t, coo, 8, n, 7)
			ref := mk()
			for it := 0; it < 3; it++ {
				kernels.RunSequential(g, ref)
			}
			for _, w := range []int{1, 2, 4} {
				for _, r := range allRuntimes(Options{Workers: w}) {
					st := mk()
					for it := 0; it < 3; it++ {
						if err := runOnce(context.Background(), r, g, st); err != nil {
							t.Fatalf("%s/%s/w%d n=%d: %v", name, r.Name(), w, n, err)
						}
					}
					storesEqual(t, fmt.Sprintf("%s/%s/w%d", name, r.Name(), w), ref, st)
				}
			}
		}
	}
}

// Symmetric storage must agree with the general CSB path to 1e-12 relative
// on the same product.
func TestSymMatchesGeneralPath(t *testing.T) {
	for name, coo := range symTestMatrices(96, 2) {
		for _, n := range []int{1, 2, 4, 8, 3} {
			m := coo.Rows
			block := 8
			sym, err := coo.ToSymCSB(block)
			if err != nil {
				t.Fatal(err)
			}
			gen := coo.ToCSB(block)
			x := make([]float64, m*n)
			rng := rand.New(rand.NewSource(int64(n)))
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			ys := make([]float64, m*n)
			yg := make([]float64, m*n)
			sym.SpMM(ys, x, n)
			gen.SpMM(yg, x, n)
			for i := range ys {
				if d := math.Abs(ys[i] - yg[i]); d > 1e-12*(1+math.Abs(yg[i])) {
					t.Fatalf("%s n=%d: sym y[%d]=%g vs general %g", name, n, i, ys[i], yg[i])
				}
			}
		}
	}
}

// Race stress for the longest WAW chain a schedule makes: many workers
// hammering the arrowhead graph, where every tile row writes band 0 in a wave
// of its own. Meaningful mainly under -race (the repo's race matrix runs this
// package).
func TestSymArrowheadChainStress(t *testing.T) {
	coo := symTestMatrices(160, 3)["arrowhead"]
	g, mk, opX := symTestProblem(t, coo, 8, 2, 11)
	ref := mk()
	init := append([]float64(nil), ref.Vec[opX]...)
	kernels.RunSequential(g, ref)
	for _, r := range allRuntimes(Options{Workers: 8}) {
		st := mk()
		pr := r.Prepare(g, st)
		for it := 0; it < 20; it++ {
			// Reset X so every run recomputes the same values into the
			// live output bands.
			copy(st.Vec[opX], init)
			if err := pr.Run(context.Background()); err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
		}
		pr.Close()
	}
}
