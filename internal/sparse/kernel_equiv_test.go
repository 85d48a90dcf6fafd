package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// Equivalence gates for the register-blocked CSB kernels: every path (the
// 4×-unrolled SpMV entry loop and the row-run engine's 8-, 4-, 3-, 2- and
// 1-column passes) must agree with a naive COO triple-loop reference to 1e-12
// relative error across asymmetric shapes, blocks larger than the matrix,
// empty tiles, and randomized fuzz shapes.

// relEq is the shared 1e-12 relative comparison.
func relEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b)) }

// cooSpMMRef computes Y = A·X (row-major, r columns) straight off the COO
// triples — no tiling, no unrolling, the plainest possible reference.
func cooSpMMRef(a *COO, x []float64, r int) []float64 {
	y := make([]float64, a.Rows*r)
	for k := range a.V {
		i, j, v := int(a.I[k]), int(a.J[k]), a.V[k]
		for c := 0; c < r; c++ {
			y[i*r+c] += v * x[j*r+c]
		}
	}
	return y
}

func checkSpMMEquiv(t *testing.T, a *COO, block, r int) {
	t.Helper()
	csb := a.ToCSB(block)
	x := make([]float64, a.Cols*r)
	rng := rand.New(rand.NewSource(int64(a.Rows*1000 + a.Cols*10 + r)))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := cooSpMMRef(a, x, r)
	got := make([]float64, a.Rows*r)
	if r == 1 {
		csb.SpMV(got, x)
		for i := range got {
			if !relEq(got[i], want[i]) {
				t.Fatalf("SpMV %dx%d block=%d: y[%d] = %g, want %g", a.Rows, a.Cols, block, i, got[i], want[i])
			}
		}
	}
	csb.SpMM(got, x, r)
	for i := range got {
		if !relEq(got[i], want[i]) {
			t.Fatalf("SpMM %dx%d block=%d r=%d: y[%d] = %g, want %g", a.Rows, a.Cols, block, r, i, got[i], want[i])
		}
	}
}

func TestCSBKernelEquivalenceAsymmetricShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ rows, cols, block int }{
		{1, 1, 1},
		{1, 40, 8},
		{40, 1, 8},
		{13, 37, 5},  // nothing divides evenly
		{37, 13, 5},  // transposed aspect
		{17, 17, 64}, // block larger than the matrix: a single edge tile
		{6, 90, 100}, // block larger than both dims, wide
		{33, 32, 32}, // one-past-a-tile edge
		{64, 48, 16}, // exact tiling
		{50, 50, 7},  // ragged edge tiles on both axes
		{128, 3, 32}, // tall and skinny
		{3, 128, 32}, // short and wide
	}
	for _, s := range shapes {
		a := randomCOO(rng, s.rows, s.cols, 0.15)
		a.Compact()
		for _, r := range []int{1, 2, 3, 4, 5, 8, 11} {
			checkSpMMEquiv(t, a, s.block, r)
		}
	}
}

func TestCSBKernelEquivalenceEmptyBlocks(t *testing.T) {
	// Block-diagonal pattern with tile size 8 on a 40x40 matrix: every
	// off-diagonal tile is structurally empty, so BlockSpMV/BlockSpMM hit
	// their lo==hi early return on most of the grid.
	a := NewCOO(40, 40, 0)
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 5; b++ {
		for k := 0; k < 12; k++ {
			i := int32(b*8 + rng.Intn(8))
			j := int32(b*8 + rng.Intn(8))
			a.Append(i, j, rng.NormFloat64())
		}
	}
	a.Compact()
	csb := a.ToCSB(8)
	if csb.NonEmptyBlocks() > 5 {
		t.Fatalf("expected a block-diagonal tiling, got %d non-empty tiles", csb.NonEmptyBlocks())
	}
	for _, r := range []int{1, 4, 8} {
		checkSpMMEquiv(t, a, 8, r)
	}

	// A matrix with no entries at all: kernels must leave y exactly zero.
	empty := NewCOO(10, 20, 0)
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	empty.ToCSB(4).SpMV(y, make([]float64, 20))
	for i, v := range y {
		if v != 0 {
			t.Fatalf("empty-matrix SpMV left y[%d] = %g, want 0", i, v)
		}
	}
}

func TestCSBKernelEquivalenceFuzzShapes(t *testing.T) {
	// Fuzz-style sweep: random shapes, tile sizes (including ones larger than
	// the matrix), densities and RHS widths, all validated against the COO
	// triple-loop reference.
	rng := rand.New(rand.NewSource(20260805))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		rows := 1 + rng.Intn(90)
		cols := 1 + rng.Intn(90)
		block := 1 + rng.Intn(max(rows, cols)+8)
		density := 0.02 + 0.3*rng.Float64()
		r := 1 + rng.Intn(10)
		a := randomCOO(rng, rows, cols, density)
		a.Compact()
		checkSpMMEquiv(t, a, block, r)
	}
}

// The block kernels accumulate (+=); two passes over the same tile must sum.
func TestBlockKernelsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCOO(rng, 24, 24, 0.3)
	a.Compact()
	csb := a.ToCSB(8)
	x := make([]float64, 24*4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	once := cooSpMMRef(a, x, 4)
	got := make([]float64, 24*4)
	for pass := 0; pass < 2; pass++ {
		for bi := 0; bi < csb.NBR; bi++ {
			for bj := 0; bj < csb.NBC; bj++ {
				csb.BlockSpMM(got, x, 4, bi, bj)
			}
		}
	}
	for i := range got {
		if !relEq(got[i], 2*once[i]) {
			t.Fatalf("two accumulation passes: y[%d] = %g, want %g", i, got[i], 2*once[i])
		}
	}
}
