package sparse

import "fmt"

// CSB is a compressed-sparse-blocks matrix (Buluç et al., SPAA 2009): the
// matrix is tiled into Block×Block tiles and all entries of one tile are
// stored contiguously with tile-local coordinates. The task decomposition of
// every runtime in this repository is defined on CSB tiles: one SpMV/SpMM
// task per non-empty tile.
//
// Entries within a tile are kept in (local row, local col) order, which keeps
// the per-tile kernel streaming through x with good locality.
type CSB struct {
	Rows, Cols int
	Block      int     // tile edge length b
	NBR, NBC   int     // number of tile rows / tile cols: ceil(Rows/b), ceil(Cols/b)
	BlkPtr     []int64 // len NBR*NBC+1; offsets into RI/CI/V, tiles in row-major order
	RI, CI     []int32 // tile-local coordinates, each in [0, Block)
	V          []float64
}

// NNZ returns the number of stored entries.
func (a *CSB) NNZ() int { return len(a.V) }

// BlockIndex returns the flat tile index for tile row bi and tile col bj.
func (a *CSB) BlockIndex(bi, bj int) int { return bi*a.NBC + bj }

// BlockNNZ returns the number of nonzeros in tile (bi, bj).
func (a *CSB) BlockNNZ(bi, bj int) int {
	k := a.BlockIndex(bi, bj)
	return int(a.BlkPtr[k+1] - a.BlkPtr[k])
}

// NonEmptyBlocks returns how many tiles contain at least one nonzero. The
// empty-task-skipping optimization (paper Fig. 6) spawns tasks only for
// these.
func (a *CSB) NonEmptyBlocks() int {
	n := 0
	for k := 0; k < a.NBR*a.NBC; k++ {
		if a.BlkPtr[k+1] > a.BlkPtr[k] {
			n++
		}
	}
	return n
}

// BlockDim returns the actual edge lengths (rows, cols) of tile (bi, bj);
// edge tiles may be smaller than Block.
func (a *CSB) BlockDim(bi, bj int) (int, int) {
	r := a.Block
	if (bi+1)*a.Block > a.Rows {
		r = a.Rows - bi*a.Block
	}
	c := a.Block
	if (bj+1)*a.Block > a.Cols {
		c = a.Cols - bj*a.Block
	}
	return r, c
}

// TileSkeleton returns the tiling of the matrix at the given tile size with
// no entries in it: dimensions and BlkPtr as ToCSB would compute them, and
// nil RI, CI and V. That is everything tile occupancy (BlockNNZ,
// NonEmptyBlocks) and task-graph expansion read, for the price of one
// counting pass; the kernels cannot run on it. The COO input is compacted
// first. Panics if block <= 0.
func (a *COO) TileSkeleton(block int) *CSB {
	if block <= 0 {
		panic("sparse: tiling requires block > 0")
	}
	a.Compact()
	nbr := (a.Rows + block - 1) / block
	nbc := (a.Cols + block - 1) / block
	c := &CSB{
		Rows: a.Rows, Cols: a.Cols,
		Block: block, NBR: nbr, NBC: nbc,
		BlkPtr: make([]int64, nbr*nbc+1),
	}
	for k := range a.V {
		bi := int(a.I[k]) / block
		bj := int(a.J[k]) / block
		c.BlkPtr[bi*nbc+bj+1]++
	}
	for k := 0; k < nbr*nbc; k++ {
		c.BlkPtr[k+1] += c.BlkPtr[k]
	}
	return c
}

// ToCSB converts a COO matrix to CSB with the given tile size. The COO input
// is compacted first. Panics if block <= 0.
func (a *COO) ToCSB(block int) *CSB {
	c := a.TileSkeleton(block)
	nbc := c.NBC
	c.RI = make([]int32, len(a.V))
	c.CI = make([]int32, len(a.V))
	c.V = make([]float64, len(a.V))
	// Scatter. COO is sorted by (row, col), so entries land in each tile in
	// (local row, local col) order automatically.
	next := make([]int64, len(c.BlkPtr)-1)
	copy(next, c.BlkPtr)
	for k := range a.V {
		bi := int(a.I[k]) / block
		bj := int(a.J[k]) / block
		t := bi*nbc + bj
		p := next[t]
		next[t]++
		c.RI[p] = a.I[k] - int32(bi*block)
		c.CI[p] = a.J[k] - int32(bj*block)
		c.V[p] = a.V[k]
	}
	return c
}

// ToCSB converts CSR to CSB via COO.
func (a *CSR) ToCSB(block int) *CSB { return a.ToCOO().ToCSB(block) }

// BlockSpMV computes y[bi·b : ...] += A(bi,bj) · x[bj·b : ...] for one tile.
// x and y are the full input/output vectors; the tile offsets are applied
// internally. This is the unit of work of one SpMV task.
//
// The entry loop is unrolled 4× over sequential statements, which preserves
// the exact accumulation order of the scalar loop (bit-identical results);
// the tile's coordinate and value arrays are re-sliced once so the per-entry
// bounds checks on them vanish.
//
//sparselint:hotpath
func (a *CSB) BlockSpMV(y, x []float64, bi, bj int) {
	k := a.BlockIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	if lo == hi {
		return
	}
	v := a.V[lo:hi]
	ri := a.RI[lo:hi:hi]
	ci := a.CI[lo:hi:hi]
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	ys := y[bi*a.Block:]
	xs := x[bj*a.Block:]
	p := 0
	for ; p+4 <= len(v); p += 4 {
		ys[ri[p]] += v[p] * xs[ci[p]]
		ys[ri[p+1]] += v[p+1] * xs[ci[p+1]]
		ys[ri[p+2]] += v[p+2] * xs[ci[p+2]]
		ys[ri[p+3]] += v[p+3] * xs[ci[p+3]]
	}
	for ; p < len(v); p++ {
		ys[ri[p]] += v[p] * xs[ci[p]]
	}
}

// BlockSpMM computes Y[tile bi] += A(bi,bj) · X[tile bj] for one tile, where
// X and Y are dense row-major vector blocks with n columns. This is the unit
// of work of one SpMM task. n == 1 is BlockSpMV; wider blocks run on the
// row-run engine (rowrun.go).
//
//sparselint:hotpath
func (a *CSB) BlockSpMM(y, x []float64, n, bi, bj int) {
	if n == 1 {
		a.BlockSpMV(y, x, bi, bj)
		return
	}
	k := a.BlockIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	spmmDirect(y[bi*a.Block*n:], x[bj*a.Block*n:], a.V[lo:hi], a.RI[lo:hi], a.CI[lo:hi], n)
}

// SpMV computes y = A·x sequentially by streaming tiles in row-major order.
// This is the reference used to validate the task-parallel executions.
func (a *CSB) SpMV(y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: CSB SpMV shape mismatch: A is %dx%d, x %d, y %d", a.Rows, a.Cols, len(x), len(y)))
	}
	clear(y)
	for bi := 0; bi < a.NBR; bi++ {
		for bj := 0; bj < a.NBC; bj++ {
			a.BlockSpMV(y, x, bi, bj)
		}
	}
}

// SpMM computes Y = A·X sequentially over tiles; X is Cols×n, Y is Rows×n,
// both dense row-major.
func (a *CSB) SpMM(y, x []float64, n int) {
	if len(x) != a.Cols*n || len(y) != a.Rows*n {
		panic(fmt.Sprintf("sparse: CSB SpMM shape mismatch: A is %dx%d n=%d len(x)=%d len(y)=%d", a.Rows, a.Cols, n, len(x), len(y)))
	}
	clear(y)
	for bi := 0; bi < a.NBR; bi++ {
		for bj := 0; bj < a.NBC; bj++ {
			a.BlockSpMM(y, x, n, bi, bj)
		}
	}
}

// RowBlockNNZ returns the total nonzeros across tile row bi: the work a
// dependency-chained SpMV row owns.
func (a *CSB) RowBlockNNZ(bi int) int {
	n := 0
	for bj := 0; bj < a.NBC; bj++ {
		n += a.BlockNNZ(bi, bj)
	}
	return n
}
