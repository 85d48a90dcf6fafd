package sparse

import (
	"fmt"
	"math"
)

// BlockTri is a triangular factor laid out for block-granular substitution:
// the storage every TTrsv task solves on. The factor's rows are cut into
// blocks of Block rows (one task each, the granularity of the rest of the
// system), and inside a block the rows are stored in the order of their
// block-local level — the length of the longest chain of in-block rows a row
// waits for — with the strictly-triangular entries physically permuted into
// that order and the diagonal kept out of line.
//
// The order is block-local because the task is: a block's rows are solved by
// one worker, in one call, after every block it depends on. What the order
// buys is instruction-level overlap. A row is s = b[i]; s -= v·x[c] over its
// entries; x[i] = s / d, and in natural order an IC(0) factor of a grid makes
// every row wait for the division of the row before it. With the rows of one
// level adjacent, the divisions of a level are independent and an
// out-of-order core overlaps them.
//
// Each row still subtracts its entries in CSR order and divides once, so
// every x[i] is bit-identical to the natural-order CSR solve
// (CSR.LowerSolve/UpperSolve): only the order in which independent rows are
// visited differs.
//
// A BlockTri is immutable after NewBlockTri and holds no scratch, so
// concurrent solves share one.
type BlockTri struct {
	Rows  int
	Block int // rows per block (the last block may be short)
	NB    int // number of row blocks
	// Upper selects backward substitution: rows read x[c] for c > i, blocks
	// depend on later blocks.
	Upper bool

	// Row lists the factor's rows block by block: block bi owns positions
	// [bi·Block, min((bi+1)·Block, Rows)), ordered by block-local level and
	// within a level by substitution order (ascending rows for lower,
	// descending for upper).
	Row []int32
	// Ptr, Col and Val hold the strictly-triangular entries in position
	// order: the row at position k owns Col/Val[Ptr[k]:Ptr[k+1]], in the
	// factor's CSR order. Diag[k] is that row's diagonal.
	Ptr  []int64
	Col  []int32
	Val  []float64
	Diag []float64

	// Deps lists, per block, the other blocks whose solution entries its
	// rows read, ascending — the edges of the block-level DAG. All lists are
	// windows of one backing slice.
	Deps [][]int32
}

// NewBlockTri builds the substitution layout of the triangular factor a at
// the given block size, in O(rows + nnz): one pass per block assigns
// block-local levels, validates and collects cross-block dependencies; a
// counting sort orders the rows; a second pass copies the entries.
//
// A factor the kernels cannot solve is refused here rather than mis-solved on
// every sweep: a must be square, every row must store exactly one diagonal
// entry, finite and non-zero, and no entry may lie on the wrong side of the
// diagonal.
func NewBlockTri(a *CSR, block int, upper bool) (*BlockTri, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: triangular factor must be square, got %dx%d", a.Rows, a.Cols)
	}
	if block < 1 {
		return nil, fmt.Errorf("sparse: triangular block size must be >= 1, got %d", block)
	}
	n := a.Rows
	nb := (n + block - 1) / block
	off := a.NNZ() - n
	if off < 0 {
		off = 0 // some row has no diagonal; the scan below names it
	}
	t := &BlockTri{
		Rows: n, Block: block, NB: nb, Upper: upper,
		Row:  make([]int32, n),
		Ptr:  make([]int64, n+1),
		Col:  make([]int32, off),
		Val:  make([]float64, off),
		Diag: make([]float64, n),
		Deps: make([][]int32, nb),
	}
	// Per-block scratch: level of each row, rows per level (then the next
	// free position of each level).
	level := make([]int32, min(block, n))
	count := make([]int32, min(block, n)+1)
	// Cross-block dependencies as (block, prerequisite) pairs in discovery
	// order; mark[j] == bi+1 records that j is already listed for bi.
	mark := make([]int32, nb)
	var depOf, depOn []int32

	q := int64(0)
	for bi := 0; bi < nb; bi++ {
		rlo := bi * block
		rhi := rlo + block
		if rhi > n {
			rhi = n
		}
		// Substitution order: ascending rows, or descending for upper.
		first, last, step := rlo, rhi, 1
		if upper {
			first, last, step = rhi-1, rlo-1, -1
		}
		maxLevel := int32(0)
		for i := first; i != last; i += step {
			lvl := int32(0)
			diags := 0
			cols := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
			vals := a.V[a.RowPtr[i]:a.RowPtr[i+1]]
			vals = vals[:len(cols)]
			for e, col := range cols {
				c := int(col)
				switch {
				case c == i:
					diags++
					if d := vals[e]; d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
						return nil, fmt.Errorf("sparse: triangular factor row %d has diagonal %v", i, d)
					}
				case c < 0 || c >= n:
					return nil, fmt.Errorf("sparse: triangular factor row %d has column %d outside [0, %d)", i, c, n)
				case (c > i) != upper:
					return nil, fmt.Errorf("sparse: triangular factor row %d has an entry at column %d, the wrong side of its diagonal", i, c)
				case c >= rlo && c < rhi:
					if l := level[c-rlo] + 1; l > lvl {
						lvl = l
					}
				default:
					if j := int32(c / block); mark[j] != int32(bi)+1 {
						mark[j] = int32(bi) + 1
						depOf = append(depOf, int32(bi))
						depOn = append(depOn, j)
					}
				}
			}
			if diags != 1 {
				return nil, fmt.Errorf("sparse: triangular factor row %d stores %d diagonal entries, want 1", i, diags)
			}
			level[i-rlo] = lvl
			count[lvl]++
			if lvl > maxLevel {
				maxLevel = lvl
			}
		}
		// Counting sort of the block's rows by level, stable in substitution
		// order: count becomes each level's next free position.
		next := int32(0)
		for l := int32(0); l <= maxLevel; l++ {
			next, count[l] = next+count[l], next
		}
		for i := first; i != last; i += step {
			l := level[i-rlo]
			t.Row[rlo+int(count[l])] = int32(i)
			count[l]++
		}
		for l := int32(0); l <= maxLevel; l++ {
			count[l] = 0
		}
		for k := rlo; k < rhi; k++ {
			i := int(t.Row[k])
			cols := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
			vals := a.V[a.RowPtr[i]:a.RowPtr[i+1]]
			vals = vals[:len(cols)]
			for e, c := range cols {
				if int(c) != i {
					t.Col[q], t.Val[q] = c, vals[e]
					q++
				} else {
					t.Diag[k] = vals[e]
				}
			}
			t.Ptr[k+1] = q
		}
	}
	t.fillDeps(depOf, depOn)
	return t, nil
}

// fillDeps turns the (block, prerequisite) pairs into per-block ascending
// lists by a counting sort on the prerequisite: walking the pairs bucketed by
// prerequisite in ascending order appends to each block's list in ascending
// order.
func (t *BlockTri) fillDeps(depOf, depOn []int32) {
	nb := t.NB
	start := make([]int32, nb+1) // pairs per prerequisite, then bucket starts
	size := make([]int32, nb)    // pairs per block
	for k, j := range depOn {
		start[j+1]++
		size[depOf[k]]++
	}
	for j := 0; j < nb; j++ {
		start[j+1] += start[j]
	}
	byPre := make([]int32, len(depOn)) // blocks, bucketed by prerequisite
	for k, j := range depOn {
		byPre[start[j]] = depOf[k]
		start[j]++
	}
	flat := make([]int32, len(depOn))
	at := 0
	for bi := range t.Deps {
		t.Deps[bi] = flat[at : at : at+int(size[bi])]
		at += int(size[bi])
	}
	k := 0
	for j := 0; j < nb; j++ {
		// After the scatter start[j] is the end of bucket j.
		for ; k < int(start[j]); k++ {
			bi := byPre[k]
			t.Deps[bi] = append(t.Deps[bi], int32(j))
		}
	}
}

// block returns the windows of block bi: its rows in stored order, their
// diagonals, and where each row's entries begin and end in Col/Val. All four
// have one length, which is what lets the kernels index them unchecked.
//
//sparselint:hotpath
func (t *BlockTri) block(bi int) (rows []int32, diag []float64, beg, end []int64) {
	lo := bi * t.Block
	hi := lo + t.Block
	if hi > t.Rows {
		hi = t.Rows
	}
	rows = t.Row[lo:hi]
	diag = t.Diag[lo:hi]
	beg = t.Ptr[lo:hi]
	end = t.Ptr[lo+1 : hi+1]
	return rows, diag[:len(rows)], beg[:len(rows)], end[:len(rows)]
}

// SolveBlock substitutes the rows of block bi for one right-hand side:
// x[i] = (b[i] − Σ v·x[c]) / d over each row's strictly-triangular entries
// in CSR order. x and b are full-length vectors; the entries of x the block
// reads from other blocks must already hold their solution (the task graph
// orders blocks by Deps). x and b may alias only when x == b.
//
//sparselint:hotpath
func (t *BlockTri) SolveBlock(x, b []float64, bi int) {
	rows, diag, beg, end := t.block(bi)
	for k, i := range rows {
		s := b[i]
		cs := t.Col[beg[k]:end[k]]
		vs := t.Val[beg[k]:end[k]]
		vs = vs[:len(cs)]
		for e, c := range cs {
			s -= vs[e] * x[c]
		}
		x[i] = s / diag[k]
	}
}

// SolveBlockN is the width-n substitution of block bi: x and b are row-major
// Rows×n panels and each column is solved against its own right-hand side.
// Per column the arithmetic is SolveBlock's, so column j of a width-n solve
// is bit-identical to a width-1 solve of column j.
//
//sparselint:hotpath
func (t *BlockTri) SolveBlockN(x, b []float64, n, bi int) {
	rows, diag, beg, end := t.block(bi)
	for k, r := range rows {
		i := int(r) * n
		xr := x[i : i+n]
		br := b[i : i+n]
		br = br[:len(xr)]
		cs := t.Col[beg[k]:end[k]]
		vs := t.Val[beg[k]:end[k]]
		vs = vs[:len(cs)]
		d := diag[k]
		j := 0
		for ; j+4 <= len(xr); j += 4 {
			bq := br[j : j+4]
			s0, s1, s2, s3 := bq[0], bq[1], bq[2], bq[3]
			for e, c := range cs {
				v := vs[e]
				xc := x[int(c)*n+j : int(c)*n+j+4]
				s0 -= v * xc[0]
				s1 -= v * xc[1]
				s2 -= v * xc[2]
				s3 -= v * xc[3]
			}
			xq := xr[j : j+4]
			xq[0], xq[1], xq[2], xq[3] = s0/d, s1/d, s2/d, s3/d
		}
		for ; j < len(xr); j++ {
			s := br[j]
			for e, c := range cs {
				s -= vs[e] * x[int(c)*n+j]
			}
			xr[j] = s / d
		}
	}
}
