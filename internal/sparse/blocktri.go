package sparse

import (
	"fmt"
	"math"
	"slices"
)

// BlockTri is a triangular factor laid out for block-granular substitution:
// the storage every TTrsv task solves on. The factor's rows are cut into
// blocks of Block rows (the data partitioning of the rest of the system),
// and inside a block the rows are stored in the order of their block-local
// level — the length of the longest chain of in-block rows a row waits for —
// with the strictly-triangular entries physically permuted into that order
// and the diagonal kept out of line.
//
// The order is block-local because a block's rows are solved in one pass of
// that order, segment after segment, after the rows they read in other
// blocks. What the order buys is instruction-level overlap. A row is s = b[i]; s -= v·x[c] over its
// entries; x[i] = s / d, and in natural order an IC(0) factor of a grid makes
// every row wait for the division of the row before it. With the rows of one
// level adjacent, the divisions of a level are independent and an
// out-of-order core overlaps them.
//
// A block of at least two segments' worth of rows is solved as a chain of
// segments: runs of SegmentRows of its positions (the last run takes the
// remainder), one task each. Because positions are level-ordered, a block's
// first segment holds its first levels, which need only the first levels of
// the blocks they read; each segment therefore waits for its predecessor in
// its block and, per other block it reads, for the latest segment of that
// block holding a row it needs. On a grid factor the solve becomes a
// two-dimensional wavefront (blocks × segments) instead of a chain of blocks.
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

	// Seg holds the segment bounds: segment s solves positions
	// [Seg[s], Seg[s+1]), and block bi owns segments
	// [BlockSeg[bi], BlockSeg[bi+1]), in position order.
	Seg      []int32
	BlockSeg []int32
	// SegDeps lists, per segment, the segments it waits for, ascending: its
	// predecessor in its block, and per other block it reads the latest
	// segment holding a row it needs, unless its predecessor already waits
	// for that one or a later one. It is the factor's only dependency
	// structure: the blocks a block reads are the blocks its segments'
	// dependencies fall in (Reads). All lists are windows of one backing
	// slice.
	SegDeps [][]int32
	// SegOrder lists every segment once, by wavefront level (one past its
	// deepest dependency) and within a level from the block furthest along
	// the substitution: a topological order of SegDeps, and the order the
	// task graph numbers the segments in.
	SegOrder []int32
}

// SegmentRows is the number of positions in a segment. A block shorter than
// two segments is one segment. At 256 the flop-weighted work/span of the
// IC(0) solve pair on a 65536-row grid in 32 blocks is 3.65; at 512 it is
// 1.94, and at 1024 the two segments of a block cannot overlap anything.
const SegmentRows = 256

// NewBlockTri builds the substitution layout of the triangular factor a at
// the given block size, in O(rows + nnz): one pass per block assigns
// block-local levels and validates the rows; a counting sort orders the rows;
// a second pass copies the entries; cutSegments then finds the segments'
// dependencies on the finished layout.
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
	}
	// Per-block scratch: level of each row, rows per level (then the next
	// free position of each level).
	level := make([]int32, min(block, n))
	count := make([]int32, min(block, n)+1)

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
	t.cutSegments()
	return t, nil
}

// cutSegments fills Seg, BlockSeg, SegDeps and SegOrder from the finished
// layout in O(rows + nnz): one pass over the stored entries finds each
// segment's cross-block needs, and a counting sort by wavefront level orders
// the segments.
func (t *BlockTri) cutSegments() {
	n, block, nb := t.Rows, t.Block, t.NB
	t.BlockSeg = make([]int32, nb+1)
	for bi := 0; bi < nb; bi++ {
		rows := min(block, n-bi*block)
		t.BlockSeg[bi+1] = t.BlockSeg[bi] + int32(max(rows/SegmentRows, 1))
	}
	ns := int(t.BlockSeg[nb])
	t.Seg = make([]int32, ns+1)
	for bi := 0; bi < nb; bi++ {
		for s := t.BlockSeg[bi]; s < t.BlockSeg[bi+1]; s++ {
			t.Seg[s] = int32(bi*block) + (s-t.BlockSeg[bi])*SegmentRows
		}
	}
	t.Seg[ns] = int32(n)

	pos := make([]int32, n) // row -> position
	for k, r := range t.Row {
		pos[r] = int32(k)
	}
	segOf := func(k int32) int32 { // position -> segment
		bi := int(k) / block
		local := min((k-int32(bi*block))/SegmentRows, t.BlockSeg[bi+1]-t.BlockSeg[bi]-1)
		return t.BlockSeg[bi] + local
	}
	// need[j] is the latest segment of block j the current segment reads
	// (valid when seen[j] == s+1); have[j] the latest one an earlier segment
	// of the same block waits for (valid when in[j] == bi+1).
	need, seen := make([]int32, nb), make([]int32, nb)
	have, in := make([]int32, nb), make([]int32, nb)
	var touched, flat []int32
	off := make([]int32, ns+1)
	for bi := 0; bi < nb; bi++ {
		rlo, rhi := bi*block, min((bi+1)*block, n)
		for s := t.BlockSeg[bi]; s < t.BlockSeg[bi+1]; s++ {
			touched = touched[:0]
			for _, c := range t.Col[t.Ptr[t.Seg[s]]:t.Ptr[t.Seg[s+1]]] {
				if int(c) >= rlo && int(c) < rhi {
					continue
				}
				j := int(c) / block
				sg := segOf(pos[c])
				if seen[j] != s+1 {
					seen[j], need[j] = s+1, sg
					touched = append(touched, int32(j))
				} else if sg > need[j] {
					need[j] = sg
				}
			}
			lo := len(flat)
			if s > t.BlockSeg[bi] {
				flat = append(flat, s-1)
			}
			for _, j := range touched {
				if in[j] == int32(bi)+1 && have[j] >= need[j] {
					continue
				}
				in[j], have[j] = int32(bi)+1, need[j]
				flat = append(flat, need[j])
			}
			slices.Sort(flat[lo:])
			off[s+1] = int32(len(flat))
		}
	}
	t.SegDeps = make([][]int32, ns)
	for s := range t.SegDeps {
		t.SegDeps[s] = flat[off[s]:off[s+1]:off[s+1]]
	}

	// Wavefront levels, in substitution order of the blocks (a segment's
	// cross-block dependencies lie in blocks earlier in that order, its
	// predecessor earlier in its own block).
	level := make([]int32, ns)
	count := make([]int32, ns+1)
	for k := 0; k < nb; k++ {
		bi := k
		if t.Upper {
			bi = nb - 1 - k
		}
		for s := t.BlockSeg[bi]; s < t.BlockSeg[bi+1]; s++ {
			for _, d := range t.SegDeps[s] {
				level[s] = max(level[s], level[d]+1)
			}
			count[level[s]+1]++
		}
	}
	for l := 1; l <= ns; l++ {
		count[l] += count[l-1]
	}
	// Counting sort by level; visiting the blocks against substitution
	// order puts the block furthest along first within a level.
	t.SegOrder = make([]int32, ns)
	for k := 0; k < nb; k++ {
		bi := nb - 1 - k
		if t.Upper {
			bi = k
		}
		for s := t.BlockSeg[bi]; s < t.BlockSeg[bi+1]; s++ {
			t.SegOrder[count[level[s]]] = s
			count[level[s]]++
		}
	}
}

// Reads appends to dst the blocks other than bi whose solution entries the
// rows of block bi read, ascending: the blocks its segments' cross-block
// SegDeps fall in. cutSegments leaves out a segment's dependency on another
// block only when an earlier segment of the same block already waits for
// that block, so every block read is there.
func (t *BlockTri) Reads(dst []int32, bi int) []int32 {
	lo := len(dst)
	for _, deps := range t.SegDeps[t.BlockSeg[bi]:t.BlockSeg[bi+1]] {
		for _, d := range deps {
			if j := int(t.Seg[d]) / t.Block; j != bi {
				dst = append(dst, int32(j))
			}
		}
	}
	slices.Sort(dst[lo:])
	return dst[:lo+len(slices.Compact(dst[lo:]))]
}

// seg returns the windows of segment s: its rows in stored order, their
// diagonals, and where each row's entries begin and end in Col/Val. All four
// have one length, which is what lets the kernels index them unchecked.
//
//sparselint:hotpath
func (t *BlockTri) seg(s int) (rows []int32, diag []float64, beg, end []int64) {
	lo, hi := t.Seg[s], t.Seg[s+1]
	rows = t.Row[lo:hi]
	diag = t.Diag[lo:hi]
	beg = t.Ptr[lo:hi]
	end = t.Ptr[lo+1 : hi+1]
	return rows, diag[:len(rows)], beg[:len(rows)], end[:len(rows)]
}

// SolveSeg substitutes the rows of segment si for one right-hand side:
// x[i] = (b[i] − Σ v·x[c]) / d over each row's strictly-triangular entries
// in CSR order. x and b are full-length vectors; the entries of x the
// segment reads from other segments must already hold their solution (the
// task graph orders segments by SegDeps). x and b may alias only when
// x == b. It is SolveSegN at width 1.
func (t *BlockTri) SolveSeg(x, b []float64, si int) {
	t.SolveSegN(x, b, 1, si)
}

// SolveSegN is the width-n substitution of segment si: x and b are row-major
// Rows×n panels and each column is solved against its own right-hand side.
// Per column the arithmetic is SolveSeg's, so column j of a width-n solve is
// bit-identical to a width-1 solve of column j.
//
// Columns are independent, so they may be solved in passes over the segment.
// With AVX2 (simd) every column runs assembly (trsv_amd64.s): 8-wide passes,
// then at most one pass each of 4, 2 and 1 columns, holding a row's columns
// as the lanes of YMM or XMM registers. Other builds run the Go body below,
// which holds four columns of a row in registers and then takes the last 1–3
// one at a time. A lane is one column and does the Go body's multiply,
// subtract and divide in the same order, so both paths give the same bits.
//
//sparselint:hotpath
func (t *BlockTri) SolveSegN(x, b []float64, n, si int) {
	if simd {
		t.solveSegAsm(x, b, n, si)
		return
	}
	rows, diag, beg, end := t.seg(si)
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

// solveSegAsm runs SolveSegN's assembly passes over segment si: 8 columns at
// a time, then 4, 2 and 1 as the remaining count needs, so every column runs
// assembly. The assembly checks every offset it follows and reports the
// first out of range; inRange then panics, as the Go body would.
//
//sparselint:hotpath
func (t *BlockTri) solveSegAsm(x, b []float64, n, si int) {
	lo, hi := t.Seg[si], t.Seg[si+1]
	row, ptr, diag := t.Row[lo:hi], t.Ptr[lo:hi+1], t.Diag[lo:hi]
	col, val := t.Col, t.Val[:len(t.Col)]
	j := 0
	for ; j+8 <= n; j += 8 {
		inRange(trsv8AVX2(x[j:], b[j:], row, ptr, col, val, diag, n))
	}
	if n-j >= 4 {
		inRange(trsv4AVX2(x[j:], b[j:], row, ptr, col, val, diag, n))
		j += 4
	}
	if n-j >= 2 {
		inRange(trsv2SSE2(x[j:], b[j:], row, ptr, col, val, diag, n))
		j += 2
	}
	if n-j == 1 {
		inRange(trsv1SSE2(x[j:], b[j:], row, ptr, col, val, diag, n))
	}
}
