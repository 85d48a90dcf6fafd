package sparse

import (
	"errors"
	"fmt"
)

// ErrNotSymmetric is returned by ToSymCSB when the input matrix is not
// numerically symmetric.
var ErrNotSymmetric = errors.New("sparse: matrix is not symmetric")

// SymCSB is a symmetry-exploiting variant of CSB (Batista et al., "Parallel
// structurally-symmetric sparse matrix-vector products on multi-core
// processors"): only the lower-triangle tiles and the diagonal tiles are
// stored, and diagonal tiles keep only their lower-half entries (local
// r >= c). Each stored off-diagonal entry (i,j) represents both A[i,j] and
// A[j,i], so the SpMV kernels stream roughly half the matrix bytes of the
// general path — the dominant traffic of a bandwidth-bound SpMV.
//
// Tiles are addressed by a packed lower-triangular index
// idx = bi·(bi+1)/2 + bj for bj <= bi; entries within a tile are in
// (local row, local col) order like CSB.
//
// The transposed scatter of an off-diagonal tile writes row band bj while the
// direct scatter writes band bi, so two tiles sharing either band conflict
// when run concurrently. The conflict resolution lives in the scheduler; the
// structure it needs (a tile coloring into conflict-free waves, or the
// fallback accumulator grouping when coloring fragments the DAG) is a pure
// function of the tiling and is computed once here, cached in Sched.
type SymCSB struct {
	Rows  int
	Block int // tile edge length b
	NBR   int // number of tile rows: ceil(Rows/b)
	// BlkPtr has len NBR·(NBR+1)/2+1: offsets into RI/CI/V for the packed
	// lower-triangular tiles.
	BlkPtr []int64
	RI, CI []int32 // tile-local coordinates, each in [0, Block)
	V      []float64
	// FullNNZ is the nonzero count of the logical (full symmetric) matrix;
	// len(V) is the stored count: (FullNNZ + DiagNNZ) / 2.
	FullNNZ int
	// DiagNNZ counts true diagonal entries (i == j).
	DiagNNZ int
	// Sched is the conflict-free execution schedule, computed by ToSymCSB.
	Sched SymSchedule
}

// SymAccGroups is the upper bound on private-accumulator groups in fallback
// mode. The effective count is min(SymAccGroups, NBR) — a function of the
// matrix structure only, never of worker or domain counts, so the fallback
// reduction order (and hence the floating-point result) is identical across
// topology profiles and backends.
const SymAccGroups = 8

// SymSchedule captures how symmetric SpMV tasks are made conflict-free. In
// wave mode (Fallback false), tiles are greedily colored so that no two
// tiles of one wave share a row band; waves execute as dependency ranks. In
// fallback mode, transposed contributions go to per-group private
// accumulators that affinity-stamped reduction tasks fold back in.
type SymSchedule struct {
	// Wave[idx] is the wave (color) of packed tile idx, -1 for empty tiles.
	// Meaningful only when Fallback is false.
	Wave []int32
	// NumWaves is the number of colors used (wave mode).
	NumWaves int
	// Fallback selects the private-accumulator path: coloring needed more
	// than max(4, NBR/2) waves, which would serialize the DAG.
	Fallback bool
	// Groups is the effective accumulator group count (fallback mode).
	Groups int
	// TransGroups[bj] is a bitmask over groups with at least one transposed
	// contribution into row band bj (fallback mode). Reduction kernels fold
	// groups in ascending bit order, fixing the accumulation order.
	TransGroups []uint8
}

// AccGroup returns the accumulator group owning the transposed writes of
// tiles in row band bi: the floor map bi·Groups/NBR, the same contiguous
// band→domain map graph.DomainAffinity uses, so a group's bands share
// locality.
func (a *SymCSB) AccGroup(bi int) int {
	return bi * a.Sched.Groups / a.NBR
}

// TileIndex returns the packed lower-triangular tile index for tile row bi
// and tile col bj; requires bj <= bi.
func (a *SymCSB) TileIndex(bi, bj int) int { return bi*(bi+1)/2 + bj }

// TileNNZ returns the stored nonzeros of tile (bi, bj), bj <= bi.
func (a *SymCSB) TileNNZ(bi, bj int) int {
	k := a.TileIndex(bi, bj)
	return int(a.BlkPtr[k+1] - a.BlkPtr[k])
}

// NNZ returns the number of stored entries (lower triangle plus diagonal).
func (a *SymCSB) NNZ() int { return len(a.V) }

// Dims returns the (square) matrix dimensions.
func (a *SymCSB) Dims() (int, int) { return a.Rows, a.Rows }

// BlockSize returns the tile edge length.
func (a *SymCSB) BlockSize() int { return a.Block }

// NonEmptyTiles returns how many stored tiles contain at least one nonzero.
func (a *SymCSB) NonEmptyTiles() int {
	n := 0
	nt := a.NBR * (a.NBR + 1) / 2
	for k := 0; k < nt; k++ {
		if a.BlkPtr[k+1] > a.BlkPtr[k] {
			n++
		}
	}
	return n
}

// InverseDiagonal fills dinv with 1/diag(A); zero or missing diagonal
// entries fall back to 1 (no scaling for that row).
func (a *SymCSB) InverseDiagonal(dinv []float64) {
	for i := range dinv {
		dinv[i] = 1
	}
	for bi := 0; bi < a.NBR; bi++ {
		k := a.TileIndex(bi, bi)
		off := bi * a.Block
		for p := a.BlkPtr[k]; p < a.BlkPtr[k+1]; p++ {
			if a.RI[p] == a.CI[p] {
				if v := a.V[p]; v != 0 {
					dinv[off+int(a.RI[p])] = 1 / v
				}
			}
		}
	}
}

// ToSymCSB converts a COO matrix to symmetric CSB with the given tile size.
// The COO input is compacted first. It returns ErrNotSymmetric when the
// matrix is not numerically symmetric (pattern and values), and an error for
// non-square inputs. Panics if block <= 0.
func (a *COO) ToSymCSB(block int) (*SymCSB, error) {
	if block <= 0 {
		panic("sparse: ToSymCSB requires block > 0")
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: ToSymCSB needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	a.Compact()
	// Symmetry check on the sorted entries: every strictly-upper entry must
	// mirror an equal-valued lower entry, and the triangles must have equal
	// counts (the mirror map is injective, so equal counts make it a
	// bijection). Row starts come from a prefix sum over the sorted order.
	rowPtr := make([]int64, a.Rows+1)
	for k := range a.V {
		rowPtr[a.I[k]+1]++
	}
	for i := 0; i < a.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nUpper, nLower, nDiag := 0, 0, 0
	for k := range a.V {
		i, j := a.I[k], a.J[k]
		switch {
		case i == j:
			nDiag++
		case i > j:
			nLower++
		default:
			nUpper++
			// Binary search row j for column i.
			lo, hi := rowPtr[j], rowPtr[j+1]
			for lo < hi {
				mid := (lo + hi) / 2
				if a.J[mid] < i {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == rowPtr[j+1] || a.J[lo] != i || a.V[lo] != a.V[k] {
				return nil, ErrNotSymmetric
			}
		}
	}
	if nUpper != nLower {
		return nil, ErrNotSymmetric
	}

	nbr := (a.Rows + block - 1) / block
	nt := nbr * (nbr + 1) / 2
	stored := nLower + nDiag
	c := &SymCSB{
		Rows: a.Rows, Block: block, NBR: nbr,
		BlkPtr:  make([]int64, nt+1),
		RI:      make([]int32, stored),
		CI:      make([]int32, stored),
		V:       make([]float64, stored),
		FullNNZ: len(a.V),
		DiagNNZ: nDiag,
	}
	// Count stored entries per packed tile (lower triangle + diag half).
	for k := range a.V {
		if a.I[k] < a.J[k] {
			continue
		}
		bi := int(a.I[k]) / block
		bj := int(a.J[k]) / block
		c.BlkPtr[c.TileIndex(bi, bj)+1]++
	}
	for k := 0; k < nt; k++ {
		c.BlkPtr[k+1] += c.BlkPtr[k]
	}
	// Scatter. COO is sorted by (row, col), so entries land in each tile in
	// (local row, local col) order automatically.
	next := make([]int64, nt)
	copy(next, c.BlkPtr[:nt])
	for k := range a.V {
		if a.I[k] < a.J[k] {
			continue
		}
		bi := int(a.I[k]) / block
		bj := int(a.J[k]) / block
		t := c.TileIndex(bi, bj)
		p := next[t]
		next[t]++
		c.RI[p] = a.I[k] - int32(bi*block)
		c.CI[p] = a.J[k] - int32(bj*block)
		c.V[p] = a.V[k]
	}
	c.Sched = computeSymSchedule(c)
	return c, nil
}

// computeSymSchedule greedily colors the stored non-empty tiles so that no
// two tiles of one color share a row band (a tile touches band bi directly
// and band bj through its transpose). Tiles are visited in deterministic
// (bi-major, bj ascending) order; diagonal tiles touch only their own band
// and all take color 0. When any tile would need a color beyond
// max(4, NBR/2) — the arrowhead-like patterns where one band meets almost
// every other and coloring would serialize the DAG — the schedule falls back
// to private accumulators with min(SymAccGroups, NBR) groups.
func computeSymSchedule(a *SymCSB) SymSchedule {
	nbr := a.NBR
	maxColors := nbr / 2
	if maxColors < 4 {
		maxColors = 4
	}
	nt := nbr * (nbr + 1) / 2
	s := SymSchedule{Wave: make([]int32, nt)}
	for k := range s.Wave {
		s.Wave[k] = -1
	}
	words := (maxColors + 63) / 64
	used := make([]uint64, nbr*words)
	for bi := 0; bi < nbr && !s.Fallback; bi++ {
		for bj := 0; bj <= bi; bj++ {
			idx := a.TileIndex(bi, bj)
			if a.BlkPtr[idx+1] == a.BlkPtr[idx] {
				continue
			}
			if bi == bj {
				s.Wave[idx] = 0
				used[bi*words] |= 1
				if s.NumWaves < 1 {
					s.NumWaves = 1
				}
				continue
			}
			color := -1
			for w := 0; w < words && color < 0; w++ {
				free := ^(used[bi*words+w] | used[bj*words+w])
				for b := 0; b < 64; b++ {
					if free&(1<<uint(b)) != 0 {
						if c := w*64 + b; c < maxColors {
							color = c
						}
						break
					}
				}
			}
			if color < 0 {
				s.Fallback = true
				break
			}
			s.Wave[idx] = int32(color)
			used[bi*words+color/64] |= 1 << uint(color%64)
			used[bj*words+color/64] |= 1 << uint(color%64)
			if color+1 > s.NumWaves {
				s.NumWaves = color + 1
			}
		}
	}
	if !s.Fallback {
		return s
	}
	// Fallback: per-group private accumulators for the transposed halves.
	s.Wave = nil
	s.NumWaves = 0
	s.Groups = SymAccGroups
	if nbr < s.Groups {
		s.Groups = nbr
	}
	s.TransGroups = make([]uint8, nbr)
	for bi := 0; bi < nbr; bi++ {
		g := bi * s.Groups / nbr
		for bj := 0; bj < bi; bj++ {
			idx := a.TileIndex(bi, bj)
			if a.BlkPtr[idx+1] > a.BlkPtr[idx] {
				s.TransGroups[bj] |= 1 << uint(g)
			}
		}
	}
	return s
}

// BlockSymSpMV applies stored tile (bi,bj), bj <= bi, to the full vectors:
// y[bi·b:] += T·x[bj·b:] and, for off-diagonal tiles, the transposed
// contribution y[bj·b:] += Tᵀ·x[bi·b:]. Diagonal tiles scatter their
// strictly-lower entries to both halves within band bi. This is the unit of
// work of one symmetric SpMV task in wave mode.
//
// Like CSB.BlockSpMV, the entry loop is unrolled 4× over sequential
// statements (bit-identical to the scalar loop) and the tile arrays are
// re-sliced once so per-entry bounds checks vanish.
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMV(y, x []float64, bi, bj int) {
	k := a.TileIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	if lo == hi {
		return
	}
	v := a.V[lo:hi]
	ri := a.RI[lo:hi:hi]
	ci := a.CI[lo:hi:hi]
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	if bi == bj {
		ys := y[bi*a.Block:]
		xs := x[bi*a.Block:]
		for p := range v {
			r, c := ri[p], ci[p]
			vv := v[p]
			ys[r] += vv * xs[c]
			if r != c {
				ys[c] += vv * xs[r]
			}
		}
		return
	}
	yd := y[bi*a.Block:]
	yt := y[bj*a.Block:]
	xd := x[bj*a.Block:]
	xt := x[bi*a.Block:]
	p := 0
	for ; p+4 <= len(v); p += 4 {
		yd[ri[p]] += v[p] * xd[ci[p]]
		yt[ci[p]] += v[p] * xt[ri[p]]
		yd[ri[p+1]] += v[p+1] * xd[ci[p+1]]
		yt[ci[p+1]] += v[p+1] * xt[ri[p+1]]
		yd[ri[p+2]] += v[p+2] * xd[ci[p+2]]
		yt[ci[p+2]] += v[p+2] * xt[ri[p+2]]
		yd[ri[p+3]] += v[p+3] * xd[ci[p+3]]
		yt[ci[p+3]] += v[p+3] * xt[ri[p+3]]
	}
	for ; p < len(v); p++ {
		yd[ri[p]] += v[p] * xd[ci[p]]
		yt[ci[p]] += v[p] * xt[ri[p]]
	}
}

// BlockSymSpMVDirect applies only the direct half of off-diagonal tile
// (bi,bj): y[bi·b:] += T·x[bj·b:]. Fallback mode pairs it with
// BlockSymSpMVTrans so the conflicting transposed write goes to a private
// accumulator instead of y.
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMVDirect(y, x []float64, bi, bj int) {
	k := a.TileIndex(bi, bj)
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

// BlockSymSpMVTrans applies only the transposed half of off-diagonal tile
// (bi,bj) into acc, a full-height private accumulator:
// acc[bj·b:] += Tᵀ·x[bi·b:].
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMVTrans(acc, x []float64, bi, bj int) {
	k := a.TileIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	if lo == hi {
		return
	}
	v := a.V[lo:hi]
	ri := a.RI[lo:hi:hi]
	ci := a.CI[lo:hi:hi]
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	ys := acc[bj*a.Block:]
	xs := x[bi*a.Block:]
	p := 0
	for ; p+4 <= len(v); p += 4 {
		ys[ci[p]] += v[p] * xs[ri[p]]
		ys[ci[p+1]] += v[p+1] * xs[ri[p+1]]
		ys[ci[p+2]] += v[p+2] * xs[ri[p+2]]
		ys[ci[p+3]] += v[p+3] * xs[ri[p+3]]
	}
	for ; p < len(v); p++ {
		ys[ci[p]] += v[p] * xs[ri[p]]
	}
}

// BlockSymSpMM is BlockSymSpMV over n-column row-major vector blocks: n == 1
// is BlockSymSpMV, wider blocks run the direct and then the transposed half
// on the row-run engine (rowrun.go). On a diagonal tile every transposed
// addition into a row comes from a later row's entries (entries are stored
// with c <= r, in row order), so applying the whole direct half first leaves
// each element's additions in the order the entry-by-entry loop made them.
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMM(y, x []float64, n, bi, bj int) {
	if n == 1 {
		a.BlockSymSpMV(y, x, bi, bj)
		return
	}
	v, ri, ci := a.tile(bi, bj)
	spmmDirect(a.blockRows(y, bi, n), a.blockRows(x, bj, n), v, ri, ci, n)
	spmmTrans(a.blockRows(y, bj, n), a.blockRows(x, bi, n), v, ri, ci, n, bi == bj)
}

// BlockSymSpMMDirect is the n-column direct half: Y[bi] += T·X[bj].
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMMDirect(y, x []float64, n, bi, bj int) {
	if n == 1 {
		a.BlockSymSpMVDirect(y, x, bi, bj)
		return
	}
	v, ri, ci := a.tile(bi, bj)
	spmmDirect(a.blockRows(y, bi, n), a.blockRows(x, bj, n), v, ri, ci, n)
}

// BlockSymSpMMTrans is the n-column transposed half into a full-height
// private accumulator: acc[bj] += Tᵀ·X[bi].
//
//sparselint:hotpath
func (a *SymCSB) BlockSymSpMMTrans(acc, x []float64, n, bi, bj int) {
	if n == 1 {
		a.BlockSymSpMVTrans(acc, x, bi, bj)
		return
	}
	v, ri, ci := a.tile(bi, bj)
	spmmTrans(a.blockRows(acc, bj, n), a.blockRows(x, bi, n), v, ri, ci, n, false)
}

// blockRows returns block row i of an n-column row-major block.
func (a *SymCSB) blockRows(s []float64, i, n int) []float64 {
	return blockRows(s, i, a.Block, a.Rows, n)
}

// tile returns the stored entries of tile (bi, bj), bj <= bi.
func (a *SymCSB) tile(bi, bj int) (v []float64, ri, ci []int32) {
	k := a.TileIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	return a.V[lo:hi], a.RI[lo:hi], a.CI[lo:hi]
}

// SpMV computes y = A·x sequentially by streaming stored tiles in (bi-major,
// bj ascending) order: the reference for the task-parallel executions.
func (a *SymCSB) SpMV(y, x []float64) {
	if len(x) != a.Rows || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: SymCSB SpMV shape mismatch: A is %dx%d, x %d, y %d", a.Rows, a.Rows, len(x), len(y)))
	}
	clear(y)
	for bi := 0; bi < a.NBR; bi++ {
		for bj := 0; bj <= bi; bj++ {
			a.BlockSymSpMV(y, x, bi, bj)
		}
	}
}

// SpMM computes Y = A·X sequentially over stored tiles; X and Y are Rows×n
// dense row-major.
func (a *SymCSB) SpMM(y, x []float64, n int) {
	if len(x) != a.Rows*n || len(y) != a.Rows*n {
		panic(fmt.Sprintf("sparse: SymCSB SpMM shape mismatch: A is %dx%d n=%d len(x)=%d len(y)=%d", a.Rows, a.Rows, n, len(x), len(y)))
	}
	clear(y)
	for bi := 0; bi < a.NBR; bi++ {
		for bj := 0; bj <= bi; bj++ {
			a.BlockSymSpMM(y, x, n, bi, bj)
		}
	}
}
