// Package sparse provides sparse matrix storage formats and conversion
// routines used throughout the solvers: coordinate (COO), compressed sparse
// row (CSR), and compressed sparse blocks (CSB, Buluç et al. 2009).
//
// CSB is the format the paper's task decomposition is built on: the matrix is
// tiled into b×b blocks and every task of the SpMV/SpMM kernels operates on a
// single non-empty block. All formats store float64 values and are limited to
// matrices whose dimensions fit in an int32.
package sparse

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// COO is a coordinate-format sparse matrix. Entries may be unsorted and may
// contain duplicates until Compact is called.
type COO struct {
	Rows, Cols int
	I, J       []int32
	V          []float64
}

// NewCOO returns an empty COO matrix of the given shape with capacity for
// nnzHint entries.
func NewCOO(rows, cols, nnzHint int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		I:    make([]int32, 0, nnzHint),
		J:    make([]int32, 0, nnzHint),
		V:    make([]float64, 0, nnzHint),
	}
}

// NNZ returns the number of stored entries (including any duplicates).
func (a *COO) NNZ() int { return len(a.V) }

// Append adds one entry. It panics if the coordinates are out of range, as
// that always indicates a programming error in a generator.
func (a *COO) Append(i, j int32, v float64) {
	if i < 0 || int(i) >= a.Rows || j < 0 || int(j) >= a.Cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of %dx%d", i, j, a.Rows, a.Cols))
	}
	a.I = append(a.I, i)
	a.J = append(a.J, j)
	a.V = append(a.V, v)
}

// Sort orders entries by (row, col). The sort is stable so that duplicate
// entries merge in insertion order; Compact then sums mirrored duplicate
// pairs in the same order, keeping symmetric inputs exactly symmetric under
// floating-point addition.
//
// It is a counting sort by row — linear in entries plus rows — and then a
// stable sort of each row's columns that the scatter did not leave in order.
func (a *COO) Sort() {
	start := make([]int, a.Rows+1)
	for _, i := range a.I {
		start[i+1]++
	}
	for r := 0; r < a.Rows; r++ {
		start[r+1] += start[r]
	}
	type colVal struct {
		j int32
		v float64
	}
	row := make([]colVal, len(a.V))
	next := append([]int(nil), start[:a.Rows]...)
	for k, i := range a.I {
		row[next[i]] = colVal{a.J[k], a.V[k]}
		next[i]++
	}
	byCol := func(x, y colVal) int { return cmp.Compare(x.j, y.j) }
	for r := 0; r < a.Rows; r++ {
		lo, hi := start[r], start[r+1]
		if !slices.IsSortedFunc(row[lo:hi], byCol) {
			slices.SortStableFunc(row[lo:hi], byCol)
		}
		for p := lo; p < hi; p++ {
			a.I[p], a.J[p], a.V[p] = int32(r), row[p].j, row[p].v
		}
	}
}

// Compact sorts the entries and merges duplicates by summing their values.
// Entries that sum to exactly zero are kept (structural nonzeros).
//
// An already compact matrix is left untouched — not even rewritten in place —
// so once a COO has been compacted, the conversions that compact their input
// first (ToCSR, ToCSB, ToSymCSB) only read it and may run concurrently on it.
func (a *COO) Compact() {
	if a.isCompact() {
		return
	}
	a.Sort()
	w := 0
	for r := 1; r < len(a.V); r++ {
		if a.I[r] == a.I[w] && a.J[r] == a.J[w] {
			a.V[w] += a.V[r]
			continue
		}
		w++
		a.I[w], a.J[w], a.V[w] = a.I[r], a.J[r], a.V[r]
	}
	a.I = a.I[:w+1]
	a.J = a.J[:w+1]
	a.V = a.V[:w+1]
}

// isCompact reports whether the entries are strictly increasing in
// (row, col) order: sorted, with no duplicates left to merge.
func (a *COO) isCompact() bool {
	for k := 1; k < len(a.V); k++ {
		if a.I[k] < a.I[k-1] || (a.I[k] == a.I[k-1] && a.J[k] <= a.J[k-1]) {
			return false
		}
	}
	return true
}

// Symmetrize makes the matrix symmetric the way the paper does for the
// non-symmetric SuiteSparse inputs: A_new = L + Lᵀ − D, where L is the lower
// triangle (including the diagonal) of A. Upper-triangular input entries are
// discarded. The receiver must be square.
func (a *COO) Symmetrize() {
	if a.Rows != a.Cols {
		panic("sparse: Symmetrize requires a square matrix")
	}
	n := len(a.V)
	for k := 0; k < n; k++ {
		if a.I[k] > a.J[k] { // strictly lower: mirror it
			a.I = append(a.I, a.J[k])
			a.J = append(a.J, a.I[k])
			a.V = append(a.V, a.V[k])
		} else if a.I[k] < a.J[k] { // strictly upper: drop by zero-weighting onto diagonal mirror
			// Mark for removal by swapping with the mirrored lower entry below.
			// Simpler: convert to lower entry; Compact will merge duplicates.
			a.I[k], a.J[k] = a.J[k], a.I[k]
			a.V[k] = 0
		}
	}
	a.Compact()
	// Remove entries that became exactly zero from dropped upper triangle
	// unless they are diagonal (keep structure of the lower part only).
	w := 0
	for k := range a.V {
		if a.V[k] != 0 || a.I[k] == a.J[k] {
			a.I[w], a.J[w], a.V[w] = a.I[k], a.J[k], a.V[k]
			w++
		}
	}
	a.I, a.J, a.V = a.I[:w], a.J[:w], a.V[:w]
}

// FillRandom replaces every stored value with a uniform random value in
// (0,1], preserving symmetry: entry (i,j) and (j,i) receive the same value.
// The paper uses this for originally-binary matrices. The fill is
// deterministic for a given seed.
func (a *COO) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for k := range a.V {
		i, j := a.I[k], a.J[k]
		if i <= j {
			a.V[k] = symRandVal(i, j, rng, seed)
		} else {
			a.V[k] = symRandVal(j, i, rng, seed)
		}
	}
}

// symRandVal returns a deterministic pseudo-random value for the unordered
// pair (i,j) so that symmetric counterparts agree without a lookup table.
func symRandVal(i, j int32, _ *rand.Rand, seed int64) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(uint32(i))*0xBF58476D1CE4E5B9 + uint64(uint32(j))*0x94D049BB133111EB
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	// Map to (0, 1].
	return (float64(h>>11) + 1) / float64(1<<53)
}

// IsSymmetric reports whether the matrix pattern and values are symmetric.
// Intended for tests; cost is O(nnz log nnz).
func (a *COO) IsSymmetric() bool {
	if a.Rows != a.Cols {
		return false
	}
	type key struct{ i, j int32 }
	m := make(map[key]float64, len(a.V))
	for k := range a.V {
		m[key{a.I[k], a.J[k]}] += a.V[k]
	}
	//lint:ignore sparselint/determinism order-independent predicate: the result is a conjunction over all entries
	for k, v := range m {
		if m[key{k.j, k.i}] != v {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (a *COO) Clone() *COO {
	b := &COO{Rows: a.Rows, Cols: a.Cols,
		I: make([]int32, len(a.I)),
		J: make([]int32, len(a.J)),
		V: make([]float64, len(a.V)),
	}
	copy(b.I, a.I)
	copy(b.J, a.J)
	copy(b.V, a.V)
	return b
}
