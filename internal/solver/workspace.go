package solver

import "fmt"

// rrWorkspace is the Rayleigh–Ritz scratch arena: every buffer the LOBPCG
// small step needs, sized once for block width n (subspace dimension d = 3n)
// at solver construction. The per-iteration rayleighRitz call slices into it
// instead of allocating, making steady-state solver iterations free of heap
// allocations — the GC-pressure analog of the paper's "no malloc inside the
// timed loop" discipline.
//
// Buffers sized d×d are also used for the r×r (r ≤ d) second eigenproblem by
// re-slicing, so the arena covers every rank-filtered shape.
type rrWorkspace struct {
	g, o    []float64 // d×d Gram matrices of the 3n-dimensional subspace
	keep    []int     // indices of directions surviving the rank filter
	w       []float64 // d×r soft-orthogonalization basis
	gw      []float64 // d×r product G·W
	gt      []float64 // r×r projected Gram matrix Wᵀ·G·W
	u       []float64 // r×n smallest Ritz vectors of gt
	c3      []float64 // d×n assembled coefficient block W·U
	eigWork []float64 // d×d scratch shared by both SymEigInto calls
	oVals   []float64 // d    eigenvalues of O
	oVecs   []float64 // d×d  eigenvectors of O
	tVals   []float64 // d    eigenvalues of gt (first r used)
	tVecs   []float64 // d×d  eigenvectors of gt (first r×r used)

	iter      int   // Rayleigh–Ritz steps since initState: the iteration number
	breakdown error // why the last step kept the previous coefficients; nil if it did not
}

// fail records why this step keeps the previous coefficients.
func (ws *rrWorkspace) fail(reason error) {
	ws.breakdown = fmt.Errorf("lobpcg: Rayleigh–Ritz breakdown at iteration %d: %w", ws.iter, reason)
}

func newRRWorkspace(n int) *rrWorkspace {
	d := 3 * n
	return &rrWorkspace{
		g:       make([]float64, d*d),
		o:       make([]float64, d*d),
		keep:    make([]int, 0, d),
		w:       make([]float64, d*d),
		gw:      make([]float64, d*d),
		gt:      make([]float64, d*d),
		u:       make([]float64, d*n),
		c3:      make([]float64, d*n),
		eigWork: make([]float64, d*d),
		oVals:   make([]float64, d),
		oVecs:   make([]float64, d*d),
		tVals:   make([]float64, d),
		tVecs:   make([]float64, d*d),
	}
}
