package sparse

import "fmt"

// Whole-matrix serial triangular solves over CSR factors: the oracles the
// block-granular substitution (BlockTri, the storage the TTrsv tasks solve
// on) is validated against, and what the serial reference solvers and
// IC0.Apply run.
//
// Rows are scanned in CSR order, so the floating-point accumulation order is
// a pure function of the factor — the property BlockTri preserves and the
// cross-topology determinism tests pin down. Both assume what NewBlockTri
// checks: every row stores its diagonal, and nothing on the wrong side of it.

// LowerSolve performs forward substitution on the lower-triangular system
// L·x = b: x[i] = (b[i] − Σ_{j<i} L(i,j)·x[j]) / L(i,i), rows ascending.
// x and b may alias only when x == b.
func (a *CSR) LowerSolve(x, b []float64) {
	if len(x) != a.Rows || len(b) != a.Rows {
		panic(fmt.Sprintf("sparse: LowerSolve shape mismatch: A is %dx%d, x %d, b %d", a.Rows, a.Cols, len(x), len(b)))
	}
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		d := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := int(a.ColIdx[p])
			if c == i {
				d = a.V[p]
			} else if c < i {
				s -= a.V[p] * x[c]
			}
		}
		x[i] = s / d
	}
}

// UpperSolve performs backward substitution on the upper-triangular system
// U·x = b: x[i] = (b[i] − Σ_{j>i} U(i,j)·x[j]) / U(i,i), rows descending.
func (a *CSR) UpperSolve(x, b []float64) {
	if len(x) != a.Rows || len(b) != a.Rows {
		panic(fmt.Sprintf("sparse: UpperSolve shape mismatch: A is %dx%d, x %d, b %d", a.Rows, a.Cols, len(x), len(b)))
	}
	for i := a.Rows - 1; i >= 0; i-- {
		s := b[i]
		d := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := int(a.ColIdx[p])
			if c == i {
				d = a.V[p]
			} else if c > i {
				s -= a.V[p] * x[c]
			}
		}
		x[i] = s / d
	}
}

// Transpose returns Aᵀ in CSR with every row's columns in ascending order —
// the transform that turns a lower-triangular Cholesky factor L into the
// upper-triangular U = Lᵀ the backward solve consumes.
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int64, a.Cols+1),
		ColIdx: make([]int32, a.NNZ()),
		V:      make([]float64, a.NNZ()),
	}
	for _, c := range a.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < t.Rows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := make([]int64, t.Rows)
	copy(next, t.RowPtr[:t.Rows])
	// Walking A's rows in ascending order writes each transposed row's
	// columns in ascending order, so no per-row sort is needed.
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := a.ColIdx[p]
			q := next[c]
			next[c]++
			t.ColIdx[q] = int32(i)
			t.V[q] = a.V[p]
		}
	}
	return t
}

// LowerTriangle extracts the lower triangle of a (including the diagonal) as
// a new CSR, preserving per-row column order.
func (a *CSR) LowerTriangle() *CSR {
	l := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.ColIdx[p]) <= i {
				l.RowPtr[i+1]++
			}
		}
	}
	for r := 0; r < a.Rows; r++ {
		l.RowPtr[r+1] += l.RowPtr[r]
	}
	nnz := l.RowPtr[a.Rows]
	l.ColIdx = make([]int32, nnz)
	l.V = make([]float64, nnz)
	q := int64(0)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.ColIdx[p]) <= i {
				l.ColIdx[q] = a.ColIdx[p]
				l.V[q] = a.V[p]
				q++
			}
		}
	}
	return l
}
