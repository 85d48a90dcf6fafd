// Package precond builds preconditioners for the PCG solver: an IC(0)
// incomplete-Cholesky factorization of a symmetric CSR matrix with a Jacobi
// fallback on pivot breakdown, and the level-scheduling analysis that turns
// the resulting triangular solves into irregular task graphs (see levels.go).
//
// The factorization is computed once per matrix and is deliberately serial —
// solverd memoizes it per matrix fingerprint — while the solves it enables
// run as TTrsv tasks of the solver's task graph on every rt backend:
// sched.Executor under DeepSparse and HPX, sched.Team under BSP, and Regent's
// own worker team.
package precond

import (
	"errors"
	"fmt"
	"math"

	"sparsetask/internal/sparse"
)

// Kind names which preconditioner Factorize actually produced.
type Kind int

const (
	// KindIC0 means the incomplete Cholesky factorization succeeded and
	// Apply performs the two triangular solves L·y = r, Lᵀ·z = y.
	KindIC0 Kind = iota
	// KindJacobi means IC(0) hit a non-positive pivot and Factorize fell
	// back to diagonal scaling: z = D⁻¹·r.
	KindJacobi
)

func (k Kind) String() string {
	if k == KindJacobi {
		return "jacobi"
	}
	return "ic0"
}

// IC0 is the factorization result. For KindIC0 both L (lower triangular,
// diagonal stored last in each row's lower part) and U = Lᵀ (upper
// triangular) are populated; for KindJacobi only DiagInv is.
type IC0 struct {
	Kind    Kind
	Rows    int
	L       *sparse.CSR // lower factor with explicit diagonal; nil for Jacobi
	U       *sparse.CSR // Lᵀ as an upper CSR for the backward solve; nil for Jacobi
	DiagInv []float64   // 1/A(i,i); always populated (Jacobi fallback and diagnostics)

	// BreakdownRow is the row whose pivot went non-positive when Kind is
	// KindJacobi, -1 otherwise.
	BreakdownRow int
}

// ErrNotSquare is returned when the input matrix is not square.
var ErrNotSquare = errors.New("precond: matrix must be square")

// Factorize computes the IC(0) factorization A ≈ L·Lᵀ on the lower-triangle
// sparsity pattern of a. The algorithm is row-oriented up-looking: for each
// row i and each stored lower entry (i,k),
//
//	L(i,k) = (A(i,k) − Σ_{j<k} L(i,j)·L(k,j)) / L(k,k)
//	L(i,i) = sqrt(A(i,i) − Σ_{j<i} L(i,j)²)
//
// with the inner sums ranging over the shared sparsity of rows i and k of L
// (a two-pointer merge of the sorted rows). If any diagonal pivot fails to
// stay positive the routine abandons IC(0) and returns a Jacobi (inverse
// diagonal) preconditioner instead — the standard remedy for matrices that
// are SPD but not M-matrix-like enough for an incomplete factorization.
//
// a must be symmetric with a fully stored pattern (both triangles) and a
// nonzero diagonal; only the lower triangle is read.
func Factorize(a *sparse.CSR) (*IC0, error) {
	if a.Rows != a.Cols {
		return nil, ErrNotSquare
	}
	n := a.Rows
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		d := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.ColIdx[p]) == i {
				d = a.V[p]
				break
			}
		}
		if d == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
		dinv[i] = 1 / d
	}

	l := a.LowerTriangle()
	if row := factorizeInPlace(l); row >= 0 {
		return &IC0{Kind: KindJacobi, Rows: n, DiagInv: dinv, BreakdownRow: row}, nil
	}
	return &IC0{
		Kind:         KindIC0,
		Rows:         n,
		L:            l,
		U:            l.Transpose(),
		DiagInv:      dinv,
		BreakdownRow: -1,
	}, nil
}

// factorizeInPlace overwrites the values of the lower triangle l with the
// IC(0) factor. It returns the first row with a non-positive pivot, or -1 on
// success. Each row of l must have ascending columns with the diagonal last.
func factorizeInPlace(l *sparse.CSR) int {
	n := l.Rows
	// diagPos[k] is the index of L(k,k) in l.V; filled as rows complete.
	diagPos := make([]int64, n)
	for i := 0; i < n; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if hi == lo || int(l.ColIdx[hi-1]) != i {
			// Diagonal must be the last stored entry of a lower row.
			return i
		}
		for p := lo; p < hi-1; p++ {
			k := int(l.ColIdx[p])
			// Dot the finished prefixes of rows i and k (columns < k) via a
			// two-pointer merge of their sorted column lists.
			s := l.V[p]
			pi, pk := lo, l.RowPtr[k]
			for pi < p && pk < diagPos[k] {
				ci, ck := l.ColIdx[pi], l.ColIdx[pk]
				switch {
				case ci == ck:
					s -= l.V[pi] * l.V[pk]
					pi++
					pk++
				case ci < ck:
					pi++
				default:
					pk++
				}
			}
			l.V[p] = s * l.V[diagPos[k]] // diag slot holds 1/L(k,k), see below
		}
		d := l.V[hi-1]
		for p := lo; p < hi-1; p++ {
			d -= l.V[p] * l.V[p]
		}
		if !(d > 0) || math.IsInf(d, 0) || math.IsNaN(d) {
			return i
		}
		diagPos[i] = hi - 1
		// Store the reciprocal during factorization so the inner update is a
		// multiply; fixed up to the true diagonal after the loop.
		l.V[hi-1] = 1 / math.Sqrt(d)
	}
	for i := 0; i < n; i++ {
		l.V[diagPos[i]] = 1 / l.V[diagPos[i]]
	}
	return -1
}

// Apply computes z = M⁻¹·r serially: two triangular solves for IC(0)
// (using y as scratch), or diagonal scaling for Jacobi. This is the
// reference implementation; the PCG solver applies the same operation with
// the segment kernels, as tasks in each iteration and in SegOrder at set-up.
func (m *IC0) Apply(z, y, r []float64) {
	if m.Kind == KindJacobi {
		for i := range z {
			z[i] = m.DiagInv[i] * r[i]
		}
		return
	}
	m.L.LowerSolve(y, r)
	m.U.UpperSolve(z, y)
}
