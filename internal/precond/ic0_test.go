package precond

import (
	"math"
	"math/rand"
	"testing"

	"sparsetask/internal/sparse"
)

// laplacian2D builds the symmetric 5-point Laplacian on a g×g grid — SPD and
// M-matrix-like, so IC(0) must succeed on it.
func laplacian2D(g int) *sparse.CSR {
	n := g * g
	coo := sparse.NewCOO(n, n, 5*n)
	at := func(r, c int) int { return r*g + c }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := at(r, c)
			coo.Append(int32(i), int32(i), 4)
			if r > 0 {
				coo.Append(int32(i), int32(at(r-1, c)), -1)
			}
			if r < g-1 {
				coo.Append(int32(i), int32(at(r+1, c)), -1)
			}
			if c > 0 {
				coo.Append(int32(i), int32(at(r, c-1)), -1)
			}
			if c < g-1 {
				coo.Append(int32(i), int32(at(r, c+1)), -1)
			}
		}
	}
	return coo.ToCSR()
}

func TestFactorizeIC0Laplacian(t *testing.T) {
	a := laplacian2D(9)
	m, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindIC0 {
		t.Fatalf("expected IC0 on the Laplacian, got %v (breakdown row %d)", m.Kind, m.BreakdownRow)
	}
	n := a.Rows
	// L·Lᵀ must match A exactly on the lower-triangle sparsity pattern —
	// the defining property of IC(0).
	lt := m.L.Transpose()
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := int(a.ColIdx[p])
			if j > i {
				continue
			}
			// (L·Lᵀ)(i,j) = row i of L · row j of L.
			s := dotRows(m.L, i, j)
			if math.Abs(s-a.V[p]) > 1e-12 {
				t.Fatalf("(LLᵀ)(%d,%d) = %g, want A = %g", i, j, s, a.V[p])
			}
		}
	}
	// U must be exactly Lᵀ.
	if m.U.NNZ() != lt.NNZ() {
		t.Fatalf("U nnz %d != Lᵀ nnz %d", m.U.NNZ(), lt.NNZ())
	}
	for k := range m.U.V {
		if m.U.ColIdx[k] != lt.ColIdx[k] || m.U.V[k] != lt.V[k] {
			t.Fatalf("U entry %d differs from Lᵀ", k)
		}
	}
}

func dotRows(l *sparse.CSR, i, j int) float64 {
	s := 0.0
	pi, pj := l.RowPtr[i], l.RowPtr[j]
	for pi < l.RowPtr[i+1] && pj < l.RowPtr[j+1] {
		ci, cj := l.ColIdx[pi], l.ColIdx[pj]
		switch {
		case ci == cj:
			s += l.V[pi] * l.V[pj]
			pi++
			pj++
		case ci < cj:
			pi++
		default:
			pj++
		}
	}
	return s
}

// A NaN pivot is a breakdown like a negative one: the reader now refuses such
// a document, so the fuzz seed that carried it no longer reaches Factorize,
// and this holds the factorization to it directly.
func TestFactorizeNaNPivotFallsBackToJacobi(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	coo.Append(0, 0, math.NaN())
	coo.Append(1, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(1, 1, 4)
	coo.Append(2, 2, 4)
	m, err := Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindJacobi || m.BreakdownRow != 0 {
		t.Fatalf("kind %v, breakdown row %d: want a Jacobi fallback at row 0", m.Kind, m.BreakdownRow)
	}
}

// TestFactorizeBreakdownFallsBackToJacobi feeds a symmetric matrix with an
// indefinite leading structure: IC(0) hits a non-positive pivot and must
// return a Jacobi preconditioner instead of NaNs.
func TestFactorizeBreakdownFallsBackToJacobi(t *testing.T) {
	// [ 1  2 ; 2  1 ]: pivot 2 becomes 1 − 2² = −3 < 0.
	coo := sparse.NewCOO(2, 2, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, 2)
	coo.Append(1, 1, 1)
	m, err := Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindJacobi {
		t.Fatalf("expected Jacobi fallback, got %v", m.Kind)
	}
	if m.BreakdownRow != 1 {
		t.Fatalf("breakdown row = %d, want 1", m.BreakdownRow)
	}
	z := make([]float64, 2)
	m.Apply(z, make([]float64, 2), []float64{3, 5})
	if z[0] != 3 || z[1] != 5 {
		t.Fatalf("Jacobi apply = %v, want [3 5]", z)
	}
}

func TestFactorizeRejectsZeroDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	if _, err := Factorize(coo.ToCSR()); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

func TestFactorizeRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 0, 1)
	if _, err := Factorize(coo.ToCSR()); err != ErrNotSquare {
		t.Fatal("expected ErrNotSquare")
	}
}

// TestApplySolvesExactly checks that for a matrix whose IC(0) pattern equals
// the full Cholesky pattern (a tridiagonal matrix), Apply inverts A exactly:
// A·z = r up to rounding.
func TestApplySolvesExactly(t *testing.T) {
	n := 50
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(int32(i), int32(i), 4)
		if i > 0 {
			coo.Append(int32(i), int32(i-1), -1)
			coo.Append(int32(i-1), int32(i), -1)
		}
	}
	a := coo.ToCSR()
	m, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindIC0 {
		t.Fatalf("expected IC0, got %v", m.Kind)
	}
	rng := rand.New(rand.NewSource(3))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	y := make([]float64, n)
	m.Apply(z, y, r)
	az := make([]float64, n)
	a.SpMV(az, z)
	for i := range r {
		if math.Abs(az[i]-r[i]) > 1e-10 {
			t.Fatalf("A·z differs from r at %d: %g vs %g", i, az[i], r[i])
		}
	}
}
