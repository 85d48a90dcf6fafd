package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomLower builds a random, well-conditioned lower-triangular CSR with an
// explicit dominant diagonal.
func randomLower(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3 && i > 0; k++ {
			j := rng.Intn(i)
			coo.Append(int32(i), int32(j), rng.NormFloat64())
		}
		coo.Append(int32(i), int32(i), 4+rng.Float64())
	}
	return coo.ToCSR()
}

func TestLowerUpperSolveInverse(t *testing.T) {
	n := 200
	l := randomLower(n, 11)
	u := l.Transpose()
	rng := rand.New(rand.NewSource(5))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	// Forward: b = L·want, solve, compare.
	b := make([]float64, n)
	l.SpMV(b, want)
	x := make([]float64, n)
	l.LowerSolve(x, b)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("lower solve x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	// Backward: b = U·want = Lᵀ·want.
	u.SpMV(b, want)
	u.UpperSolve(x, b)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("upper solve x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	l := randomLower(60, 7)
	tt := l.Transpose().Transpose()
	if tt.Rows != l.Rows || tt.NNZ() != l.NNZ() {
		t.Fatalf("transpose round trip changed shape")
	}
	for k := range l.V {
		if l.ColIdx[k] != tt.ColIdx[k] || l.V[k] != tt.V[k] {
			t.Fatalf("transpose round trip changed entry %d", k)
		}
	}
}

func TestLowerTriangle(t *testing.T) {
	coo := NewCOO(3, 3, 5)
	coo.Append(0, 0, 1)
	coo.Append(0, 2, 9) // strictly upper: dropped
	coo.Append(1, 0, 2)
	coo.Append(1, 1, 3)
	coo.Append(2, 2, 4)
	l := coo.ToCSR().LowerTriangle()
	if l.NNZ() != 4 {
		t.Fatalf("lower triangle nnz = %d, want 4", l.NNZ())
	}
	for i := 0; i < l.Rows; i++ {
		for p := l.RowPtr[i]; p < l.RowPtr[i+1]; p++ {
			if int(l.ColIdx[p]) > i {
				t.Fatalf("upper entry survived at (%d,%d)", i, l.ColIdx[p])
			}
		}
	}
}
