package precond_test

import (
	"math"
	"strings"
	"testing"

	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// FuzzIC0FromMatrixMarket feeds MatrixMarket documents straight into the
// factorization and triangular-solve path: whatever square symmetric-pattern
// matrix the reader accepts, Factorize must either return a usable
// preconditioner (whose Apply terminates, whose segment order is
// topological, whose level count is the frozen block scan's, and whose
// segment kernels reproduce the CSR solves bit for bit) or a clean error —
// never panic or hang.
func FuzzIC0FromMatrixMarket(f *testing.F) {
	// Seeds exercise the triangular path: an SPD tridiagonal matrix (clean
	// IC(0)), an indefinite matrix (Jacobi fallback), an arrow matrix whose
	// forward solve collapses to two levels, a diagonal, degenerate and
	// malformed shapes, and a NaN value the reader refuses.
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n1 1 4\n2 1 -1\n2 2 4\n3 2 -1\n3 3 4\n4 3 -1\n4 4 4\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 1 2\n2 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n5 5 9\n1 1 8\n2 2 8\n3 3 8\n4 4 8\n5 5 8\n5 1 -1\n5 2 -1\n5 3 -1\n5 4 -1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2\n2 2 2\n3 3 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 NaN\n2 1 1\n2 2 4\n3 3 4\n")

	f.Fuzz(func(t *testing.T, doc string) {
		coo, err := sparse.ReadMatrixMarket(strings.NewReader(doc))
		if err != nil {
			return // refused before factorization: malformed, or a NaN/Inf value
		}
		if coo.Rows > 1<<12 || coo.NNZ() > 1<<16 {
			t.Skip() // keep fuzz iterations fast
		}
		a := coo.ToCSR()
		m, err := precond.Factorize(a)
		if err != nil {
			return // rectangular or zero-diagonal inputs are rejected cleanly
		}
		if m.Kind == precond.KindIC0 {
			for _, v := range m.L.V {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("IC0 factor contains non-finite value %v", v)
				}
			}
			for _, block := range []int{1, 3, max(a.Rows, 1)} {
				checkFuzzedFactor(t, m.L, block, false)
				checkFuzzedFactor(t, m.U, block, true)
			}
		}
		r := make([]float64, a.Rows)
		for i := range r {
			r[i] = 1
		}
		z := make([]float64, a.Rows)
		m.Apply(z, make([]float64, a.Rows), r)
	})
}

// checkFuzzedFactor holds the substitution analysis of one factor at one
// block size to the segment DAG's invariants: SegOrder lists every segment
// once after its dependencies, NumLevels is the frozen block scan's, and the
// segment kernels run in SegOrder equal the CSR solve bit for bit.
func checkFuzzedFactor(t *testing.T, a *sparse.CSR, block int, upper bool) {
	t.Helper()
	lv := precond.AnalyzeLower(a, block)
	if upper {
		lv = precond.AnalyzeUpper(a, block)
	}
	if lv.Err != nil {
		t.Fatalf("block %d upper=%v: %v", block, upper, lv.Err)
	}
	tri := lv.Tri
	done := make([]bool, len(tri.SegDeps))
	for _, s := range tri.SegOrder {
		for _, d := range tri.SegDeps[s] {
			if !done[d] {
				t.Fatalf("block %d upper=%v: SegOrder puts segment %d before its dependency %d", block, upper, s, d)
			}
		}
		if done[s] {
			t.Fatalf("block %d upper=%v: SegOrder lists segment %d twice", block, upper, s)
		}
		done[s] = true
	}
	if len(tri.SegOrder) != len(done) {
		t.Fatalf("block %d upper=%v: SegOrder lists %d of %d segments", block, upper, len(tri.SegOrder), len(done))
	}
	if want := frozenAnalyze(a, block, upper).numLevels; lv.NumLevels != want {
		t.Fatalf("block %d upper=%v: %d levels, frozen scan %d", block, upper, lv.NumLevels, want)
	}
	n := a.Rows
	b, x, ref := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 1.5
	}
	for _, s := range tri.SegOrder {
		tri.SolveSeg(x, b, int(s))
	}
	if upper {
		a.UpperSolve(ref, b)
	} else {
		a.LowerSolve(ref, b)
	}
	for i := range ref {
		if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("block %d upper=%v: x[%d] = %v, CSR solve %v", block, upper, i, x[i], ref[i])
		}
	}
}
