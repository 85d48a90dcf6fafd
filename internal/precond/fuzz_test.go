package precond

import (
	"math"
	"strings"
	"testing"

	"sparsetask/internal/sparse"
)

// FuzzIC0FromMatrixMarket feeds MatrixMarket documents straight into the
// factorization and triangular-solve path: whatever square symmetric-pattern
// matrix the reader accepts, Factorize must either return a usable
// preconditioner (whose Apply terminates and whose level analysis is
// self-consistent) or a clean error — never panic, hang, or emit NaN levels.
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
		m, err := Factorize(a)
		if err != nil {
			return // rectangular or zero-diagonal inputs are rejected cleanly
		}
		if m.Kind == KindIC0 {
			for _, v := range m.L.V {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("IC0 factor contains non-finite value %v", v)
				}
			}
			for _, block := range []int{1, 3} {
				low := AnalyzeLower(m.L, block)
				up := AnalyzeUpper(m.U, block)
				for _, lv := range []*Levels{low, up} {
					sum := 0
					for _, w := range lv.Widths {
						sum += w
					}
					if sum != lv.NB {
						t.Fatalf("widths sum %d != %d blocks", sum, lv.NB)
					}
					for bi := 0; bi < lv.NB; bi++ {
						for _, j := range lv.BlockDeps[bi] {
							if lv.LevelOf[j] >= lv.LevelOf[bi] {
								t.Fatalf("dep level inversion at block %d", bi)
							}
						}
					}
				}
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
