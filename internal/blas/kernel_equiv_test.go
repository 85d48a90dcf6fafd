package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Equivalence gates for the register-blocked dense kernels: the 4×-unrolled
// j-loops, the multi-accumulator gemmN1/Dot reductions, the v==0 skip, and
// the beta∈{0,1,other} branches must all agree with naive triple loops to
// 1e-12 relative error. The coefficient grid pins every special-cased branch.

func naiveGemmTN(alpha float64, a []float64, k, m int, b []float64, n int, beta float64, c []float64) {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[p*m+i] * b[p*n+j]
			}
			out[i*n+j] = alpha*s + beta*c[i*n+j]
		}
	}
	copy(c, out)
}

// sprinkleZeros forces exact zeros into x so the kernels' v==0 skip paths are
// exercised on every shape, not just by luck.
func sprinkleZeros(rng *rand.Rand, x []float64) {
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = 0
		}
	}
}

func TestGemmEquivalenceCoefficientGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 1}, {7, 1, 9}, {1, 8, 8},
		{9, 5, 2}, {6, 7, 4}, {13, 11, 8}, {16, 2, 3}, {3, 17, 5},
	}
	for _, s := range shapes {
		for _, alpha := range []float64{0, 1, -1, 0.3} {
			for _, beta := range []float64{0, 1, 0.7} {
				a := randSlice(rng, s.m*s.k)
				b := randSlice(rng, s.k*s.n)
				sprinkleZeros(rng, a)
				c1 := randSlice(rng, s.m*s.n)
				c2 := append([]float64(nil), c1...)
				Gemm(alpha, a, s.m, s.k, b, s.n, beta, c1)
				naiveGemm(alpha, a, s.m, s.k, b, s.n, beta, c2)
				for i := range c1 {
					if !almostEq(c1[i], c2[i], 1e-12) {
						t.Fatalf("Gemm m=%d k=%d n=%d alpha=%g beta=%g: c[%d] = %g, want %g",
							s.m, s.k, s.n, alpha, beta, i, c1[i], c2[i])
					}
				}
			}
		}
	}
}

func TestGemmTNEquivalenceCoefficientGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := []struct{ k, m, n int }{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 1}, {9, 1, 7}, {8, 8, 1},
		{11, 5, 2}, {7, 6, 4}, {17, 3, 8}, {2, 16, 3}, {13, 9, 5},
	}
	for _, s := range shapes {
		for _, alpha := range []float64{0, 1, -1, 0.3} {
			for _, beta := range []float64{0, 1, 0.7} {
				a := randSlice(rng, s.k*s.m)
				b := randSlice(rng, s.k*s.n)
				sprinkleZeros(rng, b)
				c1 := randSlice(rng, s.m*s.n)
				c2 := append([]float64(nil), c1...)
				GemmTN(alpha, a, s.k, s.m, b, s.n, beta, c1)
				naiveGemmTN(alpha, a, s.k, s.m, b, s.n, beta, c2)
				for i := range c1 {
					if !almostEq(c1[i], c2[i], 1e-12) {
						t.Fatalf("GemmTN k=%d m=%d n=%d alpha=%g beta=%g: c[%d] = %g, want %g",
							s.k, s.m, s.n, alpha, beta, i, c1[i], c2[i])
					}
				}
			}
		}
	}
}

func TestGemmEquivalenceFuzzShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for it := 0; it < iters; it++ {
		m, k, n := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		sprinkleZeros(rng, a)
		sprinkleZeros(rng, b)
		c1 := randSlice(rng, m*n)
		c2 := append([]float64(nil), c1...)
		if it%2 == 0 {
			Gemm(alpha, a, m, k, b, n, beta, c1)
			naiveGemm(alpha, a, m, k, b, n, beta, c2)
		} else {
			GemmTN(alpha, a, k, m, b, n, beta, c1)
			naiveGemmTN(alpha, a, k, m, b, n, beta, c2)
		}
		for i := range c1 {
			if !almostEq(c1[i], c2[i], 1e-12) {
				t.Fatalf("fuzz iter %d (m=%d k=%d n=%d): c[%d] = %g, want %g", it, m, k, n, i, c1[i], c2[i])
			}
		}
	}
}

// TestGemmTileMatchesGoTiles holds the dispatch of Gemm and GemmTN, which
// runs the assembly tile on whole groups of four rows and columns and the Go
// tiles on the rest, to the Go tiles alone, bit for bit: every tile shape
// LOBPCG and its Rayleigh–Ritz step use, ragged on both axes, through all
// three of storeScaled's branches. Output buffers start as NaN when beta is
// 0, so a tile that reads instead of overwriting shows.
func TestGemmTileMatchesGoTiles(t *testing.T) {
	if !simd {
		t.Skip("no AVX2 tile in this build or on this CPU: the Go tiles are the only path")
	}
	rng := rand.New(rand.NewSource(27))
	small := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 24}
	cols := []int{4, 5, 6, 7, 8, 9, 16, 24} // below four the dispatch takes no tile
	tall := []int{0, 1, 4, 7, 8, 2056, 2058}
	coeffs := [][2]float64{{1, 0}, {0, 0}, {-0.5, 0}, {1, 1}, {0, 1}, {2, 1}, {1, 0.3}, {0, -2}, {-0.5, 0.3}}
	for _, m := range small {
		for _, n := range cols {
			for _, rows := range tall {
				for _, ab := range coeffs {
					alpha, beta := ab[0], ab[1]
					x, y, s := randSlice(rng, rows*m), randSlice(rng, rows*n), randSlice(rng, m*n)
					// XY: rows×m times m×n into rows×n, as LOBPCG's updates.
					if rows >= 4 {
						got := startC(rng, rows*n, beta)
						want := append([]float64(nil), got...)
						Gemm(alpha, x, rows, m, s, n, beta, got)
						gemmTiled(alpha, x, m, s, n, beta, want, 0, rows, 0)
						if err := sameBits(got, want); err != nil {
							t.Fatalf("Gemm rows=%d m=%d n=%d alpha=%g beta=%g: %v", rows, m, n, alpha, beta, err)
						}
					}
					// XTY: rows×m transposed times rows×n into m×n, as its inner
					// products.
					if m >= 4 {
						got := startC(rng, m*n, beta)
						want := append([]float64(nil), got...)
						GemmTN(alpha, x, rows, m, y, n, beta, got)
						gemmTNTiled(alpha, x, rows, m, y, n, beta, want, 0, m, 0)
						if err := sameBits(got, want); err != nil {
							t.Fatalf("GemmTN rows=%d m=%d n=%d alpha=%g beta=%g: %v", rows, m, n, alpha, beta, err)
						}
					}
				}
			}
		}
	}
}

// startC returns an output buffer of random values, or of NaN when beta is 0.
func startC(rng *rand.Rand, size int, beta float64) []float64 {
	c := randSlice(rng, size)
	if beta == 0 {
		for i := range c {
			c[i] = math.NaN()
		}
	}
	return c
}

// sameBits reports the first element where got and want differ in any bit.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("c[%d] = %v, Go tiles give %v", i, got[i], want[i])
		}
	}
	return nil
}

func TestDotAxpyUnrollEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Lengths straddling the 4× unroll boundary plus a long one, so both the
	// unrolled body and every tail length are checked.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 1000} {
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		var want float64
		for i := 0; i < n; i++ {
			want += x[i] * y[i]
		}
		if got := Dot(x, y); !almostEq(got, want, 1e-12) {
			t.Fatalf("Dot len=%d: got %g, want %g", n, got, want)
		}
		alpha := rng.NormFloat64()
		y2 := append([]float64(nil), y...)
		Axpy(alpha, x, y2)
		for i := 0; i < n; i++ {
			if !almostEq(y2[i], y[i]+alpha*x[i], 1e-12) {
				t.Fatalf("Axpy len=%d: y[%d] = %g, want %g", n, i, y2[i], y[i]+alpha*x[i])
			}
		}
	}
}

func TestScalZeroClears(t *testing.T) {
	x := []float64{1, math.Inf(1), math.NaN(), -3}
	Scal(0, x)
	for i, v := range x {
		if v != 0 {
			t.Fatalf("Scal(0): x[%d] = %g, want exact 0", i, v)
		}
	}
}

// SymEigInto is the allocation-free core that SymEig wraps; with fresh
// buffers the two must produce identical results.
func TestSymEigIntoMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12} {
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				a[i*n+j] = v
				a[j*n+i] = v
			}
		}
		vals1, vecs1, err := SymEig(a, n)
		if err != nil {
			t.Fatal(err)
		}
		work := make([]float64, n*n)
		vals2 := make([]float64, n)
		vecs2 := make([]float64, n*n)
		if err := SymEigInto(a, n, work, vals2, vecs2); err != nil {
			t.Fatal(err)
		}
		for i := range vals1 {
			if vals1[i] != vals2[i] {
				t.Fatalf("n=%d: eigenvalue %d differs: %g vs %g", n, i, vals1[i], vals2[i])
			}
		}
		for i := range vecs1 {
			if vecs1[i] != vecs2[i] {
				t.Fatalf("n=%d: eigenvector entry %d differs: %g vs %g", n, i, vecs1[i], vecs2[i])
			}
		}
	}
}

func TestSymEigIntoRejectsShortBuffers(t *testing.T) {
	a := []float64{2, 1, 1, 2}
	if err := SymEigInto(a, 2, make([]float64, 3), make([]float64, 2), make([]float64, 4)); err == nil {
		t.Fatal("short work buffer accepted")
	}
	if err := SymEigInto(a, 2, make([]float64, 4), make([]float64, 1), make([]float64, 4)); err == nil {
		t.Fatal("short vals buffer accepted")
	}
	if err := SymEigInto(a, 2, make([]float64, 4), make([]float64, 2), make([]float64, 3)); err == nil {
		t.Fatal("short vecs buffer accepted")
	}
}
