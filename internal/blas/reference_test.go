package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceSymEigJacobi is the cyclic Jacobi eigensolver SymEigInto ran
// before it became Householder tridiagonalization plus implicit QL, frozen
// here as the oracle the new method is held to: eigenvalues ascending, the
// eigenvectors as the columns of vecs (row-major n×n).
func referenceSymEigJacobi(a []float64, n int) (vals, vecs []float64, err error) {
	w := make([]float64, n*n)
	copy(w, a[:n*n])
	// Symmetry check with a tolerance scaled by magnitude.
	var amax float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m := math.Abs(w[i*n+j]); m > amax {
				amax = m
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(w[i*n+j]-w[j*n+i]) > 1e-8*(1+amax) {
				return nil, nil, fmt.Errorf("blas: SymEig input not symmetric at (%d,%d): %g vs %g", i, j, w[i*n+j], w[j*n+i])
			}
			// Enforce exact symmetry so rotations stay consistent.
			m := 0.5 * (w[i*n+j] + w[j*n+i])
			w[i*n+j], w[j*n+i] = m, m
		}
	}

	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w[i*n+j] * w[i*n+j]
			}
		}
		if off <= 1e-30*(1+amax*amax) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w[p*n+p]
				aqq := w[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation G(p,q,θ): W ← GᵀWG, V ← VG.
				for k := 0; k < n; k++ {
					wkp := w[k*n+p]
					wkq := w[k*n+q]
					w[k*n+p] = c*wkp - s*wkq
					w[k*n+q] = s*wkp + c*wkq
				}
				for k := 0; k < n; k++ {
					wpk := w[p*n+k]
					wqk := w[q*n+k]
					w[p*n+k] = c*wpk - s*wqk
					w[q*n+k] = s*wpk + c*wqk
				}
				for k := 0; k < n; k++ {
					vkp := v[k*n+p]
					vkq := v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}

	ev := make([]float64, n)
	for i := 0; i < n; i++ {
		ev[i] = w[i*n+i]
	}
	// Sort eigenpairs ascending by eigenvalue (insertion sort: n is tiny).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ev[j] < ev[j-1]; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
			for k := 0; k < n; k++ {
				v[k*n+j], v[k*n+j-1] = v[k*n+j-1], v[k*n+j]
			}
		}
	}
	return ev, v, nil
}

// denseTridiag is the symmetric tridiagonal (d, e) as a dense row-major
// matrix.
func denseTridiag(d, e []float64) []float64 {
	k := len(d)
	a := make([]float64, k*k)
	for i := range d {
		a[i*k+i] = d[i]
		if i+1 < k {
			a[i*k+i+1], a[(i+1)*k+i] = e[i], e[i]
		}
	}
	return a
}

// spdGram returns XᵀX for a random 4n×n X: the SPD Gram matrices LOBPCG's
// Rayleigh–Ritz step hands the eigensolver.
func spdGram(rng *rand.Rand, n int) []float64 {
	x := randSlice(rng, 4*n*n)
	g := make([]float64, n*n)
	GemmTN(1, x, 4*n, n, x, n, 0, g)
	return g
}

// eigCases are the symmetric test matrices of one order n, by name.
func eigCases(rng *rand.Rand, n int) map[string][]float64 {
	sym := func(f func(i, j int) float64) []float64 {
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				a[i*n+j] = f(i, j)
				a[j*n+i] = a[i*n+j]
			}
		}
		return a
	}
	// spectral builds Q·diag(λ)·Qᵀ for a random orthogonal Q.
	spectral := func(lam func(i int) float64) []float64 {
		_, q, err := referenceSymEigJacobi(sym(func(int, int) float64 { return rng.NormFloat64() }), n)
		if err != nil {
			panic(err)
		}
		return sym(func(i, j int) float64 {
			var s float64
			for k := 0; k < n; k++ {
				s += q[i*n+k] * lam(k) * q[j*n+k]
			}
			return s
		})
	}
	// The first Rayleigh–Ritz overlap matrix of LOBPCG: the Gram of the basis
	// [X, R, Q] while the search directions Q are still zero.
	basis := make([]float64, 4*n*n)
	for r := 0; r < 4*n; r++ {
		for c := 0; c < n-n/3; c++ {
			basis[r*n+c] = rng.NormFloat64()
		}
	}
	firstGram := make([]float64, n*n)
	GemmTN(1, basis, 4*n, n, basis, n, 0, firstGram)
	grade := func(i int) float64 { return math.Pow(10, -8+16*float64(i)/float64(max(n-1, 1))) }
	return map[string][]float64{
		"spd gram":   spdGram(rng, n),
		"indefinite": sym(func(int, int) float64 { return rng.NormFloat64() }),
		"graded":     sym(func(i, j int) float64 { return grade(i) * rng.NormFloat64() * grade(j) }),
		"repeated":   spectral(func(k int) float64 { return float64(k % 3) }),
		"diagonal": sym(func(i, j int) float64 {
			if i != j {
				return 0
			}
			return rng.NormFloat64()
		}),
		"zero":       make([]float64, n*n),
		"first gram": firstGram,
	}
}

func frobenius(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// Householder + QL agrees with the Jacobi oracle to within 1e-12·‖A‖_F on
// every eigenvalue, and its eigenpairs are as good as rounding allows:
// ‖AV − VΛ‖_F and ‖VᵀV − I‖_F at a small multiple of n·ε.
func TestSymEigMatchesJacobiOracle(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 3, 7, 8, 12, 24, 25, 48} {
		for name, a := range eigCases(rng, n) {
			what := fmt.Sprintf("%s n=%d", name, n)
			vals, vecs, err := SymEig(a, n)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, _, err := referenceSymEigJacobi(a, n)
			if err != nil {
				t.Fatalf("%s: oracle: %v", what, err)
			}
			norm := frobenius(a)
			for i := range vals {
				if i > 0 && vals[i] < vals[i-1] {
					t.Errorf("%s: eigenvalues not ascending at %d: %v < %v", what, i, vals[i], vals[i-1])
				}
				if d := math.Abs(vals[i] - want[i]); d > 1e-12*norm {
					t.Errorf("%s: λ_%d = %v, oracle %v (|Δ| = %.3g·‖A‖_F)", what, i, vals[i], want[i], d/norm)
				}
			}
			av := make([]float64, n*n)
			Gemm(1, a, n, n, vecs, n, 0, av)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					av[i*n+j] -= vecs[i*n+j] * vals[j]
				}
			}
			if r := frobenius(av); r > 16*float64(n)*eps*norm {
				t.Errorf("%s: ‖AV − VΛ‖_F = %.3g·‖A‖_F", what, r/norm)
			}
			vtv := make([]float64, n*n)
			GemmTN(1, vecs, n, n, vecs, n, 0, vtv)
			for i := 0; i < n; i++ {
				vtv[i*n+i]--
			}
			if o := frobenius(vtv); o > 16*float64(n)*eps {
				t.Errorf("%s: ‖VᵀV − I‖_F = %.3g", what, o)
			}
		}
	}
}

// NaN or ±Inf anywhere in the input is an error, never a panic or NaNs out;
// an empty matrix has no eigenpairs.
func TestSymEigRefusesNonFinite(t *testing.T) {
	const n = 4
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at < n*n; at++ {
			a := spdGram(rand.New(rand.NewSource(int64(at))), n)
			a[at] = bad
			if vals, _, err := SymEig(a, n); err == nil {
				t.Errorf("%v at (%d,%d): eigenvalues %v, want an error", bad, at/n, at%n, vals)
			}
			a[at%n*n+at/n] = bad // and its mirror image
			if vals, _, err := SymEig(a, n); err == nil {
				t.Errorf("%v at (%d,%d) and its mirror: eigenvalues %v, want an error", bad, at/n, at%n, vals)
			}
		}
		d, e := []float64{1, 2, 3}, []float64{1, 1}
		d[1] = bad
		if _, _, err := SymTriEig(d, e); err == nil {
			t.Errorf("SymTriEig with %v on the diagonal: no error", bad)
		}
		d[1], e[1] = 2, bad
		if _, _, err := SymTriEig(d, e); err == nil {
			t.Errorf("SymTriEig with %v off the diagonal: no error", bad)
		}
	}
	vals, vecs, err := SymEig(nil, 0)
	if err != nil || len(vals) != 0 || len(vecs) != 0 {
		t.Errorf("n = 0: %v, %v, %v; want nothing", vals, vecs, err)
	}
}

// SymTriEig runs the QL on its tridiagonal directly; its eigenpairs are the
// oracle's for the same matrix densified.
func TestSymTriEigMatchesJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 5, 24, 40} {
		d, e := randSlice(rng, k), randSlice(rng, k-1)
		a := denseTridiag(d, e)
		vals, vecs, err := SymTriEig(d, e)
		if err != nil {
			t.Fatal(err)
		}
		want, wantVecs, err := referenceSymEigJacobi(a, k)
		if err != nil {
			t.Fatal(err)
		}
		norm := frobenius(a)
		for i := range vals {
			if math.Abs(vals[i]-want[i]) > 1e-12*norm {
				t.Errorf("k=%d: λ_%d = %v, oracle %v", k, i, vals[i], want[i])
			}
			// Distinct eigenvalues: each vector is the oracle's up to sign.
			var dot float64
			for r := 0; r < k; r++ {
				dot += vecs[r*k+i] * wantVecs[r*k+i]
			}
			if math.Abs(math.Abs(dot)-1) > 1e-10 {
				t.Errorf("k=%d: eigenvector %d has |⟨v, oracle⟩| = %v", k, i, math.Abs(dot))
			}
		}
	}
}

// BenchmarkJacobiOracle times the oracle on root BenchmarkSymEig's inputs,
// for the ratio between the two methods.
func BenchmarkJacobiOracle(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		a := spdGram(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := referenceSymEigJacobi(a, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
