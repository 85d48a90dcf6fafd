package blas

import (
	"fmt"
	"math"
)

// SymEig computes all eigenvalues and eigenvectors of the symmetric n×n
// row-major matrix a. It returns eigenvalues in ascending order and the
// corresponding eigenvectors as the columns of v (row-major n×n, so v[i*n+j]
// is component i of eigenvector j). The input is not modified.
//
// The method is LAPACK's dsyev path in its EISPACK form: Householder
// reduction to tridiagonal form (tred2), then implicit QL with Wilkinson
// shifts on the tridiagonal, accumulating the rotations into the vectors
// (tql2). The matrices here are small — the Rayleigh–Ritz subspaces in LOBPCG
// are at most 3·blockvectors wide — but the step runs twice per iteration.
func SymEig(a []float64, n int) (eigvals []float64, v []float64, err error) {
	if len(a) < n*n {
		return nil, nil, fmt.Errorf("blas: SymEig needs %d elements, have %d", n*n, len(a))
	}
	work := make([]float64, n*n)
	eigvals = make([]float64, n)
	v = make([]float64, n*n)
	if err := SymEigInto(a, n, work, eigvals, v); err != nil {
		return nil, nil, err
	}
	return eigvals, v, nil
}

// maxQLIter bounds the implicit-QL sweeps spent on one eigenvalue, as in
// EISPACK's tql2; convergence is cubic, so a handful is the norm.
const maxQLIter = 30

// SymEigInto is the allocation-free form of SymEig for hot paths (the
// per-iteration Rayleigh–Ritz solves): work is n×n scratch (overwritten),
// vals receives the ascending eigenvalues (len ≥ n), vecs the eigenvectors
// as columns (len ≥ n×n). On error the output buffers hold garbage. The
// success path performs no heap allocations. A NaN or infinite entry is an
// error, as is a matrix that is not symmetric to within 1e-8 of its largest
// entry; within that, the input is symmetrized.
func SymEigInto(a []float64, n int, work, vals, vecs []float64) error {
	if len(a) < n*n {
		return fmt.Errorf("blas: SymEig needs %d elements, have %d", n*n, len(a))
	}
	if len(work) < n*n || len(vals) < n || len(vecs) < n*n {
		return fmt.Errorf("blas: SymEigInto buffers too small for n=%d", n)
	}
	// work holds the transformations transposed: row j is column j of the
	// orthogonal factor, so every update below walks contiguous memory.
	z := work[:n*n]
	copy(z, a[:n*n])
	var amax float64
	for i, x := range z {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("blas: SymEig input not finite at (%d,%d): %g", i/n, i%n, x)
		}
		amax = max(amax, math.Abs(x))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(z[i*n+j]-z[j*n+i]) > 1e-8*(1+amax) {
				return fmt.Errorf("blas: SymEig input not symmetric at (%d,%d): %g vs %g", i, j, z[i*n+j], z[j*n+i])
			}
			m := 0.5 * (z[i*n+j] + z[j*n+i])
			z[i*n+j], z[j*n+i] = m, m
		}
	}
	if n == 0 {
		return nil
	}
	d, e := vals[:n], vecs[:n] // vecs is free until the vectors are written
	householderTridiag(z, n, d, e)
	if err := tridiagQL(d, e, z, n); err != nil {
		return err
	}
	transpose(vecs[:n*n], z, n)
	return nil
}

// transpose writes the n×n row-major src, transposed, into dst.
func transpose(dst, src []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = src[j*n+i]
		}
	}
}

// householderTridiag is EISPACK's tred2 on the symmetric matrix in z: it
// leaves the tridiagonal's diagonal in d and its off-diagonal in e (e[i]
// couples i and i+1, e[n-1] = 0), and the orthogonal factor Q with
// A = Q·T·Qᵀ in z, transposed (z[j*n+i] is Q[i][j]).
func householderTridiag(z []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			z[i*n+j] = f
			zj := z[j*n : j*n+i]
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := range zi1 {
				d[k] = zi1[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				var g float64
				for k := range zj {
					g += zi1[k] * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(zi1)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	// Shift the off-diagonal down: e[i] couples i and i+1.
	copy(e, e[1:])
	e[n-1] = 0
}

// tridiagQL is EISPACK's tql2: the implicit QL method with Wilkinson shifts on
// the symmetric tridiagonal (d, e) — e[i] couples i and i+1, e[n-1] is
// scratch — with every rotation applied to the rows of z. It leaves the
// eigenvalues ascending in d and z's rows permuted to match, so rows of z
// that held an orthogonal basis come out as the eigenvectors. A nil z asks
// for the eigenvalues only: the rotations and row swaps are skipped.
func tridiagQL(d, e, z []float64, n int) error {
	const eps = 0x1p-52
	e[n-1] = 0
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a negligible off-diagonal element below row l.
		tst1 = max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == maxQLIter {
				return fmt.Errorf("blas: implicit QL did not converge on eigenvalue %d in %d iterations", l, maxQLIter)
			}
			// Implicit Wilkinson shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// QL sweep from m-1 up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				if z == nil {
					continue
				}
				zi, zi1 := z[i*n:i*n+n], z[(i+1)*n:(i+1)*n+n]
				for k, x := range zi {
					y := zi1[k]
					zi1[k] = s*x + c*y
					zi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	// Selection sort ascending, rows of z with their eigenvalues.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			if z == nil {
				continue
			}
			zi, zk := z[i*n:i*n+n], z[k*n:k*n+n]
			for c := range zi {
				zi[c], zk[c] = zk[c], zi[c]
			}
		}
	}
	return nil
}

// SymTriEig computes the eigenvalues (ascending) and eigenvectors of the
// symmetric tridiagonal matrix with diagonal d (len k) and off-diagonal e
// (len k-1), as produced by Lanczos, by implicit QL on the tridiagonal
// itself. Eigenvectors are the columns of v (row-major k×k).
func SymTriEig(d, e []float64) (eigvals []float64, v []float64, err error) {
	k := len(d)
	if err := checkTridiag("SymTriEig", d, e); err != nil {
		return nil, nil, err
	}
	eigvals = make([]float64, k)
	copy(eigvals, d)
	off := make([]float64, k)
	copy(off, e)
	z := make([]float64, k*k)
	for i := 0; i < k; i++ {
		z[i*k+i] = 1
	}
	if k > 0 {
		if err := tridiagQL(eigvals, off, z, k); err != nil {
			return nil, nil, err
		}
	}
	v = make([]float64, k*k)
	transpose(v, z, k)
	return eigvals, v, nil
}

// checkTridiag refuses a tridiagonal (d, e) whose lengths do not match or
// that holds a value that is not finite; name is the caller's, for the error.
func checkTridiag(name string, d, e []float64) error {
	if len(e) != len(d)-1 && !(len(d) == 0 && len(e) == 0) {
		return fmt.Errorf("blas: %s needs len(e)=len(d)-1, got %d and %d", name, len(e), len(d))
	}
	for _, s := range [][]float64{d, e} {
		for _, x := range s {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("blas: %s input not finite: %g", name, x)
			}
		}
	}
	return nil
}

// Cholesky computes the upper-triangular factor R of the symmetric
// positive-definite n×n matrix a (row-major), so that a = RᵀR. Returns an
// error if the matrix is not positive definite to working precision.
func Cholesky(a []float64, n int) ([]float64, error) {
	if len(a) < n*n {
		return nil, fmt.Errorf("blas: Cholesky needs %d elements, have %d", n*n, len(a))
	}
	r := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := a[i*n+j]
			for k := 0; k < i; k++ {
				s -= r[k*n+i] * r[k*n+j]
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("blas: Cholesky pivot %d non-positive (%g): matrix not positive definite", i, s)
				}
				r[i*n+i] = math.Sqrt(s)
			} else {
				r[i*n+j] = s / r[i*n+i]
			}
		}
	}
	return r, nil
}

// TrsmRightUpperInv computes X ← X·R⁻¹ in place, where X is m×n row-major and
// R is the n×n upper-triangular Cholesky factor. Used by CholQR
// orthonormalization: Q = X·R⁻¹.
func TrsmRightUpperInv(x []float64, m, n int, r []float64) {
	if len(x) < m*n || len(r) < n*n {
		panic(fmt.Sprintf("blas: TrsmRightUpperInv shape mismatch m=%d n=%d", m, n))
	}
	for i := 0; i < m; i++ {
		xi := x[i*n : i*n+n]
		// Forward substitution across columns: solve y·R = x row-wise.
		for j := 0; j < n; j++ {
			s := xi[j]
			for k := 0; k < j; k++ {
				s -= xi[k] * r[k*n+j]
			}
			xi[j] = s / r[j*n+j]
		}
	}
}

// Orthonormalize makes the n columns of the m×n row-major block x
// orthonormal using Cholesky-QR with one reorthogonalization pass, falling
// back to modified Gram–Schmidt when the Gram matrix is numerically rank
// deficient. Returns an error only if the block is numerically rank deficient
// beyond repair.
func Orthonormalize(x []float64, m, n int) error {
	for pass := 0; pass < 2; pass++ {
		g := make([]float64, n*n)
		GemmTN(1, x, m, n, x, n, 0, g)
		r, err := Cholesky(g, n)
		if err != nil {
			return mgsOrthonormalize(x, m, n)
		}
		TrsmRightUpperInv(x, m, n, r)
	}
	return nil
}

// mgsOrthonormalize is the modified Gram–Schmidt fallback, column-wise on the
// row-major block.
func mgsOrthonormalize(x []float64, m, n int) error {
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			var d float64
			for i := 0; i < m; i++ {
				d += x[i*n+k] * x[i*n+j]
			}
			for i := 0; i < m; i++ {
				x[i*n+j] -= d * x[i*n+k]
			}
		}
		var nrm float64
		for i := 0; i < m; i++ {
			nrm += x[i*n+j] * x[i*n+j]
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-14 {
			return fmt.Errorf("blas: Orthonormalize: column %d numerically zero", j)
		}
		inv := 1 / nrm
		for i := 0; i < m; i++ {
			x[i*n+j] *= inv
		}
	}
	return nil
}
