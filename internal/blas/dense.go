// Package blas provides the dense linear-algebra micro-kernels the solvers
// are built from: small GEMM variants for the XY/XTY task kernels, level-1
// vector operations, and the small dense factorizations (Cholesky, Jacobi
// symmetric eigensolver) needed by the Rayleigh–Ritz procedure in LOBPCG and
// the tridiagonal solve in Lanczos.
//
// All matrices are dense row-major float64 slices. These kernels stand in for
// the Intel MKL calls the paper uses inside tasks; they favor clarity and
// cache-friendly loop orders over platform-specific tuning, which is fine
// because every runtime under comparison calls the same kernels.
package blas

import (
	"fmt"
	"math"
)

// Gemm computes C = alpha·A·B + beta·C where A is m×k, B is k×n and C is m×n,
// all row-major. This is the XY task kernel shape: a tall-skinny block times
// a small square matrix.
//
// n==1 takes a dot-product path (one store per output row); the general path
// keeps the cache-friendly ikj order with the inner column loop unrolled 4×
// over independent outputs, which is bit-identical per element. Both paths
// stay within 1e-12 of the scalar reference.
//
//sparselint:hotpath
func Gemm(alpha float64, a []float64, m, k int, b []float64, n int, beta float64, c []float64) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("blas: Gemm shape mismatch m=%d k=%d n=%d len(a)=%d len(b)=%d len(c)=%d", m, k, n, len(a), len(b), len(c)))
	}
	if n == 1 {
		gemmN1(alpha, a, m, k, b, beta, c)
		return
	}
	if m >= 4 && n >= 4 {
		gemmTiled(alpha, a, m, k, b, n, beta, c)
		return
	}
	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		if beta == 0 {
			clear(ci)
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		ai := a[i*k : i*k+k]
		// ikj order: streams B and C rows, the standard cache-friendly form.
		for p := 0; p < k; p++ {
			v := alpha * ai[p]
			if v == 0 {
				// Lanczos multiplies against a basis whose not-yet-filled
				// columns are zero; skipping them skips most of the work.
				continue
			}
			bp := b[p*n : p*n+n]
			bp = bp[:len(ci)]
			j := 0
			for ; j+4 <= len(ci); j += 4 {
				ci[j] += v * bp[j]
				ci[j+1] += v * bp[j+1]
				ci[j+2] += v * bp[j+2]
				ci[j+3] += v * bp[j+3]
			}
			for ; j < len(ci); j++ {
				ci[j] += v * bp[j]
			}
		}
	}
}

// gemmN1 is the n==1 Gemm path: c = alpha·A·b + beta·c with b a column
// vector. Each output row is a dot product accumulated in registers — no
// read-modify-write of c per A element.
//
//sparselint:hotpath
func gemmN1(alpha float64, a []float64, m, k int, b []float64, beta float64, c []float64) {
	b = b[:k]
	c = c[:m]
	for i := range c {
		ai := a[i*k : i*k+k]
		ai = ai[:len(b)]
		var s0, s1, s2, s3, s float64
		p := 0
		for ; p+4 <= len(b); p += 4 {
			s0 += ai[p] * b[p]
			s1 += ai[p+1] * b[p+1]
			s2 += ai[p+2] * b[p+2]
			s3 += ai[p+3] * b[p+3]
		}
		for ; p < len(b); p++ {
			s += ai[p] * b[p]
		}
		s += s0 + s1 + s2 + s3
		switch beta {
		case 0:
			c[i] = alpha * s
		case 1:
			c[i] += alpha * s
		default:
			c[i] = beta*c[i] + alpha*s
		}
	}
}

// gemmTiled is the m,n >= 4 Gemm path: 2×4 register tiles of C accumulated
// across the whole k loop, so each C element is loaded and stored once
// instead of read-modified-written k times. The tile is 2×4 because its
// eight accumulators, four B values and one A value fit the sixteen XMM
// registers; a 4×4 tile needs 21 and spills inside the k loop. Each element
// is a plain ascending-p sum followed by alpha·s + beta·c — the naive
// reference rounding, element for element.
//
//sparselint:hotpath
func gemmTiled(alpha float64, a []float64, m, k int, b []float64, n int, beta float64, c []float64) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0r := a[(i+0)*k : (i+0)*k+k]
		a1r := a[(i+1)*k : (i+1)*k+k]
		a1r = a1r[:len(a0r)]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for p := range a0r {
				bp := b[p*n+j : p*n+j+4 : p*n+j+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a0r[p]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1r[p]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
			}
			storeRow4(c, (i+0)*n+j, alpha, beta, c00, c01, c02, c03)
			storeRow4(c, (i+1)*n+j, alpha, beta, c10, c11, c12, c13)
		}
		for ; j < n; j++ {
			var s0, s1 float64
			for p := range a0r {
				bv := b[p*n+j]
				s0 += a0r[p] * bv
				s1 += a1r[p] * bv
			}
			storeScaled(c, (i+0)*n+j, alpha, beta, s0)
			storeScaled(c, (i+1)*n+j, alpha, beta, s1)
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			var s float64
			for p := range ai {
				s += ai[p] * b[p*n+j]
			}
			storeScaled(c, i*n+j, alpha, beta, s)
		}
	}
}

// storeScaled writes c[idx] = alpha·s + beta·c[idx] with the exact branches
// the references use (beta==0 must overwrite, never read, so NaN/garbage in
// the output buffer is ignored).
//
//sparselint:hotpath
func storeScaled(c []float64, idx int, alpha, beta, s float64) {
	switch beta {
	case 0:
		c[idx] = alpha * s
	case 1:
		c[idx] += alpha * s
	default:
		c[idx] = beta*c[idx] + alpha*s
	}
}

// storeRow4 writes four adjacent accumulators of one C row back at idx.
//
//sparselint:hotpath
func storeRow4(c []float64, idx int, alpha, beta float64, s0, s1, s2, s3 float64) {
	storeScaled(c, idx+0, alpha, beta, s0)
	storeScaled(c, idx+1, alpha, beta, s1)
	storeScaled(c, idx+2, alpha, beta, s2)
	storeScaled(c, idx+3, alpha, beta, s3)
}

// GemmTN computes C = alpha·Aᵀ·B + beta·C where A is k×m (so Aᵀ is m×k),
// B is k×n, C is m×n. This is the XTY task kernel shape: the inner product of
// two tall-skinny blocks producing a small m×n matrix.
//
// n==1 (Lanczos/CG inner products against a basis) accumulates C directly
// with one multiply-add per A element; the general rank-1-update path has
// its column loop unrolled 4× over independent outputs. Both are within
// 1e-12 of the scalar reference.
//
//sparselint:hotpath
func GemmTN(alpha float64, a []float64, k, m int, b []float64, n int, beta float64, c []float64) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("blas: GemmTN shape mismatch k=%d m=%d n=%d len(a)=%d len(b)=%d len(c)=%d", k, m, n, len(a), len(b), len(c)))
	}
	if n > 1 && m >= 4 && n >= 4 {
		gemmTNTiled(alpha, a, k, m, b, n, beta, c)
		return
	}
	if beta == 0 {
		clear(c[:m*n])
	} else if beta != 1 {
		for i := 0; i < m*n; i++ {
			c[i] *= beta
		}
	}
	if n == 1 {
		c = c[:m]
		for p := 0; p < k; p++ {
			bv := alpha * b[p]
			if bv == 0 {
				continue
			}
			ap := a[p*m : p*m+m]
			ap = ap[:len(c)]
			i := 0
			for ; i+4 <= len(c); i += 4 {
				c[i] += ap[i] * bv
				c[i+1] += ap[i+1] * bv
				c[i+2] += ap[i+2] * bv
				c[i+3] += ap[i+3] * bv
			}
			for ; i < len(c); i++ {
				c[i] += ap[i] * bv
			}
		}
		return
	}
	// Accumulate rank-1 updates row by row of A and B: for each p,
	// C += alpha · a_pᵀ · b_p. Streams both inputs once.
	for p := 0; p < k; p++ {
		ap := a[p*m : p*m+m]
		bp := b[p*n : p*n+n]
		for i := 0; i < m; i++ {
			v := alpha * ap[i]
			if v == 0 {
				continue
			}
			ci := c[i*n : i*n+n]
			ci = ci[:len(bp)]
			j := 0
			for ; j+4 <= len(bp); j += 4 {
				ci[j] += v * bp[j]
				ci[j+1] += v * bp[j+1]
				ci[j+2] += v * bp[j+2]
				ci[j+3] += v * bp[j+3]
			}
			for ; j < len(bp); j++ {
				ci[j] += v * bp[j]
			}
		}
	}
}

// gemmTNTiled is the m,n >= 4 GemmTN path: 2×4 register tiles of C (see
// gemmTiled for the shape) held in registers across the whole (long, k-deep)
// accumulation loop. Both the A and B rows are contiguous in this
// orientation, so each p step is six sequential loads feeding eight
// multiply-adds with no C traffic at all; the row offsets advance by addition
// rather than being recomputed from p. Per-element rounding equals the naive
// reference (ascending-p sum, then alpha·s + beta·c).
//
//sparselint:hotpath
func gemmTNTiled(alpha float64, a []float64, k, m int, b []float64, n int, beta float64, c []float64) {
	i := 0
	for ; i+2 <= m; i += 2 {
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			ao, bo := i, j
			for p := 0; p < k; p++ {
				ap := a[ao : ao+2 : ao+2]
				bp := b[bo : bo+4 : bo+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := ap[0]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = ap[1]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				ao += m
				bo += n
			}
			storeRow4(c, (i+0)*n+j, alpha, beta, c00, c01, c02, c03)
			storeRow4(c, (i+1)*n+j, alpha, beta, c10, c11, c12, c13)
		}
		for ; j < n; j++ {
			var s0, s1 float64
			for p := 0; p < k; p++ {
				bv := b[p*n+j]
				ap := a[p*m+i : p*m+i+2 : p*m+i+2]
				s0 += ap[0] * bv
				s1 += ap[1] * bv
			}
			storeScaled(c, (i+0)*n+j, alpha, beta, s0)
			storeScaled(c, (i+1)*n+j, alpha, beta, s1)
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[p*m+i] * b[p*n+j]
			}
			storeScaled(c, i*n+j, alpha, beta, s)
		}
	}
}

// Dot returns xᵀy, accumulated in four independent partial sums (within
// 1e-12 of the strictly sequential sum, and typically more accurate).
//
//sparselint:hotpath
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: Dot length mismatch")
	}
	y = y[:len(x)]
	var s0, s1, s2, s3, s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s + s0 + s1 + s2 + s3
}

// Axpy computes y += alpha·x.
//
//sparselint:hotpath
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Axpy length mismatch")
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scal computes x *= alpha. alpha==0 compiles to memclr.
//
//sparselint:hotpath
func Scal(alpha float64, x []float64) {
	if alpha == 0 {
		clear(x)
		return
	}
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst.
//
//sparselint:hotpath
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("blas: Copy length mismatch")
	}
	copy(dst, src)
}

// Nrm2 returns the Euclidean norm with scaling to avoid overflow.
//
//sparselint:hotpath
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		av := v
		if av < 0 {
			av = -av
		}
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}
