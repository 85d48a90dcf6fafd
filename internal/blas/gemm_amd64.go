//go:build !race

package blas

import "sparsetask/internal/cpufeat"

// simd selects the AVX2 register tile of Gemm and GemmTN (gemm_amd64.s).
var simd = cpufeat.AVX2()

// gemmTile4 computes, for i < rows (a multiple of four) and j < n&^3,
// c[i·n+j] = alpha·s + beta·c[i·n+j] by storeScaled's branch for beta
// (mode, from scaleMode), where s = Σ a[i·as+p·ap]·b[p·n+j] over p < k,
// summed from zero in ascending p. Tiles are four rows by eight columns,
// then four rows by four.
//
//go:noescape
func gemmTile4(c, a, b []float64, rows, k, n, as, ap int, alpha, beta float64, mode int)
