//go:build !race

package sparse

import "sparsetask/internal/cpufeat"

// simd selects the AVX2 bodies of the 8- and 4-wide passes (rowrun_amd64.s).
var simd = cpufeat.AVX2()

// direct8AVX2 and direct4AVX2 are direct8 and direct4 on YMM registers;
// trans8AVX2 and trans4AVX2 are trans8 and trans4. ri and ci hold at least
// len(v) entries. Each returns false, having stopped, at the first row or
// column offset whose columns do not lie within ys or xs.

//go:noescape
func direct8AVX2(ys, xs, v []float64, ri, ci []int32, n int) (ok bool)

//go:noescape
func direct4AVX2(ys, xs, v []float64, ri, ci []int32, n int) (ok bool)

//go:noescape
func trans8AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) (ok bool)

//go:noescape
func trans4AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) (ok bool)
