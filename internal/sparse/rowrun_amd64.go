//go:build !race

package sparse

import "sparsetask/internal/cpufeat"

// simd selects the assembly bodies: the AVX2 8- and 4-wide row-run passes
// (rowrun_amd64.s) and every pass of the substitution (trsv_amd64.s).
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

// trsv8AVX2, trsv4AVX2, trsv2SSE2 and trsv1SSE2 are the 8-, 4-, 2- and
// 1-wide passes of BlockTri.SolveSegN over one segment: row, ptr and diag
// are its windows of Row, Ptr and Diag (ptr one longer than row, diag as
// long), col and val the whole of Col and Val (val as long as col). Each
// returns false, having stopped, at the first row offset, entry window or
// column offset that does not lie within its slice.

//go:noescape
func trsv8AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)

//go:noescape
func trsv4AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)

//go:noescape
func trsv2SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)

//go:noescape
func trsv1SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)
