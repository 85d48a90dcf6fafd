//go:build !amd64 || race

package sparse

// Other architectures have no assembly bodies, and the race detector does
// not see memory accesses made from assembly, so these builds run the Go
// bodies alone and the race matrix instruments every kernel store.
var simd = false

func direct8AVX2(ys, xs, v []float64, ri, ci []int32, n int) bool { panic(noAsm) }
func direct4AVX2(ys, xs, v []float64, ri, ci []int32, n int) bool { panic(noAsm) }
func trans8AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) bool {
	panic(noAsm)
}
func trans4AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) bool {
	panic(noAsm)
}
func trsv8AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) bool {
	panic(noAsm)
}
func trsv4AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) bool {
	panic(noAsm)
}
func trsv2SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) bool {
	panic(noAsm)
}
func trsv1SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) bool {
	panic(noAsm)
}

const noAsm = "sparse: this build has no assembly bodies"
