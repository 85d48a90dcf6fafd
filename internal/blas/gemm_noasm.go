//go:build !amd64 || race

package blas

// Other architectures have no assembly tile, and the race detector does not
// see memory accesses made from assembly, so these builds run the Go tiles
// alone.
var simd = false

func gemmTile4(c, a, b []float64, rows, k, n, as, ap int, alpha, beta float64, mode int) {
	panic("blas: this build has no assembly tile")
}
