package sparse

// SIMD reports whether this build, on this CPU, runs the row-run kernels'
// assembly bodies.
var SIMD = simd

// UseSIMD sets whether the row-run dispatchers take the assembly bodies and
// returns the previous setting. Tests that call it must not run in parallel.
func UseSIMD(on bool) (was bool) {
	was, simd = simd, on
	return was
}
