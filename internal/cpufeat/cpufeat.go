// Package cpufeat reports, once at start-up, whether the CPU and the
// operating system support the vector instructions the kernels' assembly
// bodies use. It is the few lines of golang.org/x/sys/cpu this module needs.
package cpufeat

var avx2 = hasAVX2()

// AVX2 reports whether AVX2 instructions may run: the CPU has them and the
// operating system saves the YMM registers across context switches.
func AVX2() bool { return avx2 }
