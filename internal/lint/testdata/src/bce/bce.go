// Package bce is the bce analyzer's fixture. It builds: the analyzer asks
// the compiler which bounds checks each hot loop keeps.
package bce

// kept keeps two checks in its loop: nothing proves j < len(x) or
// j < len(y).
//
//sparselint:hotpath
func kept(x, y []float64, idx []int) float64 {
	var s float64
	for _, j := range idx {
		s += x[j] * y[j]
	}
	return s
}

// proven indexes by the range key, which the compiler proves in bounds.
//
//sparselint:hotpath
func proven(x []float64) float64 {
	var s float64
	for i := range x {
		s += x[i]
	}
	return s
}

// outside keeps its one check before the loop, where it runs once.
//
//sparselint:hotpath
func outside(x []float64, k, n int) float64 {
	s := x[k]
	for i := 0; i < n; i++ {
		s *= s
	}
	return s
}

// cold is not on the hot path: its checks are not counted.
func cold(x []float64, idx []int) float64 {
	var s float64
	for _, j := range idx {
		s += x[j]
	}
	return s
}
