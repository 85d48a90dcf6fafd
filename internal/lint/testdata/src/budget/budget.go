// Package budget is the hotpath analyzer's budget fixture. It builds: the
// analyzer asks the compiler which bounds checks each hot loop keeps and
// which values each hot function moves to the heap.
package budget

import "fmt"

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

var (
	sinkFn func() int
	sinkT  *node
)

type node struct{ next *node }

// capture stores a closure over n in a package variable: the closure
// escapes.
//
//sparselint:hotpath
func capture(n int) {
	sinkFn = func() int { return n }
}

// store stores a new node in a package variable: it escapes.
//
//sparselint:hotpath
func store() {
	sinkT = new(node)
}

// stack makes a buffer the compiler keeps on the stack: nothing escapes.
//
//sparselint:hotpath
func stack(n int) int {
	buf := make([]int, 8)
	buf[n&7] = n
	return buf[0]
}

// failing formats only inside a panic argument, the failure path, where
// its escapes are not counted.
//
//sparselint:hotpath
func failing(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("budget: negative %d", n))
	}
	return n
}

// cold is not on the hot path: its checks and escapes are not counted.
func cold(x []float64, idx []int) *node {
	var s float64
	for _, j := range idx {
		s += x[j]
	}
	sinkFn = func() int { return int(s) }
	return new(node)
}
