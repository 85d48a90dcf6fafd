// Package hot exercises sparselint/hotpath: annotated functions are held to
// a budget of the heap escapes the compiler reports (this fixture runs with
// an empty budget, so every function that has one is a finding) and must not
// grow, format or concatenate; unannotated functions may.
package hot

import "fmt"

var sink func() int

// hotBad trips every AST rule. Of the compiler's report, the escaping
// closure and the boxed Println argument count; the make and the literals
// stay on the stack.
//
//sparselint:hotpath
func hotBad(xs []int, name string) { // want `hotBad keeps 0 bounds check\(s\) in hot loops and 2 heap escape\(s\) and has no budget`
	total := 0
	for _, x := range xs {
		total += x
	}
	sink = func() int { return total }
	var ys []int
	ys = append(ys, total) // want `append may grow its backing array`
	_ = ys
	tmp := make([]int, 8)
	_ = tmp
	fmt.Println(total)  // want `fmt.Println allocates`
	label := name + "!" // want `string concatenation allocates`
	_ = label
	_ = any(total)
	m := map[int]bool{}
	_ = m
	lit := []int{1, 2}
	_ = lit
}

// hotClean shows the sanctioned patterns: reslice-then-append reuses a
// preallocated buffer, and panic arguments are failure-path-only.
//
//sparselint:hotpath
func hotClean(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("hot: dst too small: %d < %d", len(dst), len(src)))
	}
	out := dst[:0]
	for _, v := range src {
		out = append(out, 2*v)
	}
	_ = out
}

// hotSuppressed carries an explicit justification.
//
//sparselint:hotpath
func hotSuppressed(xs []int) []int {
	var out []int
	for _, x := range xs {
		//lint:ignore sparselint/hotpath fixture: growth is amortized across the whole run
		out = append(out, x)
	}
	return out
}

// cold is not annotated: anything goes.
func cold(xs []int) string {
	var out []string
	for _, x := range xs {
		out = append(out, fmt.Sprint(x))
	}
	return fmt.Sprint(out)
}

// mustFit panics with a constant message. Inlined into its callers, the
// message's conversion to an interface is an escape in the compiler's report
// at each call site, but it points at static data and allocates nothing.
func mustFit(ok bool) {
	if !ok {
		panic("hot: index out of range")
	}
}

// hotConstPanic checks its index through mustFit, which counts for nothing.
//
//sparselint:hotpath
func hotConstPanic(xs []int, i int) int {
	mustFit(i < len(xs))
	return xs[i]
}

// hotConstPanicEscape also checks through mustFit, and its own new(int)
// escapes: that one escape is still reported.
//
//sparselint:hotpath
func hotConstPanicEscape(xs []int, i int) *int { // want `hotConstPanicEscape keeps 0 bounds check\(s\) in hot loops and 1 heap escape\(s\) and has no budget`
	mustFit(i < len(xs))
	p := new(int)
	*p = xs[i]
	return p
}
