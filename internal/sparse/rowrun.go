package sparse

// The row-run engine: the one body behind every multi-column sparse kernel in
// this package — CSB.BlockSpMM and SymCSB.BlockSymSpMM, whose off-diagonal
// tiles run the direct and the transposed half and whose diagonal tiles run
// both within one band.
//
// A tile's entries are stored in (local row, local col) order, so the entries
// of one row form a contiguous run. The direct half, y[r] += Σ v·x[c], holds
// the run's y[r] columns in registers and stores them once per run; a
// per-entry body reads, adds and writes y[r] once per nonzero, which chains
// the run's entries through memory. The transposed half, y[c] += v·x[r],
// holds x[r] in registers and scatters.
//
// Go keeps locals in registers but not arrays, and does not unroll loops, so
// every body has a fixed width. n columns are covered by passes of 8 columns,
// then at most two passes for what is left: 4 if four or more remain, then 3,
// 2 or 1. Each pass walks the whole tile. One 8-wide pass beats two 4-wide
// ones, and fixed narrow bodies beat a 1–3-wide one that branches on its
// width. The bodies below the two dispatchers are hot by propagation.
//
// On amd64 with AVX2 the 8- and 4-wide passes run assembly bodies
// (rowrun_amd64.s) that hold four columns per YMM register, which removes
// the 8-wide body's spills: eight sums are two registers, not eight. The
// dispatchers choose once per pass from simd, set at start-up; other
// architectures and -race builds (rowrun_noasm.go) run the Go bodies, which
// stay as that path and as the tests' oracle. The assembly checks every row
// and column offset itself and reports the first out of range, and the
// dispatcher panics then, as a Go body's bounds check would.
//
// Each output element receives the same additions in the same order as a
// per-entry loop gives it — a sum carried in a register is the same sum, and
// a vector lane is one column's sum — so the results are bit-identical to the
// scalar loops on either path. A single column stays
// with the streaming SpMV bodies (the methods send n == 1 there): walked as
// runs it gains on long FEM rows but loses up to 0.6× on a Laplacian's runs
// of one to three entries, where finding a run costs more than holding one
// value saves.

// spmmDirect applies the direct half of one tile to n-column row-major blocks,
// n >= 2: ys[r·n+j] += v·xs[c·n+j] for every entry (r, c, v).
//
//sparselint:hotpath
func spmmDirect(ys, xs, v []float64, ri, ci []int32, n int) {
	ri, ci = ri[:len(v)], ci[:len(v)] // the assembly reads len(v) of each
	col := 0
	for ; col+8 <= n; col += 8 {
		if simd {
			inRange(direct8AVX2(ys[col:], xs[col:], v, ri, ci, n))
		} else {
			direct8(ys[col:], xs[col:], v, ri, ci, n)
		}
	}
	if n-col >= 4 {
		if simd {
			inRange(direct4AVX2(ys[col:], xs[col:], v, ri, ci, n))
		} else {
			direct4(ys[col:], xs[col:], v, ri, ci, n)
		}
		col += 4
	}
	switch n - col {
	case 3:
		direct3(ys[col:], xs[col:], v, ri, ci, n)
	case 2:
		direct2(ys[col:], xs[col:], v, ri, ci, n)
	case 1:
		direct1(ys[col:], xs[col:], v, ri, ci, n)
	}
}

// spmmTrans applies the transposed half of one tile to n-column row-major
// blocks, n >= 2: ys[c·n+j] += v·xs[r·n+j] for every entry (r, c, v). diag
// marks a diagonal tile, whose r == c entries have no transposed half.
//
//sparselint:hotpath
func spmmTrans(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri, ci = ri[:len(v)], ci[:len(v)] // the assembly reads len(v) of each
	col := 0
	for ; col+8 <= n; col += 8 {
		if simd {
			inRange(trans8AVX2(ys[col:], xs[col:], v, ri, ci, n, diag))
		} else {
			trans8(ys[col:], xs[col:], v, ri, ci, n, diag)
		}
	}
	if n-col >= 4 {
		if simd {
			inRange(trans4AVX2(ys[col:], xs[col:], v, ri, ci, n, diag))
		} else {
			trans4(ys[col:], xs[col:], v, ri, ci, n, diag)
		}
		col += 4
	}
	switch n - col {
	case 3:
		trans3(ys[col:], xs[col:], v, ri, ci, n, diag)
	case 2:
		trans2(ys[col:], xs[col:], v, ri, ci, n, diag)
	case 1:
		trans1(ys[col:], xs[col:], v, ri, ci, n, diag)
	}
}

func direct8(ys, xs, v []float64, ri, ci []int32, n int) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		yr := window(ys, int(r)*n, 8)
		y0, y1, y2, y3, y4, y5, y6, y7 := yr[0], yr[1], yr[2], yr[3], yr[4], yr[5], yr[6], yr[7]
		for ; p < len(v) && ri[p] == r; p++ {
			vv := v[p]
			xc := window(xs, int(ci[p])*n, 8)
			y0 += vv * xc[0]
			y1 += vv * xc[1]
			y2 += vv * xc[2]
			y3 += vv * xc[3]
			y4 += vv * xc[4]
			y5 += vv * xc[5]
			y6 += vv * xc[6]
			y7 += vv * xc[7]
		}
		yr[0], yr[1], yr[2], yr[3], yr[4], yr[5], yr[6], yr[7] = y0, y1, y2, y3, y4, y5, y6, y7
	}
}

func direct4(ys, xs, v []float64, ri, ci []int32, n int) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		yr := window(ys, int(r)*n, 4)
		y0, y1, y2, y3 := yr[0], yr[1], yr[2], yr[3]
		for ; p < len(v) && ri[p] == r; p++ {
			vv := v[p]
			xc := window(xs, int(ci[p])*n, 4)
			y0 += vv * xc[0]
			y1 += vv * xc[1]
			y2 += vv * xc[2]
			y3 += vv * xc[3]
		}
		yr[0], yr[1], yr[2], yr[3] = y0, y1, y2, y3
	}
}

func direct3(ys, xs, v []float64, ri, ci []int32, n int) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		yr := window(ys, int(r)*n, 3)
		y0, y1, y2 := yr[0], yr[1], yr[2]
		for ; p < len(v) && ri[p] == r; p++ {
			vv := v[p]
			xc := window(xs, int(ci[p])*n, 3)
			y0 += vv * xc[0]
			y1 += vv * xc[1]
			y2 += vv * xc[2]
		}
		yr[0], yr[1], yr[2] = y0, y1, y2
	}
}

func direct2(ys, xs, v []float64, ri, ci []int32, n int) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		yr := window(ys, int(r)*n, 2)
		y0, y1 := yr[0], yr[1]
		for ; p < len(v) && ri[p] == r; p++ {
			vv := v[p]
			xc := window(xs, int(ci[p])*n, 2)
			y0 += vv * xc[0]
			y1 += vv * xc[1]
		}
		yr[0], yr[1] = y0, y1
	}
}

func direct1(ys, xs, v []float64, ri, ci []int32, n int) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		y0 := ys[int(r)*n]
		for ; p < len(v) && ri[p] == r; p++ {
			y0 += v[p] * xs[int(ci[p])*n]
		}
		ys[int(r)*n] = y0
	}
}

func trans8(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		skip := skipCol(r, diag)
		xr := window(xs, int(r)*n, 8)
		x0, x1, x2, x3, x4, x5, x6, x7 := xr[0], xr[1], xr[2], xr[3], xr[4], xr[5], xr[6], xr[7]
		for ; p < len(v) && ri[p] == r; p++ {
			c := ci[p]
			if c == skip {
				continue
			}
			vv := v[p]
			yc := window(ys, int(c)*n, 8)
			yc[0] += vv * x0
			yc[1] += vv * x1
			yc[2] += vv * x2
			yc[3] += vv * x3
			yc[4] += vv * x4
			yc[5] += vv * x5
			yc[6] += vv * x6
			yc[7] += vv * x7
		}
	}
}

func trans4(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		skip := skipCol(r, diag)
		xr := window(xs, int(r)*n, 4)
		x0, x1, x2, x3 := xr[0], xr[1], xr[2], xr[3]
		for ; p < len(v) && ri[p] == r; p++ {
			c := ci[p]
			if c == skip {
				continue
			}
			vv := v[p]
			yc := window(ys, int(c)*n, 4)
			yc[0] += vv * x0
			yc[1] += vv * x1
			yc[2] += vv * x2
			yc[3] += vv * x3
		}
	}
}

func trans3(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		skip := skipCol(r, diag)
		xr := window(xs, int(r)*n, 3)
		x0, x1, x2 := xr[0], xr[1], xr[2]
		for ; p < len(v) && ri[p] == r; p++ {
			c := ci[p]
			if c == skip {
				continue
			}
			vv := v[p]
			yc := window(ys, int(c)*n, 3)
			yc[0] += vv * x0
			yc[1] += vv * x1
			yc[2] += vv * x2
		}
	}
}

func trans2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		skip := skipCol(r, diag)
		xr := window(xs, int(r)*n, 2)
		x0, x1 := xr[0], xr[1]
		for ; p < len(v) && ri[p] == r; p++ {
			c := ci[p]
			if c == skip {
				continue
			}
			vv := v[p]
			yc := window(ys, int(c)*n, 2)
			yc[0] += vv * x0
			yc[1] += vv * x1
		}
	}
}

func trans1(ys, xs, v []float64, ri, ci []int32, n int, diag bool) {
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	for p := 0; p < len(v); {
		r := ri[p]
		skip := skipCol(r, diag)
		x0 := xs[int(r)*n]
		for ; p < len(v) && ri[p] == r; p++ {
			if c := ci[p]; c != skip {
				ys[int(c)*n] += v[p] * x0
			}
		}
	}
}

// inRange panics, as the Go bodies' bounds checks do, when an assembly body
// reports a tile offset outside its slices.
func inRange(ok bool) {
	if !ok {
		panic("sparse: tile index out of range")
	}
}

// blockRows returns rows [i·block, min((i+1)·block, rows)) of an n-column
// row-major block with no spare capacity: a tile offset past its own block
// fails the Go bodies' bounds checks and the assembly's range checks alike,
// instead of landing in a neighbouring block that another task may own.
func blockRows(s []float64, i, block, rows, n int) []float64 {
	lo := i * block
	hi := min(lo+block, rows)
	return s[lo*n : hi*n : hi*n]
}

// window returns the w elements of s from k on, with no spare capacity. With
// w constant the compiler drops the bounds checks on every index below w, and
// a slice whose capacity is known not to be zero needs no pointer masking:
// measured 1.1–1.4× on the bodies against s[k:][:w].
func window(s []float64, k, w int) []float64 { return s[k : k+w : k+w] }

// skipCol returns the local column whose entry has no transposed half in a
// run of row r: r itself on a diagonal tile, none (-1) elsewhere.
func skipCol(r int32, diag bool) int32 {
	if diag {
		return r
	}
	return -1
}
