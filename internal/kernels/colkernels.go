package kernels

// The column kernels of the k-wide Krylov drivers, on one row block of
// row-major rows×n operands: CDOT, part[j] = Σ_i a[i·n+j]·b[i·n+j], and
// CAXPBY, out[i·n+j] = a[i·n+j] + (β·coef[j])·b[i·n+j].
//
// A row holds one entry of every column, so a loop over rows that carries
// each column's running sum in part[j] chains every row through a store and
// a reload of the same element. The bodies here walk the block once per
// pass of 8 columns, then one pass of 4 if four or more remain, with the
// pass's sums (CDOT) or products β·coef[j] (CAXPBY) in registers — the
// fixed-width passes of package sparse's row-run engine; the bodies below the
// two dispatchers are hot by propagation. The last 1–3 columns keep the
// per-row loop. Each column's sum still starts from zero and adds its
// products in row order, and β·coef[j] is the product the per-row loop forms
// for every element, so the results are that loop's bits.

// colDot sets part[j] to the dot product of column j of a and b, for the n
// columns of a row-major block, n >= 2.
//
//sparselint:hotpath
func colDot(part, a, b []float64, n int) {
	part = part[:n]
	b = b[:len(a)]
	j := 0
	for ; j+8 <= n; j += 8 {
		colDot8(part[j:j+8], a[j:], b[j:], n)
	}
	if n-j >= 4 {
		colDot4(part[j:j+4], a[j:], b[j:], n)
		j += 4
	}
	if j == n {
		return
	}
	tail := part[j:]
	clear(tail)
	for i := j; i < len(a); i += n {
		ar := a[i : i+len(tail)]
		br := b[i : i+len(tail)]
		for c, av := range ar {
			tail[c] += av * br[c]
		}
	}
}

func colDot8(part, a, b []float64, n int) {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for i := 0; i+8 <= len(a); i += n {
		ar := a[i : i+8 : i+8]
		br := b[i : i+8 : i+8]
		s0 += ar[0] * br[0]
		s1 += ar[1] * br[1]
		s2 += ar[2] * br[2]
		s3 += ar[3] * br[3]
		s4 += ar[4] * br[4]
		s5 += ar[5] * br[5]
		s6 += ar[6] * br[6]
		s7 += ar[7] * br[7]
	}
	part = part[:8]
	part[0], part[1], part[2], part[3], part[4], part[5], part[6], part[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func colDot4(part, a, b []float64, n int) {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for i := 0; i+4 <= len(a); i += n {
		ar := a[i : i+4 : i+4]
		br := b[i : i+4 : i+4]
		s0 += ar[0] * br[0]
		s1 += ar[1] * br[1]
		s2 += ar[2] * br[2]
		s3 += ar[3] * br[3]
	}
	part = part[:4]
	part[0], part[1], part[2], part[3] = s0, s1, s2, s3
}

// colAxpby sets out = a + (be·coef[j])·b on every column j of a row-major
// block of n columns, n >= 2. out may alias a or b.
//
//sparselint:hotpath
func colAxpby(out, a, b, coef []float64, be float64, n int) {
	coef = coef[:n]
	a = a[:len(out)]
	b = b[:len(out)]
	j := 0
	for ; j+8 <= n; j += 8 {
		colAxpby8(out[j:], a[j:], b[j:], coef[j:j+8], be, n)
	}
	if n-j >= 4 {
		colAxpby4(out[j:], a[j:], b[j:], coef[j:j+4], be, n)
		j += 4
	}
	if j == n {
		return
	}
	tail := coef[j:]
	for i := j; i < len(out); i += n {
		row := out[i : i+len(tail)]
		ar := a[i : i+len(tail)]
		br := b[i : i+len(tail)]
		for c, cj := range tail {
			row[c] = ar[c] + be*cj*br[c]
		}
	}
}

func colAxpby8(out, a, b, coef []float64, be float64, n int) {
	a = a[:len(out)]
	b = b[:len(out)]
	coef = coef[:8]
	c0, c1, c2, c3 := be*coef[0], be*coef[1], be*coef[2], be*coef[3]
	c4, c5, c6, c7 := be*coef[4], be*coef[5], be*coef[6], be*coef[7]
	for i := 0; i+8 <= len(out); i += n {
		o := out[i : i+8 : i+8]
		ar := a[i : i+8 : i+8]
		br := b[i : i+8 : i+8]
		o[0] = ar[0] + c0*br[0]
		o[1] = ar[1] + c1*br[1]
		o[2] = ar[2] + c2*br[2]
		o[3] = ar[3] + c3*br[3]
		o[4] = ar[4] + c4*br[4]
		o[5] = ar[5] + c5*br[5]
		o[6] = ar[6] + c6*br[6]
		o[7] = ar[7] + c7*br[7]
	}
}

func colAxpby4(out, a, b, coef []float64, be float64, n int) {
	a = a[:len(out)]
	b = b[:len(out)]
	coef = coef[:4]
	c0, c1, c2, c3 := be*coef[0], be*coef[1], be*coef[2], be*coef[3]
	for i := 0; i+4 <= len(out); i += n {
		o := out[i : i+4 : i+4]
		ar := a[i : i+4 : i+4]
		br := b[i : i+4 : i+4]
		o[0] = ar[0] + c0*br[0]
		o[1] = ar[1] + c1*br[1]
		o[2] = ar[2] + c2*br[2]
		o[3] = ar[3] + c3*br[3]
	}
}
