package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparsetask/internal/irgen"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sparse"
)

// The row-run engine is held to frozen copies of the per-entry bodies it
// replaced, bit for bit: every multi-column method (CSB.BlockSpMM,
// SymCSB.BlockSymSpMM on diagonal and off-diagonal tiles) at widths 1–9,
// into outputs that already hold nonzero values, on generated and
// hand-built tilings. Each check runs twice: on the Go bodies alone, and
// with the AVX2 bodies of the 8- and 4-wide passes where this build and CPU
// have them.

// ---- frozen copies: do not "improve" these ----

// refBlockSpMM is CSB.BlockSpMM before the row-run engine.
func refBlockSpMM(a *sparse.CSB, y, x []float64, n, bi, bj int) {
	k := a.BlockIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	if lo == hi {
		return
	}
	v := a.V[lo:hi]
	ri := a.RI[lo:hi:hi]
	ci := a.CI[lo:hi:hi]
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	ys := y[bi*a.Block*n:]
	xs := x[bj*a.Block*n:]
	switch n {
	case 1:
		for p := range v {
			ys[ri[p]] += v[p] * xs[ci[p]]
		}
	case 2:
		for p := range v {
			vv := v[p]
			yi := ys[int(ri[p])*2:][:2]
			xj := xs[int(ci[p])*2:][:2]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
		}
	case 4:
		for p := range v {
			vv := v[p]
			yi := ys[int(ri[p])*4:][:4]
			xj := xs[int(ci[p])*4:][:4]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
			yi[2] += vv * xj[2]
			yi[3] += vv * xj[3]
		}
	case 8:
		for p := range v {
			vv := v[p]
			yi := ys[int(ri[p])*8:][:8]
			xj := xs[int(ci[p])*8:][:8]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
			yi[2] += vv * xj[2]
			yi[3] += vv * xj[3]
			yi[4] += vv * xj[4]
			yi[5] += vv * xj[5]
			yi[6] += vv * xj[6]
			yi[7] += vv * xj[7]
		}
	default:
		for p := range v {
			vv := v[p]
			yi := ys[int(ri[p])*n:][:n]
			xj := xs[int(ci[p])*n:][:n]
			xj = xj[:len(yi)]
			c := 0
			for ; c+4 <= len(yi); c += 4 {
				yi[c] += vv * xj[c]
				yi[c+1] += vv * xj[c+1]
				yi[c+2] += vv * xj[c+2]
				yi[c+3] += vv * xj[c+3]
			}
			for ; c < len(yi); c++ {
				yi[c] += vv * xj[c]
			}
		}
	}
}

// refBlockSymSpMM is SymCSB.BlockSymSpMM before the row-run engine.
func refBlockSymSpMM(a *sparse.SymCSB, y, x []float64, n, bi, bj int) {
	k := a.TileIndex(bi, bj)
	lo, hi := a.BlkPtr[k], a.BlkPtr[k+1]
	if lo == hi {
		return
	}
	v := a.V[lo:hi]
	ri := a.RI[lo:hi:hi]
	ci := a.CI[lo:hi:hi]
	ri = ri[:len(v)]
	ci = ci[:len(v)]
	if bi == bj {
		ys := y[bi*a.Block*n:]
		xs := x[bi*a.Block*n:]
		switch n {
		case 1:
			for p := range v {
				r, c := ri[p], ci[p]
				vv := v[p]
				ys[r] += vv * xs[c]
				if r != c {
					ys[c] += vv * xs[r]
				}
			}
		case 2:
			for p := range v {
				r, c := int(ri[p]), int(ci[p])
				vv := v[p]
				yi := ys[r*2:]
				xj := xs[c*2:]
				yi[0] += vv * xj[0]
				yi[1] += vv * xj[1]
				if r != c {
					yc := ys[c*2:]
					xr := xs[r*2:]
					yc[0] += vv * xr[0]
					yc[1] += vv * xr[1]
				}
			}
		case 4:
			for p := range v {
				r, c := int(ri[p]), int(ci[p])
				vv := v[p]
				yi := ys[r*4:]
				xj := xs[c*4:]
				yi[0] += vv * xj[0]
				yi[1] += vv * xj[1]
				yi[2] += vv * xj[2]
				yi[3] += vv * xj[3]
				if r != c {
					yc := ys[c*4:]
					xr := xs[r*4:]
					yc[0] += vv * xr[0]
					yc[1] += vv * xr[1]
					yc[2] += vv * xr[2]
					yc[3] += vv * xr[3]
				}
			}
		case 8:
			for p := range v {
				r, c := int(ri[p]), int(ci[p])
				vv := v[p]
				yi := ys[r*8:][:8]
				xj := xs[c*8:][:8]
				yi[0] += vv * xj[0]
				yi[1] += vv * xj[1]
				yi[2] += vv * xj[2]
				yi[3] += vv * xj[3]
				yi[4] += vv * xj[4]
				yi[5] += vv * xj[5]
				yi[6] += vv * xj[6]
				yi[7] += vv * xj[7]
				if r != c {
					yc := ys[c*8:][:8]
					xr := xs[r*8:][:8]
					yc[0] += vv * xr[0]
					yc[1] += vv * xr[1]
					yc[2] += vv * xr[2]
					yc[3] += vv * xr[3]
					yc[4] += vv * xr[4]
					yc[5] += vv * xr[5]
					yc[6] += vv * xr[6]
					yc[7] += vv * xr[7]
				}
			}
		default:
			for p := range v {
				r, c := int(ri[p]), int(ci[p])
				vv := v[p]
				refSymSpMMRow(ys[r*n:][:n], xs[c*n:], vv)
				if r != c {
					refSymSpMMRow(ys[c*n:][:n], xs[r*n:], vv)
				}
			}
		}
		return
	}
	yd := y[bi*a.Block*n:]
	yt := y[bj*a.Block*n:]
	xd := x[bj*a.Block*n:]
	xt := x[bi*a.Block*n:]
	switch n {
	case 1:
		for p := range v {
			yd[ri[p]] += v[p] * xd[ci[p]]
			yt[ci[p]] += v[p] * xt[ri[p]]
		}
	case 2:
		for p := range v {
			r, c := int(ri[p]), int(ci[p])
			vv := v[p]
			yi := yd[r*2:]
			xj := xd[c*2:]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
			yc := yt[c*2:]
			xr := xt[r*2:]
			yc[0] += vv * xr[0]
			yc[1] += vv * xr[1]
		}
	case 4:
		for p := range v {
			r, c := int(ri[p]), int(ci[p])
			vv := v[p]
			yi := yd[r*4:]
			xj := xd[c*4:]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
			yi[2] += vv * xj[2]
			yi[3] += vv * xj[3]
			yc := yt[c*4:]
			xr := xt[r*4:]
			yc[0] += vv * xr[0]
			yc[1] += vv * xr[1]
			yc[2] += vv * xr[2]
			yc[3] += vv * xr[3]
		}
	case 8:
		for p := range v {
			r, c := int(ri[p]), int(ci[p])
			vv := v[p]
			yi := yd[r*8:][:8]
			xj := xd[c*8:][:8]
			yi[0] += vv * xj[0]
			yi[1] += vv * xj[1]
			yi[2] += vv * xj[2]
			yi[3] += vv * xj[3]
			yi[4] += vv * xj[4]
			yi[5] += vv * xj[5]
			yi[6] += vv * xj[6]
			yi[7] += vv * xj[7]
			yc := yt[c*8:][:8]
			xr := xt[r*8:][:8]
			yc[0] += vv * xr[0]
			yc[1] += vv * xr[1]
			yc[2] += vv * xr[2]
			yc[3] += vv * xr[3]
			yc[4] += vv * xr[4]
			yc[5] += vv * xr[5]
			yc[6] += vv * xr[6]
			yc[7] += vv * xr[7]
		}
	default:
		for p := range v {
			r, c := int(ri[p]), int(ci[p])
			vv := v[p]
			refSymSpMMRow(yd[r*n:][:n], xd[c*n:], vv)
			refSymSpMMRow(yt[c*n:][:n], xt[r*n:], vv)
		}
	}
}

func refSymSpMMRow(yi, xj []float64, vv float64) {
	xj = xj[:len(yi)]
	c := 0
	for ; c+4 <= len(yi); c += 4 {
		yi[c] += vv * xj[c]
		yi[c+1] += vv * xj[c+1]
		yi[c+2] += vv * xj[c+2]
		yi[c+3] += vv * xj[c+3]
	}
	for ; c < len(yi); c++ {
		yi[c] += vv * xj[c]
	}
}

// ---- the property ----

// bodyPaths are the two ways the dispatchers can cover a width.
var bodyPaths = []struct {
	name string
	asm  bool
}{{"go", false}, {"avx2", true}}

// noAsm is the message of a skipped assembly half.
const noAsm = "no AVX2 bodies in this build or on this CPU: the Go bodies are the only path"

// onBothPaths runs check on the Go bodies, then on the assembly bodies.
func onBothPaths(t *testing.T, check func(t *testing.T)) {
	for _, path := range bodyPaths {
		t.Run(path.name, func(t *testing.T) {
			if path.asm && !sparse.SIMD {
				t.Skip(noAsm)
			}
			defer sparse.UseSIMD(sparse.UseSIMD(path.asm))
			check(t)
		})
	}
}

// filled returns m values drawn from rng: zero is never drawn, so an output
// that starts from them shows a kernel that overwrites instead of adding.
func filled(rng *rand.Rand, m int) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// sameBits reports the first element where got and want differ in any bit.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d = %v, frozen body gives %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkRowRuns applies every tile of coo's tilings at the given block size,
// one at a time in storage order, through the engine and through the frozen
// bodies, at widths 1–9, and requires identical bits after every tile. The
// symmetric checks run when coo is symmetric.
func checkRowRuns(t *testing.T, name string, coo *sparse.COO, block int) {
	t.Helper()
	csb := coo.Clone().ToCSB(block)
	sym, symErr := coo.Clone().ToSymCSB(block)
	rng := rand.New(rand.NewSource(int64(coo.Rows*31 + block)))
	for n := 1; n <= 9; n++ {
		x := filled(rng, coo.Cols*n)
		y0 := filled(rng, coo.Rows*n)
		got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
		for bi := 0; bi < csb.NBR; bi++ {
			for bj := 0; bj < csb.NBC; bj++ {
				csb.BlockSpMM(got, x, n, bi, bj)
				refBlockSpMM(csb, want, x, n, bi, bj)
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%s block=%d n=%d: CSB tile (%d,%d): %v", name, block, n, bi, bj, err)
				}
			}
		}
		if symErr != nil {
			continue
		}
		// Both halves of every tile straight into y.
		copy(got, y0)
		copy(want, y0)
		for bi := 0; bi < sym.NBR; bi++ {
			for bj := 0; bj <= bi; bj++ {
				sym.BlockSymSpMM(got, x, n, bi, bj)
				refBlockSymSpMM(sym, want, x, n, bi, bj)
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%s block=%d n=%d: SymCSB tile (%d,%d): %v", name, block, n, bi, bj, err)
				}
			}
		}
	}
}

// symPattern builds a symmetric matrix from lower-triangle entries, each off
// the diagonal mirrored, plus a nonzero diagonal on the rows listed in diag.
func symPattern(rows int, lower [][2]int, diag func(i int) bool, rng *rand.Rand) *sparse.COO {
	a := sparse.NewCOO(rows, rows, 2*len(lower)+rows)
	for _, e := range lower {
		v := rng.NormFloat64()
		a.Append(int32(e[0]), int32(e[1]), v)
		if e[0] != e[1] {
			a.Append(int32(e[1]), int32(e[0]), v)
		}
	}
	for i := 0; i < rows; i++ {
		if diag(i) {
			a.Append(int32(i), int32(i), 4+rng.Float64())
		}
	}
	a.Compact()
	return a
}

// handBuilt are tilings chosen for the run walk's edges.
func handBuilt() map[string]*sparse.COO {
	rng := rand.New(rand.NewSource(17))
	all := func(int) bool { return true }
	cases := map[string]*sparse.COO{}

	// Rows 5..40 hold nothing at all.
	var lower [][2]int
	for i := 0; i < 64; i++ {
		if i >= 5 && i <= 40 {
			continue
		}
		for j := 0; j < i; j += 1 + rng.Intn(9) {
			if j < 5 || j > 40 {
				lower = append(lower, [2]int{i, j})
			}
		}
	}
	cases["empty-rows"] = symPattern(64, lower, func(i int) bool { return i < 5 || i > 40 }, rng)

	// One entry per row and tile: every run has length one.
	lower = nil
	for i := 1; i < 96; i++ {
		lower = append(lower, [2]int{i, (i * 37) % i})
	}
	cases["single-entry-runs"] = symPattern(96, lower, func(int) bool { return false }, rng)

	// Row 70 is dense: one run spans the tile.
	lower = nil
	for j := 0; j < 70; j++ {
		lower = append(lower, [2]int{70, j})
	}
	for i := 71; i < 80; i++ {
		lower = append(lower, [2]int{i, 70})
	}
	cases["dense-row"] = symPattern(80, lower, all, rng)

	// Only the diagonal: no transposed half anywhere.
	cases["diagonal-only"] = symPattern(50, nil, all, rng)

	// 3 rows past a whole number of 16-row tiles: a ragged last block.
	lower = nil
	for i := 0; i < 67; i++ {
		for _, d := range []int{1, 5, 17} {
			if i-d >= 0 {
				lower = append(lower, [2]int{i, i - d})
			}
		}
	}
	cases["ragged-last-block"] = symPattern(67, lower, all, rng)

	// Arrowhead: row 0 meets every tile row, so every tile row writes band 0
	// in a wave of its own.
	lower = nil
	for i := 1; i < 128; i++ {
		lower = append(lower, [2]int{i, 0})
		if i > 1 {
			lower = append(lower, [2]int{i, i - 1})
		}
	}
	cases["kkt-arrowhead"] = symPattern(128, lower, all, rng)
	return cases
}

func TestRowRunsMatchFrozenBodies(t *testing.T) {
	onBothPaths(t, checkAllRowRuns)
}

func checkAllRowRuns(t *testing.T) {
	for name, coo := range handBuilt() {
		for _, block := range []int{1, 7, 16, 33, coo.Rows, coo.Rows + 5} {
			checkRowRuns(t, name, coo, block)
		}
	}
	if sym, err := handBuilt()["kkt-arrowhead"].ToSymCSB(8); err != nil || sym.Sched.NumWaves < sym.NBR {
		t.Fatalf("kkt-arrowhead at block 8 does not take a wave per tile row (err %v)", err)
	}

	generated := map[string]*sparse.COO{
		"fem3d-27pt": matgen.FEM3D(4, 4, 4, 3, 27, 1),
		"fem3d-7pt":  matgen.FEM3D(4, 4, 3, 6, 7, 2),
		"spdlap":     matgen.SPDLaplacian(400, 1),
		"kkt":        matgen.KKT(4, 1),
	}
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 4; k++ {
		generated[fmt.Sprintf("random-spd-banded-%d", k)] = irgen.RandomSPD(rng, 60+rng.Intn(200), true)
		generated[fmt.Sprintf("random-spd-hubs-%d", k)] = irgen.RandomSPD(rng, 60+rng.Intn(200), false)
	}
	for name, coo := range generated {
		for _, block := range []int{5, 32, (coo.Rows + 7) / 8} {
			checkRowRuns(t, name, coo, block)
		}
	}

	// An unsymmetric rectangle exercises CSB alone, ragged on both axes.
	rect := sparse.NewCOO(45, 70, 0)
	for k := 0; k < 600; k++ {
		rect.Append(int32(rng.Intn(45)), int32(rng.Intn(70)), rng.NormFloat64())
	}
	checkRowRuns(t, "rectangle", rect, 8)
}

// FuzzSpMMRuns decodes a matrix from the input — a row count, then (row, col,
// value) byte triples — and holds every multi-column method to the frozen
// bodies on it: CSB on the entries as given, SymCSB on their mirror image,
// on the Go bodies and on the assembly bodies.
func FuzzSpMMRuns(f *testing.F) {
	if !sparse.SIMD {
		f.Log(noAsm)
	}
	f.Add([]byte{12, 0, 0, 1, 3, 1, 2, 3, 3, 3, 11, 2, 9, 11, 11, 4}, uint8(4), uint8(4))
	f.Add([]byte{30, 29, 0, 7, 29, 1, 7, 29, 2, 7, 29, 3, 7, 5, 5, 9}, uint8(8), uint8(5))
	f.Add([]byte{1, 0, 0, 200}, uint8(1), uint8(9))
	f.Add([]byte{64}, uint8(16), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, block, width uint8) {
		if len(data) == 0 {
			return
		}
		rows := 1 + int(data[0])%64
		gen := sparse.NewCOO(rows, rows, 0)
		sym := sparse.NewCOO(rows, rows, 0)
		for k := 1; k+2 < len(data); k += 3 {
			i, j := int32(int(data[k])%rows), int32(int(data[k+1])%rows)
			v := float64(int(data[k+2])-128) / 16
			gen.Append(i, j, v)
			sym.Append(i, j, v)
			if i != j {
				sym.Append(j, i, v)
			}
		}
		b := 1 + int(block)%(rows+4)
		n := 1 + int(width)%9
		for _, path := range bodyPaths {
			if path.asm && !sparse.SIMD {
				continue
			}
			was := sparse.UseSIMD(path.asm)
			checkFuzzWidth(t, gen, sym, b, n)
			sparse.UseSIMD(was)
		}
	})
}

// checkFuzzWidth is checkRowRuns at one width, on a general and a symmetric
// matrix.
func checkFuzzWidth(t *testing.T, gen, symCOO *sparse.COO, block, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(block*10 + n)))
	csb := gen.ToCSB(block)
	x := filled(rng, gen.Rows*n)
	y0 := filled(rng, gen.Rows*n)
	got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
	for bi := 0; bi < csb.NBR; bi++ {
		for bj := 0; bj < csb.NBC; bj++ {
			csb.BlockSpMM(got, x, n, bi, bj)
			refBlockSpMM(csb, want, x, n, bi, bj)
		}
	}
	if err := sameBits(got, want); err != nil {
		t.Fatalf("CSB block=%d n=%d: %v", block, n, err)
	}
	sym, err := symCOO.ToSymCSB(block)
	if err != nil {
		t.Fatalf("mirror image is not symmetric: %v", err)
	}
	copy(got, y0)
	copy(want, y0)
	for bi := 0; bi < sym.NBR; bi++ {
		for bj := 0; bj <= bi; bj++ {
			sym.BlockSymSpMM(got, x, n, bi, bj)
			refBlockSymSpMM(sym, want, x, n, bi, bj)
		}
	}
	if err := sameBits(got, want); err != nil {
		t.Fatalf("SymCSB block=%d n=%d: %v", block, n, err)
	}
}

// A tile whose RI or CI entry points past its own block, past the matrix or
// before it must panic and write nothing outside the output it was given,
// on both paths and at widths that cover every body: the pass widths 2 and
// 3, 4 and 8, and the mixes 5 and 9. Outputs sit between canaries inside
// spare capacity, the room a body that trusted the tile would write into.
// No parsed document reaches a kernel this way — the MatrixMarket reader
// refuses an entry outside the matrix at admission, a 400 before any job
// exists (route.TestEntryErrorsRefusedAtShardAdmission) — but RI and CI are
// exported fields, so the kernels check them anyway.
func TestCorruptTilePanicsInRange(t *testing.T) {
	onBothPaths(t, checkCorruptTiles)
}

func checkCorruptTiles(t *testing.T) {
	coo := matgen.FEM3D(4, 4, 4, 3, 27, 1)
	const block = 64
	rows := coo.Rows
	csb := coo.Clone().ToCSB(block)
	sym, err := coo.Clone().ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	const pad, canary = 16, 12345.5
	padded := func(size int) (buf, s []float64) {
		buf = make([]float64, size+2*pad)
		for i := range buf {
			buf[i] = canary
		}
		s = buf[pad : pad+size]
		for i := range s {
			s[i] = 1
		}
		return buf, s
	}
	intact := func(buf []float64) bool {
		for _, i := range []int{0, pad - 1, len(buf) - pad, len(buf) - 1} {
			if buf[i] != canary {
				return false
			}
		}
		return true
	}
	type target struct {
		name   string
		ri, ci []int32
		lo, hi int64 // the corrupted tile's entries
		run    func(y, x []float64, n int)
	}
	csbTile, symOff, symDiag := csb.BlockIndex(1, 0), sym.TileIndex(1, 0), sym.TileIndex(1, 1)
	targets := []target{
		{"csb", csb.RI, csb.CI, csb.BlkPtr[csbTile], csb.BlkPtr[csbTile+1],
			func(y, x []float64, n int) { csb.BlockSpMM(y, x, n, 1, 0) }},
		{"symcsb-offdiag", sym.RI, sym.CI, sym.BlkPtr[symOff], sym.BlkPtr[symOff+1],
			func(y, x []float64, n int) { sym.BlockSymSpMM(y, x, n, 1, 0) }},
		{"symcsb-diag", sym.RI, sym.CI, sym.BlkPtr[symDiag], sym.BlkPtr[symDiag+1],
			func(y, x []float64, n int) { sym.BlockSymSpMM(y, x, n, 1, 1) }},
	}
	for _, tg := range targets {
		if tg.hi-tg.lo < 2 {
			t.Fatalf("%s: tile has %d entries", tg.name, tg.hi-tg.lo)
		}
		for _, field := range []string{"RI", "CI"} {
			idx := tg.ri
			if field == "CI" {
				idx = tg.ci
			}
			p := (tg.lo + tg.hi) / 2
			for _, bad := range []int32{block, int32(rows), -1} {
				for _, n := range []int{2, 3, 4, 5, 8, 9} {
					yBuf, y := padded(rows * n)
					_, x := padded(rows * n)
					saved := idx[p]
					idx[p] = bad
					panicked := func() (did bool) {
						defer func() { did = recover() != nil }()
						tg.run(y, x, n)
						return false
					}()
					idx[p] = saved
					if !panicked {
						t.Errorf("%s: %s[%d] = %d at n=%d: no panic", tg.name, field, p, bad, n)
					}
					if !intact(yBuf) {
						t.Errorf("%s: %s[%d] = %d at n=%d: wrote outside y", tg.name, field, p, bad, n)
					}
				}
			}
		}
	}
}
