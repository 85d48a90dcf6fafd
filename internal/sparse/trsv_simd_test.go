package sparse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sparsetask/internal/irgen"
	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// icFactors returns the IC(0) factors L and U = Lᵀ of coo.
func icFactors(t testing.TB, coo *sparse.COO) (l, u *sparse.CSR) {
	t.Helper()
	ic, err := precond.Factorize(coo.ToCSR())
	if err != nil || ic.Kind != precond.KindIC0 {
		t.Fatalf("factorize: %v (kind %v)", err, ic.Kind)
	}
	return ic.L, ic.U
}

// solveBothPaths solves tri at width n over SegOrder on the Go body and on
// the assembly passes — from b into a fresh x, and in place (x == b) — and
// returns an error naming the first element where the two differ in any bit.
func solveBothPaths(tri *sparse.BlockTri, b []float64, n int) error {
	var out [2][2][]float64 // [path][separate, in place]
	for p, asm := range []bool{false, true} {
		was := sparse.UseSIMD(asm)
		x, inPlace := make([]float64, len(b)), append([]float64(nil), b...)
		for _, s := range tri.SegOrder {
			tri.SolveSegN(x, b, n, int(s))
			tri.SolveSegN(inPlace, inPlace, n, int(s))
		}
		sparse.UseSIMD(was)
		out[p] = [2][]float64{x, inPlace}
	}
	for k, mode := range []string{"x != b", "x == b"} {
		if err := sameBits(out[1][k], out[0][k]); err != nil {
			return fmt.Errorf("%s: avx2 %v", mode, err)
		}
	}
	return nil
}

// The assembly passes of SolveSegN give the Go body's bits: over the IC(0)
// factors of a grid, a 27-point FEM matrix and random SPD matrices (banded
// and with dense rows), both directions, block sizes giving one and several
// segments per block, and every width from 1 to 9 (every mix of the 8-, 4-,
// 2- and 1-wide passes, each alone too), with x and b separate and aliased.
func TestSolveSegNPathsAgree(t *testing.T) {
	if !sparse.SIMD {
		t.Skip(noAsm)
	}
	rng := rand.New(rand.NewSource(3))
	mats := []struct {
		name string
		coo  *sparse.COO
	}{
		{"grid-4096", matgen.SPDLaplacian(4096, 1)},
		{"fem3d-1000", matgen.FEM3D(10, 10, 10, 1, 27, 1)},
		{"random-banded", irgen.RandomSPD(rng, 1500, true)},
		{"random-dense-rows", irgen.RandomSPD(rng, 1200, false)},
	}
	for _, mc := range mats {
		l, u := icFactors(t, mc.coo)
		rows := l.Rows
		for _, block := range []int{rows, 3 * sparse.SegmentRows, 100} {
			for _, upper := range []bool{false, true} {
				f := l
				if upper {
					f = u
				}
				tri, err := sparse.NewBlockTri(f, block, upper)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= 9; n++ {
					b := filled(rng, rows*n)
					if err := solveBothPaths(tri, b, n); err != nil {
						t.Errorf("%s block=%d upper=%v n=%d: %v", mc.name, block, upper, n, err)
					}
				}
			}
		}
	}
}

// A factor whose Col entry lies outside the matrix, whose Ptr window runs
// past Col or backwards, or whose Row entry puts a row's offset outside x
// must panic, on both paths, and write nothing outside the x it was given,
// at widths covering each pass alone (1, 2, 4, 8: the 1-wide pass at n = 1
// takes its unit-stride loop) and mixes of them (3, 5, 9: a 1-wide tail at
// a stride). The outputs sit between canaries in spare
// capacity, the room a body that trusted the layout would write into. As
// with the tiles (TestCorruptTilePanicsInRange), no factor the package
// builds looks like this — NewBlockTri validates every row — but the fields
// are exported, so the kernels check them anyway.
func TestCorruptTrsvPanicsInRange(t *testing.T) {
	onBothPaths(t, checkCorruptTrsv)
}

func checkCorruptTrsv(t *testing.T) {
	l, _ := icFactors(t, matgen.FEM3D(6, 6, 6, 1, 27, 1))
	rows := l.Rows
	tri, err := sparse.NewBlockTri(l, rows, false)
	if err != nil {
		t.Fatal(err)
	}
	const pad, canary = 16, 12345.5
	si := len(tri.Seg) - 2     // the last segment: its rows read earlier ones
	k := int(tri.Seg[si]) + 10 // a position inside it with entries
	for tri.Ptr[k+1] == tri.Ptr[k] {
		k++
	}
	type corruption struct {
		name  string
		apply func() (undo func())
	}
	setCol := func(v int32) func() func() {
		return func() func() {
			e := tri.Ptr[k+1] - 1
			saved := tri.Col[e]
			tri.Col[e] = v
			return func() { tri.Col[e] = saved }
		}
	}
	setRow := func(v int32) func() func() {
		return func() func() {
			saved := tri.Row[k]
			tri.Row[k] = v
			return func() { tri.Row[k] = saved }
		}
	}
	setPtr := func(i int, v int64) func() func() {
		return func() func() {
			saved := tri.Ptr[i]
			tri.Ptr[i] = v
			return func() { tri.Ptr[i] = saved }
		}
	}
	corruptions := []corruption{
		{"Col >= rows", setCol(int32(rows))},
		{"Col < 0", setCol(-1)},
		// The last row's window: past it no later window starts beyond
		// its own end, which the backwards check would catch first.
		{"Ptr past len(Col)", setPtr(rows, int64(len(tri.Col))+1)},
		{"Ptr window backwards", setPtr(k, tri.Ptr[k+1]+1)},
		{"Row >= rows", setRow(int32(rows))},
		{"Row < 0", setRow(-1)},
	}
	for _, c := range corruptions {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9} {
			buf := make([]float64, rows*n+2*pad)
			for i := range buf {
				buf[i] = canary
			}
			x := buf[pad : pad+rows*n : pad+rows*n]
			b := make([]float64, rows*n)
			for i := range b {
				x[i], b[i] = 1, 1
			}
			undo := c.apply()
			panicked := func() (did bool) {
				defer func() { did = recover() != nil }()
				tri.SolveSegN(x, b, n, si)
				return false
			}()
			undo()
			if !panicked {
				t.Errorf("%s at n=%d: no panic", c.name, n)
			}
			for _, i := range []int{0, pad - 1, len(buf) - pad, len(buf) - 1} {
				if buf[i] != canary {
					t.Errorf("%s at n=%d: wrote outside x (at %d of the padded buffer)", c.name, n, i)
					break
				}
			}
		}
	}
}

// FuzzSolveSegN decodes a triangular factor from the input — a row count,
// then (row, col, value) byte triples placed on the input's side of the
// diagonal, beside a diagonal of its own — and holds SolveSegN's assembly
// passes to its Go body on it, bit for bit, at a width from 1 to 9 and with x
// and b separate and aliased. upper selects the backward direction.
func FuzzSolveSegN(f *testing.F) {
	if !sparse.SIMD {
		f.Log(noAsm)
	}
	f.Add([]byte{12, 3, 0, 200, 5, 1, 60, 11, 10, 90, 11, 2, 30}, false, uint8(4), uint8(3))
	f.Add([]byte{40, 39, 0, 7, 39, 1, 250, 20, 19, 128, 5, 4, 1}, true, uint8(7), uint8(8))
	f.Add([]byte{1}, false, uint8(1), uint8(9))
	f.Add([]byte{64, 63, 62, 100, 62, 61, 100, 61, 60, 100}, true, uint8(200), uint8(5))
	// Widths 1 and 2, the scalar and 2-wide passes alone, both directions.
	f.Add([]byte{30, 5, 1, 90, 9, 5, 200, 20, 3, 40, 29, 28, 7}, false, uint8(6), uint8(0))
	f.Add([]byte{30, 1, 5, 90, 5, 9, 200, 3, 20, 40, 28, 29, 7}, true, uint8(6), uint8(0))
	f.Add([]byte{25, 7, 2, 150, 11, 7, 60, 24, 0, 99}, false, uint8(3), uint8(1))
	f.Add([]byte{25, 2, 7, 150, 7, 11, 60, 0, 24, 99}, true, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, upper bool, block, width uint8) {
		if !sparse.SIMD || len(data) == 0 {
			return
		}
		rows := 1 + int(data[0])%64
		coo := sparse.NewCOO(rows, rows, 0)
		for i := 0; i < rows; i++ {
			coo.Append(int32(i), int32(i), 1+float64(i%5)/4)
		}
		for k := 1; k+2 < len(data); k += 3 {
			i, j := int(data[k])%rows, int(data[k+1])%rows
			if i == j {
				continue
			}
			if (i < j) != upper {
				i, j = j, i
			}
			coo.Append(int32(i), int32(j), float64(int(data[k+2])-128)/64)
		}
		tri, err := sparse.NewBlockTri(coo.ToCSR(), 1+int(block)%(rows+4), upper)
		if err != nil {
			t.Fatalf("factor refused: %v", err)
		}
		n := 1 + int(width)%9
		b := filled(rand.New(rand.NewSource(int64(rows*10+n))), rows*n)
		if err := solveBothPaths(tri, b, n); err != nil {
			t.Fatalf("rows=%d upper=%v block=%d n=%d: %v", rows, upper, tri.Block, n, err)
		}
	})
}

// SolveSeg is SolveSegN at width 1, and both give the Go body's bits: over
// the IC(0) factors of a grid and a 27-point FEM matrix, both directions,
// with x and b separate and aliased.
func TestSolveSegIsWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mc := range []struct {
		name string
		coo  *sparse.COO
	}{
		{"grid-4096", matgen.SPDLaplacian(4096, 1)},
		{"fem3d-1000", matgen.FEM3D(10, 10, 10, 1, 27, 1)},
	} {
		l, u := icFactors(t, mc.coo)
		for _, upper := range []bool{false, true} {
			f := l
			if upper {
				f = u
			}
			tri, err := sparse.NewBlockTri(f, 3*sparse.SegmentRows, upper)
			if err != nil {
				t.Fatal(err)
			}
			b := filled(rng, tri.Rows)
			solve := func(seg func(x, b []float64, s int)) (x, inPlace []float64) {
				x, inPlace = make([]float64, len(b)), append([]float64(nil), b...)
				for _, s := range tri.SegOrder {
					seg(x, b, int(s))
					seg(inPlace, inPlace, int(s))
				}
				return x, inPlace
			}
			oneX, oneIn := solve(tri.SolveSeg)
			nX, nIn := solve(func(x, b []float64, s int) { tri.SolveSegN(x, b, 1, s) })
			was := sparse.UseSIMD(false)
			goX, goIn := solve(tri.SolveSeg)
			sparse.UseSIMD(was)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"SolveSeg vs SolveSegN, x != b", oneX, nX},
				{"SolveSeg vs SolveSegN, x == b", oneIn, nIn},
				{"SolveSeg vs the Go body, x != b", oneX, goX},
				{"SolveSeg vs the Go body, x == b", oneIn, goIn},
			} {
				if err := sameBits(c.got, c.want); err != nil {
					t.Errorf("%s upper=%v: %s: %v", mc.name, upper, c.what, err)
				}
			}
		}
	}
}
