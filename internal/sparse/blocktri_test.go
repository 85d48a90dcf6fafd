package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSolveRangeComposition: solving block by block in any order that
// respects the block dependencies must be bit-identical to the whole-matrix
// solve — the property the level-scheduled task decomposition relies on.
func TestSolveRangeComposition(t *testing.T) {
	n := 157
	l := randomLower(n, 23)
	u := l.Transpose()
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, tc := range []struct {
		name  string
		a     *CSR
		upper bool
	}{{"lower", l, false}, {"upper", u, true}} {
		whole := make([]float64, n)
		if tc.upper {
			tc.a.UpperSolve(whole, b)
		} else {
			tc.a.LowerSolve(whole, b)
		}
		tri, err := NewBlockTri(tc.a, 13, tc.upper)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			chunked := make([]float64, n)
			for _, bi := range randomBlockOrder(rng, tri) {
				tri.SolveBlock(chunked, b, bi)
			}
			for i := range whole {
				if whole[i] != chunked[i] {
					t.Fatalf("%s block solve differs at %d: %v vs %v", tc.name, i, chunked[i], whole[i])
				}
			}
		}
	}
}

// randomBlockOrder returns a random topological order of the block DAG: at
// each step a uniformly chosen block whose prerequisites are all solved.
func randomBlockOrder(rng *rand.Rand, tri *BlockTri) []int {
	done := make([]bool, tri.NB)
	order := make([]int, 0, tri.NB)
	for len(order) < tri.NB {
		var ready []int
		for bi := 0; bi < tri.NB; bi++ {
			if done[bi] {
				continue
			}
			ok := true
			for _, j := range tri.Deps[bi] {
				ok = ok && done[j]
			}
			if ok {
				ready = append(ready, bi)
			}
		}
		bi := ready[rng.Intn(len(ready))]
		done[bi] = true
		order = append(order, bi)
	}
	return order
}

// TestBlockTriGridLevels pins the layout on the factor shape it exists for:
// the lower factor of a 4×4 grid (entries at i−4, i−1 and the diagonal) in
// one block has block-local level r+c for grid point (r, c), so the rows sit
// anti-diagonal by anti-diagonal, each ascending.
func TestBlockTriGridLevels(t *testing.T) {
	const g = 4
	coo := NewCOO(g*g, g*g, 3*g*g)
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := int32(r*g + c)
			if r > 0 {
				coo.Append(i, i-g, -1)
			}
			if c > 0 {
				coo.Append(i, i-1, -1)
			}
			coo.Append(i, i, 4)
		}
	}
	tri, err := NewBlockTri(coo.ToCSR(), g*g, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 4, 2, 5, 8, 3, 6, 9, 12, 7, 10, 13, 11, 14, 15}
	for k, i := range want {
		if tri.Row[k] != i {
			t.Fatalf("Row = %v, want %v", tri.Row, want)
		}
	}
	if len(tri.Col) != 2*g*(g-1) || tri.Ptr[g*g] != int64(len(tri.Col)) {
		t.Fatalf("%d strictly-lower entries, Ptr ends at %d, want %d", len(tri.Col), tri.Ptr[g*g], 2*g*(g-1))
	}
	// Row 5 sits at position 4 with its entries in CSR order: columns 1, 4.
	if lo, hi := tri.Ptr[4], tri.Ptr[5]; hi-lo != 2 || tri.Col[lo] != 1 || tri.Col[lo+1] != 4 || tri.Diag[4] != 4 {
		t.Fatalf("row 5 stored as cols %v diag %v", tri.Col[lo:hi], tri.Diag[4])
	}
	if len(tri.Deps) != 1 || len(tri.Deps[0]) != 0 {
		t.Fatalf("single block has deps %v", tri.Deps)
	}
}

// TestNewBlockTriRefusesUnsolvableFactors: a factor the substitution kernel
// would mis-solve on every sweep — a row without its diagonal, a zero or
// non-finite diagonal, an entry on the wrong side — is a constructor error
// naming the row, for both directions.
func TestNewBlockTriRefusesUnsolvableFactors(t *testing.T) {
	// build returns a 4×4 lower bidiagonal factor with row 2 altered.
	build := func(diag2 *float64, extra ...[2]int32) *CSR {
		coo := NewCOO(4, 4, 10)
		for i := int32(0); i < 4; i++ {
			if i > 0 {
				coo.Append(i, i-1, -1)
			}
			switch {
			case i != 2:
				coo.Append(i, i, 2)
			case diag2 != nil:
				coo.Append(i, i, *diag2)
			}
		}
		for _, e := range extra {
			coo.Append(e[0], e[1], 0.5)
		}
		return coo.ToCSR()
	}
	zero, nan, inf, two := 0.0, math.NaN(), math.Inf(1), 2.0
	for _, tc := range []struct {
		name string
		l    *CSR
		want string
	}{
		{"missing diagonal", build(nil), "row 2 stores 0 diagonal entries"},
		{"zero diagonal", build(&zero), "row 2 has diagonal 0"},
		{"NaN diagonal", build(&nan), "row 2 has diagonal NaN"},
		{"Inf diagonal", build(&inf), "row 2 has diagonal +Inf"},
		{"upper entry in L", build(&two, [2]int32{2, 3}), "row 2 has an entry at column 3"},
	} {
		for _, block := range []int{1, 3, 4} {
			if _, err := NewBlockTri(tc.l, block, false); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, lower, block %d: error %v, want one containing %q", tc.name, block, err, tc.want)
			}
			// The transpose carries the same defect in row 2 (the wrong-side
			// entry moves to row 3) for the backward direction.
			want := strings.Replace(tc.want, "row 2 has an entry at column 3", "row 3 has an entry at column 2", 1)
			if _, err := NewBlockTri(tc.l.Transpose(), block, true); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, upper, block %d: error %v, want one containing %q", tc.name, block, err, want)
			}
		}
	}
	if _, err := NewBlockTri(build(&two), 0, false); err == nil {
		t.Error("block 0 accepted")
	}
	rect := &CSR{Rows: 2, Cols: 3, RowPtr: make([]int64, 3)}
	if _, err := NewBlockTri(rect, 1, false); err == nil {
		t.Error("rectangular factor accepted")
	}
	// A column outside the matrix would index past x.
	bad := build(&two)
	bad.ColIdx[len(bad.ColIdx)-2] = 9
	if _, err := NewBlockTri(bad, 2, false); err == nil || !strings.Contains(err.Error(), "column 9") {
		t.Errorf("out-of-range column: error %v", err)
	}
}
