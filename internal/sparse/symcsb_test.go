package sparse

import (
	"errors"
	"math/rand"
	"testing"
)

// randomSymCOO builds a random numerically symmetric n×n matrix: each lower
// pair (i,j) is drawn once and mirrored.
func randomSymCOO(rng *rand.Rand, n int, density float64) *COO {
	a := NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			a.Append(int32(i), int32(j), v)
			if i != j {
				a.Append(int32(j), int32(i), v)
			}
		}
	}
	a.Compact()
	return a
}

func checkSymEquiv(t *testing.T, a *COO, block, r int) {
	t.Helper()
	sym, err := a.ToSymCSB(block)
	if err != nil {
		t.Fatalf("ToSymCSB(%d): %v", block, err)
	}
	x := make([]float64, a.Cols*r)
	rng := rand.New(rand.NewSource(int64(a.Rows*1000 + block*10 + r)))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := cooSpMMRef(a, x, r)
	got := make([]float64, a.Rows*r)
	if r == 1 {
		sym.SpMV(got, x)
		for i := range got {
			if !relEq(got[i], want[i]) {
				t.Fatalf("SymSpMV n=%d block=%d: y[%d] = %g, want %g", a.Rows, block, i, got[i], want[i])
			}
		}
	}
	sym.SpMM(got, x, r)
	for i := range got {
		if !relEq(got[i], want[i]) {
			t.Fatalf("SymSpMM n=%d block=%d r=%d: y[%d] = %g, want %g", a.Rows, block, r, i, got[i], want[i])
		}
	}
}

func TestSymCSBKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ n, block int }{
		{1, 1},
		{1, 8},
		{13, 5},  // ragged edge tile
		{17, 64}, // block larger than the matrix: a single diagonal tile
		{33, 32}, // one-past-a-tile edge
		{64, 16}, // exact tiling
		{50, 7},  // ragged edges
		{96, 8},  // many tiles
	}
	for _, s := range shapes {
		a := randomSymCOO(rng, s.n, 0.2)
		for _, r := range []int{1, 2, 3, 4, 5, 8, 11} {
			checkSymEquiv(t, a, s.block, r)
		}
	}
}

func TestSymCSBKernelEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		n := 1 + rng.Intn(90)
		block := 1 + rng.Intn(n+8)
		density := 0.02 + 0.3*rng.Float64()
		r := 1 + rng.Intn(10)
		a := randomSymCOO(rng, n, density)
		checkSymEquiv(t, a, block, r)
	}
}

func TestSymCSBStorageCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSymCOO(rng, 40, 0.25)
	sym, err := a.ToSymCSB(8)
	if err != nil {
		t.Fatal(err)
	}
	if sym.FullNNZ != a.NNZ() {
		t.Fatalf("FullNNZ = %d, want %d", sym.FullNNZ, a.NNZ())
	}
	if want := (sym.FullNNZ + sym.DiagNNZ) / 2; sym.NNZ() != want {
		t.Fatalf("stored NNZ = %d, want (full+diag)/2 = %d", sym.NNZ(), want)
	}
	if sym.NNZ() > sym.FullNNZ/2+40 {
		t.Fatalf("stored NNZ %d does not halve full %d", sym.NNZ(), sym.FullNNZ)
	}
	nd := 0
	for k := range a.V {
		if a.I[k] == a.J[k] {
			nd++
		}
	}
	if sym.DiagNNZ != nd {
		t.Fatalf("DiagNNZ = %d, want %d", sym.DiagNNZ, nd)
	}
}

func TestSymCSBRejectsAsymmetric(t *testing.T) {
	// Pattern asymmetry: (0,1) present, (1,0) missing.
	a := NewCOO(3, 3, 0)
	a.Append(0, 1, 2.0)
	a.Append(0, 0, 1.0)
	if _, err := a.ToSymCSB(2); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("pattern-asymmetric: err = %v, want ErrNotSymmetric", err)
	}
	// Value asymmetry: mirrored entry with a different value.
	b := NewCOO(3, 3, 0)
	b.Append(0, 1, 2.0)
	b.Append(1, 0, 2.5)
	if _, err := b.ToSymCSB(2); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("value-asymmetric: err = %v, want ErrNotSymmetric", err)
	}
	// Non-square.
	c := NewCOO(3, 4, 0)
	if _, err := c.ToSymCSB(2); err == nil {
		t.Fatal("non-square matrix converted without error")
	}
}

func TestSymCSBInverseDiagonal(t *testing.T) {
	a := NewCOO(10, 10, 0)
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue // missing diagonal: falls back to 1
		}
		a.Append(int32(i), int32(i), float64(i+1))
	}
	a.Append(7, 2, 0.5)
	a.Append(2, 7, 0.5)
	a.Compact()
	sym, err := a.ToSymCSB(4)
	if err != nil {
		t.Fatal(err)
	}
	dinv := make([]float64, 10)
	sym.InverseDiagonal(dinv)
	for i := range dinv {
		want := 1 / float64(i+1)
		if i == 3 {
			want = 1
		}
		if !relEq(dinv[i], want) {
			t.Fatalf("dinv[%d] = %g, want %g", i, dinv[i], want)
		}
	}
}
