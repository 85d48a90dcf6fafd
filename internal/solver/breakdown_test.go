package solver

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// Rayleigh–Ritz keeps the previous coefficients in four cases: an
// eigensolve of the basis Gram matrix O fails, O has no positive
// eigenvalue, fewer than n directions survive the rank filter, or the
// eigensolve of the projected matrix fails. Each case is reached from the
// Gram blocks of a sound iteration on a generated matrix, corrupted the way
// the case needs, and must leave the coefficients alone and surface as the
// solve's error, naming the iteration.
func TestRayleighRitzBreakdownIsAnError(t *testing.T) {
	const n = 2
	rng := rand.New(rand.NewSource(7))
	coo := laplacian1D(40 + rng.Intn(40))
	zeroO := func(l *LOBPCG) {
		for _, op := range []program.OperandID{l.opOPP, l.opOPR, l.opORR, l.opOPQ, l.opORQ, l.opOQQ} {
			clear(l.st.Small[op])
		}
	}
	for _, c := range []struct {
		name    string
		corrupt func(l *LOBPCG)
		reason  string
	}{
		{"basis eigensolve", func(l *LOBPCG) { l.st.Small[l.opORR][1] = math.NaN() },
			"eigensolve of the basis Gram matrix: "},
		{"no positive eigenvalue", zeroO,
			"basis Gram matrix has no positive eigenvalue (largest 0)"},
		{"rank below block width", func(l *LOBPCG) { zeroO(l); l.st.Small[l.opOPP][0] = 1 },
			"1 of 6 basis directions survive the rank filter, fewer than the block width 2"},
		{"projected eigensolve", func(l *LOBPCG) { l.st.Small[l.opGRR][0] = math.Inf(1) },
			"eigensolve of the projected Gram matrix: "},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, err := NewLOBPCG(coo.ToCSB(16), n)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.initState(int64(rng.Intn(100))); err != nil {
				t.Fatal(err)
			}
			pr := rt.NewBSP(rt.Options{Workers: 1}).Prepare(l.g, l.st)
			defer pr.Close()
			if _, err := l.iterate(context.Background(), pr); err != nil {
				t.Fatalf("sound iteration: %v", err)
			}
			coeffs := []program.OperandID{l.opCP, l.opCR, l.opCQ, l.opLam}
			var before [][]float64
			for _, op := range coeffs {
				before = append(before, slices.Clone(l.st.Small[op]))
			}
			c.corrupt(l)
			l.rayleighRitz(l.st)
			want := "lobpcg: Rayleigh–Ritz breakdown at iteration 2: " + c.reason
			if err := l.ws.breakdown; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("breakdown = %v, want %q", err, want)
			}
			for i, op := range coeffs {
				if !slices.Equal(l.st.Small[op], before[i]) {
					t.Fatalf("coefficients %s changed on breakdown", l.prog.Op(op).Name)
				}
			}
		})
	}
}

// A non-finite matrix entry poisons the first iteration's Gram matrices, and
// the solve fails there instead of running on with stale coefficients.
func TestLOBPCGRunFailsOnBreakdown(t *testing.T) {
	coo := laplacian1D(48)
	coo.V[0] = math.Inf(1)
	for _, m := range []sparse.Matrix{coo.ToCSB(16), mustSym(t, coo, 16)} {
		l, err := NewLOBPCG(m, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = l.Run(context.Background(), nil, 1, 0)
		want := "lobpcg: Rayleigh–Ritz breakdown at iteration 1: eigensolve of the basis Gram matrix: "
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Run error %v, want %q…", err, want)
		}
	}
}

func mustSym(t *testing.T, coo *sparse.COO, block int) *sparse.SymCSB {
	t.Helper()
	s, err := coo.Clone().ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
