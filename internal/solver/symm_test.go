package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// arrowheadSPD builds an SPD arrowhead matrix: band 0 meets every tile row,
// so its SymCSB schedule takes a wave per tile row.
func arrowheadSPD(n int) *sparse.COO {
	a := sparse.NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		d := float64(n) // strong diagonal dominance keeps it SPD
		a.Append(int32(i), int32(i), d)
		if i > 0 {
			a.Append(int32(i), 0, 1)
			a.Append(0, int32(i), 1)
		}
	}
	a.Compact()
	return a
}

func toSym(t *testing.T, coo *sparse.COO, block int) *sparse.SymCSB {
	t.Helper()
	sym, err := coo.ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

// Symmetric storage must reach the same answers as the general path: CG
// solves agree to solver tolerance, Lanczos/LOBPCG eigenvalues to a loose
// rounding bound (the two paths accumulate in different orders).
func TestSolversSymmetricMatchesGeneral(t *testing.T) {
	coo := randomSPD(120, 5)
	gen := coo.ToCSB(12)
	sym := toSym(t, coo, 12)

	b := RandomRHS(120, 3)
	cgG, err := NewCG(gen)
	if err != nil {
		t.Fatal(err)
	}
	cgS, err := NewCG(sym)
	if err != nil {
		t.Fatal(err)
	}
	xg, _, _, err := cgG.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	xs, _, _, err := cgS.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xg {
		if d := math.Abs(xg[i] - xs[i]); d > 1e-6*(1+math.Abs(xg[i])) {
			t.Fatalf("CG x[%d]: general %g vs symmetric %g", i, xg[i], xs[i])
		}
	}

	lG, err := NewLanczos(gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	lS, err := NewLanczos(sym, 20)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := lG.Run(context.Background(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := lS.Run(context.Background(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if d := math.Abs(rg.Eigenvalues[i] - rs.Eigenvalues[i]); d > 1e-8*(1+math.Abs(rg.Eigenvalues[i])) {
			t.Fatalf("Lanczos λ_%d: general %g vs symmetric %g", i, rg.Eigenvalues[i], rs.Eigenvalues[i])
		}
	}

	eG, err := NewLOBPCG(gen, 4)
	if err != nil {
		t.Fatal(err)
	}
	eS, err := NewLOBPCG(sym, 4)
	if err != nil {
		t.Fatal(err)
	}
	og, err := eG.Run(context.Background(), nil, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	os, err := eS.Run(context.Background(), nil, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range og.Eigenvalues {
		if d := math.Abs(og.Eigenvalues[i] - os.Eigenvalues[i]); d > 1e-6*(1+math.Abs(og.Eigenvalues[i])) {
			t.Fatalf("LOBPCG λ_%d: general %g vs symmetric %g", i, og.Eigenvalues[i], os.Eigenvalues[i])
		}
	}
}

// Symmetric PCG: the preconditioner path is unchanged; only the SpMV storage
// differs. The solve must converge to the reference solution.
func TestPCGSymmetricStorage(t *testing.T) {
	coo := laplacian1D(300)
	m, err := precond.Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	sym := toSym(t, coo, 32)
	c, err := NewPCG(sym, m)
	if err != nil {
		t.Fatal(err)
	}
	b := RandomRHS(300, 7)
	x, relres, iters, err := c.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("after %d iterations (relres %g): %v", iters, relres, err)
	}
	xr, _, err := CGReference(coo.ToCSR(), b, 1e-10, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - xr[i]); d > 1e-6*(1+math.Abs(xr[i])) {
			t.Fatalf("x[%d] = %g, reference %g", i, x[i], xr[i])
		}
	}
}

// Bit-identity of symmetric solves across all four backends × worker
// counts, for a few-wave schedule, a wave-per-tile-row one and the KKT and
// R-MAT structures that colour into many waves. This is the symmetric
// analogue of TestLanczosDeterministicAcrossWorkerCounts, and additionally
// includes the BSP backend (whose level-split must not change chain order
// per band).
func TestSymmetricSolversDeterministicAcrossBackends(t *testing.T) {
	cases := map[string]*sparse.COO{
		"spd":       randomSPD(120, 7),
		"arrowhead": arrowheadSPD(128),
		"kkt":       matgen.KKT(3, 1),
		"rmat":      matgen.RMAT(256, 4, 0.57, 1),
	}
	for matName, coo := range cases {
		sym := toSym(t, coo, 12)
		var want []float64
		var wantFrom string
		for _, w := range []int{1, 2, 4} {
			for _, r := range allBackends(rt.Options{Workers: w}) {
				name := fmt.Sprintf("%s/%s/w%d", matName, r.Name(), w)
				l, err := NewLanczos(sym, 25)
				if err != nil {
					t.Fatal(err)
				}
				res, err := l.Run(context.Background(), r, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want == nil {
					want, wantFrom = res.Eigenvalues, name
					continue
				}
				if len(res.Eigenvalues) != len(want) {
					t.Fatalf("%s: %d eigenvalues, %s gave %d", name, len(res.Eigenvalues), wantFrom, len(want))
				}
				for i := range want {
					if res.Eigenvalues[i] != want[i] {
						t.Errorf("%s: λ_%d = %v differs from %s's %v (must be bit-identical)",
							name, i, res.Eigenvalues[i], wantFrom, want[i])
					}
				}
			}
		}
	}
}

// Steady-state symmetric iterations must stay allocation-free on a few-wave
// schedule (Laplacian) and a wave-per-tile-row one (arrowhead).
func TestSymmetricSteadyIterationAllocs(t *testing.T) {
	mats := map[string]*sparse.SymCSB{
		"wave":      toSym(t, laplacian1D(600), 64),
		"arrowhead": toSym(t, arrowheadSPD(640), 32),
	}
	for matName, sym := range mats {
		for _, tc := range allocWorkerCases() {
			t.Run(matName+"/cg/"+tc.name, func(t *testing.T) {
				c, err := NewCG(sym)
				if err != nil {
					t.Fatal(err)
				}
				rows, _ := sym.Dims()
				c.initState([][]float64{RandomRHS(rows, 3)})
				pr := rt.NewDeepSparse(rt.Options{Workers: tc.workers}).Prepare(c.g, c.st)
				defer pr.Close()
				ctx := context.Background()
				step := func() {
					if _, err := c.iterate(ctx, pr); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 8; i++ {
					step()
				}
				if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
					t.Fatalf("steady-state symmetric CG iteration allocates %.0f times, want 0", allocs)
				}
			})
			t.Run(matName+"/lobpcg/"+tc.name, func(t *testing.T) {
				l, err := NewLOBPCG(sym, 4)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.initState(1); err != nil {
					t.Fatal(err)
				}
				pr := rt.NewDeepSparse(rt.Options{Workers: tc.workers}).Prepare(l.g, l.st)
				defer pr.Close()
				ctx := context.Background()
				step := func() {
					if _, err := l.iterate(ctx, pr); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 8; i++ {
					step()
				}
				if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
					t.Fatalf("steady-state symmetric LOBPCG iteration allocates %.0f times, want 0", allocs)
				}
			})
		}
	}
}
