package solver

import (
	"context"
	"math"
	"testing"

	"sparsetask/internal/blas"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

func residual(a *sparse.CSR, x, b []float64) float64 {
	q := make([]float64, len(b))
	a.SpMV(q, x)
	for i := range q {
		q[i] -= b[i]
	}
	return blas.Nrm2(q) / blas.Nrm2(b)
}

func TestCGSolvesLaplacian(t *testing.T) {
	n := 200
	coo := laplacian1D(n)
	cg, err := NewCG(coo.ToCSB(32))
	if err != nil {
		t.Fatal(err)
	}
	cg.Tol = 1e-10
	b := RandomRHS(n, 3)
	x, relres, iters, err := cg.Solve(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 3}), b)
	if err != nil {
		t.Fatalf("after %d iterations, relres %g: %v", iters, relres, err)
	}
	if got := residual(coo.ToCSR(), x, b); got > 1e-8 {
		t.Fatalf("true relative residual %g", got)
	}
	// CG on an SPD n×n system converges in at most n iterations.
	if iters > n {
		t.Fatalf("took %d iterations for n=%d", iters, n)
	}
}

func TestCGMatchesReference(t *testing.T) {
	coo := randomSPD(120, 7)
	b := RandomRHS(120, 11)
	cg, err := NewCG(coo.ToCSB(16))
	if err != nil {
		t.Fatal(err)
	}
	cg.Tol = 1e-12
	x, _, _, err := cg.Solve(context.Background(), rt.NewHPX(rt.Options{Workers: 2}), b)
	if err != nil {
		t.Fatal(err)
	}
	xref, _, err := CGReference(coo.ToCSR(), b, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xref[i]) > 1e-8*(1+math.Abs(xref[i])) {
			t.Fatalf("x[%d] = %v, reference %v", i, x[i], xref[i])
		}
	}
}

func TestCGAllRuntimesAgree(t *testing.T) {
	coo := randomSPD(80, 17)
	b := RandomRHS(80, 19)
	var first []float64
	for _, r := range []rt.Runtime{
		rt.NewBSP(rt.Options{Workers: 2}),
		rt.NewDeepSparse(rt.Options{Workers: 3}),
		rt.NewHPX(rt.Options{Workers: 3}),
		rt.NewRegent(rt.Options{Workers: 2, AnalysisCost: 5}),
	} {
		cg, err := NewCG(coo.ToCSB(10))
		if err != nil {
			t.Fatal(err)
		}
		x, _, _, err := cg.Solve(context.Background(), r, b)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if first == nil {
			first = x
			continue
		}
		for i := range x {
			if x[i] != first[i] {
				t.Fatalf("%s: x[%d] differs bitwise from BSP", r.Name(), i)
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	coo := randomSPD(30, 23)
	cg, err := NewCG(coo.ToCSB(8))
	if err != nil {
		t.Fatal(err)
	}
	x, relres, iters, err := cg.Solve(context.Background(), nil, make([]float64, 30))
	if err != nil || relres != 0 || iters != 0 {
		t.Fatalf("zero rhs: %v %v %v", relres, iters, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func TestCGValidation(t *testing.T) {
	rect := sparse.NewCOO(4, 6, 1)
	rect.Append(0, 0, 1)
	if _, err := NewCG(rect.ToCSB(2)); err == nil {
		t.Error("rectangular matrix accepted")
	}
	coo := randomSPD(10, 1)
	cg, err := NewCG(coo.ToCSB(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cg.Solve(context.Background(), nil, make([]float64, 3)); err == nil {
		t.Error("wrong rhs length accepted")
	}
}

func TestCGGraphShape(t *testing.T) {
	coo := randomSPD(64, 31)
	cg, err := NewCG(coo.ToCSB(8))
	if err != nil {
		t.Fatal(err)
	}
	st := cg.Graph().ComputeStats()
	if st.Tasks == 0 {
		t.Fatal("empty graph")
	}
	// CG's kernel critical path is short — shorter than LOBPCG's.
	lob, err := NewLOBPCG(coo.ToCSB(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.KernelCriticalPath >= lob.Graph().ComputeStats().KernelCriticalPath {
		t.Errorf("CG kernel critical path %d should be below LOBPCG's", st.KernelCriticalPath)
	}
}
