package solver

import (
	"context"
	"math"
	"testing"

	"sparsetask/internal/rt"
)

func batchRHS(m, k int, seed int64) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = RandomRHS(m, seed+int64(j))
	}
	return bs
}

func TestBatchCGSolvesLaplacian(t *testing.T) {
	n, k := 200, 4
	coo := laplacian1D(n)
	c, err := NewBatchCG(coo.ToCSB(32), k)
	if err != nil {
		t.Fatal(err)
	}
	c.Tol = 1e-10
	bs := batchRHS(n, k, 3)
	res, err := c.Solve(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 3}), bs)
	if err != nil {
		t.Fatal(err)
	}
	csr := coo.ToCSR()
	for j, r := range res {
		if !r.Converged {
			t.Fatalf("column %d did not converge (relres %g after %d iters)", j, r.RelRes, r.Iterations)
		}
		if got := residual(csr, r.X, bs[j]); got > 1e-8 {
			t.Fatalf("column %d true relative residual %g", j, got)
		}
		if r.Iterations > n {
			t.Fatalf("column %d took %d iterations for n=%d", j, r.Iterations, n)
		}
	}
}

func TestBatchCGZeroColumn(t *testing.T) {
	m, k := 60, 3
	coo := randomSPD(m, 23)
	c, err := NewBatchCG(coo.ToCSB(8), k)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{RandomRHS(m, 1), make([]float64, m), RandomRHS(m, 2)}
	res, err := c.Solve(context.Background(), nil, bs)
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Converged || res[1].Iterations != 0 || res[1].RelRes != 0 {
		t.Fatalf("zero column: %+v", res[1])
	}
	for _, v := range res[1].X {
		if v != 0 {
			t.Fatal("zero rhs column must give zero solution")
		}
	}
	csr := coo.ToCSR()
	for _, j := range []int{0, 2} {
		if got := residual(csr, res[j].X, bs[j]); got > 1e-8 {
			t.Fatalf("column %d residual %g", j, got)
		}
	}
}

func TestBatchCGAllRuntimesAgree(t *testing.T) {
	m, k := 80, 4
	coo := randomSPD(m, 17)
	bs := batchRHS(m, k, 19)
	var first []BatchColResult
	for _, r := range []rt.Runtime{
		rt.NewBSP(rt.Options{Workers: 2}),
		rt.NewDeepSparse(rt.Options{Workers: 3}),
		rt.NewHPX(rt.Options{Workers: 3, NUMADomains: 2}),
		rt.NewRegent(rt.Options{Workers: 2, AnalysisCost: 5}),
	} {
		c, err := NewBatchCG(coo.ToCSB(10), k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Solve(context.Background(), r, bs)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if first == nil {
			first = res
			continue
		}
		for j := range res {
			for i := range res[j].X {
				if res[j].X[i] != first[j].X[i] {
					t.Fatalf("%s: column %d x[%d] differs bitwise from BSP", r.Name(), j, i)
				}
			}
		}
	}
}

// TestBatchCGSymmetricStorage: a SymCSB-backed batch solve must agree with
// the general-storage batch solve to high precision.
func TestBatchCGSymmetricStorage(t *testing.T) {
	m, k := 96, 4
	coo := randomSPD(m, 29)
	bs := batchRHS(m, k, 31)
	gen, err := NewBatchCG(coo.ToCSB(16), k)
	if err != nil {
		t.Fatal(err)
	}
	symm, err := coo.ToSymCSB(16)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := NewBatchCG(symm, k)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gen.Solve(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), bs)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sym.Solve(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), bs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rg {
		for i := range rg[j].X {
			if math.Abs(rg[j].X[i]-rs[j].X[i]) > 1e-9*(1+math.Abs(rg[j].X[i])) {
				t.Fatalf("column %d: x[%d] general %v vs symmetric %v", j, i, rg[j].X[i], rs[j].X[i])
			}
		}
	}
}

func TestBatchCGValidation(t *testing.T) {
	coo := randomSPD(10, 1)
	if _, err := NewBatchCG(coo.ToCSB(4), 0); err == nil {
		t.Error("k=0 accepted")
	}
	c, err := NewBatchCG(coo.ToCSB(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(context.Background(), nil, [][]float64{make([]float64, 10)}); err == nil {
		t.Error("wrong batch width accepted")
	}
	if _, err := c.Solve(context.Background(), nil, [][]float64{make([]float64, 10), make([]float64, 3)}); err == nil {
		t.Error("wrong rhs length accepted")
	}
}

// TestBatchPCGJacobiFallback: a batched solve against a Jacobi-kind
// preconditioner routes through the width-k DiagScale path.
func TestBatchPCGJacobiFallback(t *testing.T) {
	m := 80
	coo := randomSPD(m, 37)
	csr := coo.ToCSR()
	jac := jacobiOf(csr)
	k := 3
	bs := batchRHS(m, k, 41)
	c, err := NewBatchPCG(coo.ToCSB(16), jac, k, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Solve(context.Background(), rt.NewHPX(rt.Options{Workers: 2}), bs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range res {
		if !res[j].Converged {
			t.Fatalf("column %d did not converge", j)
		}
		if got := residual(csr, res[j].X, bs[j]); got > 1e-8 {
			t.Fatalf("column %d residual %g", j, got)
		}
	}
}
