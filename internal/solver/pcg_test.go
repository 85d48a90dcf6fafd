package solver

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
	"sparsetask/internal/topo"
)

// laplacian2D builds the g×g-grid 5-point Laplacian: SPD, M-matrix-like, the
// canonical IC(0) target.
func laplacian2D(g int) *sparse.COO {
	n := g * g
	a := sparse.NewCOO(n, n, 5*n)
	at := func(r, c int) int32 { return int32(r*g + c) }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := at(r, c)
			a.Append(i, i, 4)
			if r > 0 {
				a.Append(i, at(r-1, c), -1)
			}
			if r < g-1 {
				a.Append(i, at(r+1, c), -1)
			}
			if c > 0 {
				a.Append(i, at(r, c-1), -1)
			}
			if c < g-1 {
				a.Append(i, at(r, c+1), -1)
			}
		}
	}
	return a
}

// TestPCGMatchesReference: the task-graph PCG must agree with the serial
// reference PCG and actually solve the system.
func TestPCGMatchesReference(t *testing.T) {
	coo := laplacian2D(20)
	n := coo.Rows
	csr := coo.ToCSR()
	m, err := precond.Factorize(csr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != precond.KindIC0 {
		t.Fatalf("expected IC0, got %v", m.Kind)
	}
	b := RandomRHS(n, 5)

	c, err := NewPCG(coo.ToCSB(32), m)
	if err != nil {
		t.Fatal(err)
	}
	x, relres, iters, err := c.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("PCG: %v (relres %g after %d iters)", err, relres, iters)
	}
	xref, itersRef, err := PCGReference(csr, m, b, c.Tol, c.MaxIter)
	if err != nil {
		t.Fatal(err)
	}
	// Same algorithm, same preconditioner; only intra-kernel accumulation
	// order differs (CSB tiles vs CSR rows), so solutions agree tightly.
	for i := range x {
		if math.Abs(x[i]-xref[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, reference %v", i, x[i], xref[i])
		}
	}
	if d := iters - itersRef; d < -1 || d > 1 {
		t.Fatalf("graph PCG took %d iterations, reference %d", iters, itersRef)
	}
	// And the residual really is small: ‖A·x − b‖/‖b‖ ≤ tol·10.
	ax := make([]float64, n)
	csr.SpMV(ax, x)
	num, den := 0.0, 0.0
	for i := range b {
		num += (ax[i] - b[i]) * (ax[i] - b[i])
		den += b[i] * b[i]
	}
	if math.Sqrt(num/den) > c.Tol*10 {
		t.Fatalf("true relative residual %g too large", math.Sqrt(num/den))
	}
}

// TestPCGIterationReduction is the acceptance criterion: on the seeded SPD
// generator at n ≥ 100k, IC(0)-preconditioned CG must converge in at most a
// third of the iterations unpreconditioned CG needs.
func TestPCGIterationReduction(t *testing.T) {
	const n = 100_000
	coo := matgen.SPDLaplacian(n, 42)
	csr := coo.ToCSR()
	m, err := precond.Factorize(csr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != precond.KindIC0 {
		t.Fatalf("IC(0) must succeed on the SPD generator, got %v", m.Kind)
	}
	b := RandomRHS(n, 7)
	const tol = 1e-8
	csb := coo.ToCSB(2048)

	cg, err := NewCG(csb)
	if err != nil {
		t.Fatal(err)
	}
	cg.Tol = tol
	_, _, cgIters, err := cg.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("CG: %v", err)
	}

	pcg, err := NewPCG(csb, m)
	if err != nil {
		t.Fatal(err)
	}
	pcg.Tol = tol
	_, _, pcgIters, err := pcg.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("PCG: %v", err)
	}
	t.Logf("n=%d: CG %d iterations, PCG %d (ratio %.2fx)", n, cgIters, pcgIters, float64(cgIters)/float64(pcgIters))
	if pcgIters*3 > cgIters {
		t.Fatalf("PCG took %d iterations, CG %d: want ≤ 1/3", pcgIters, cgIters)
	}
}

// TestPCGJacobiFallback: with a Jacobi preconditioner (the IC(0) breakdown
// fallback) the program uses the DiagScale path and must still converge to
// the reference solution.
func TestPCGJacobiFallback(t *testing.T) {
	coo := randomSPD(300, 11)
	csr := coo.ToCSR()
	n := coo.Rows
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
			if int(csr.ColIdx[p]) == i {
				dinv[i] = 1 / csr.V[p]
			}
		}
	}
	m := &precond.IC0{Kind: precond.KindJacobi, Rows: n, DiagInv: dinv, BreakdownRow: 0}
	b := RandomRHS(n, 13)
	c, err := NewPCG(coo.ToCSB(64), m)
	if err != nil {
		t.Fatal(err)
	}
	x, _, _, err := c.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	xref, _, err := PCGReference(csr, m, b, c.Tol, c.MaxIter)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xref[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, reference %v", i, x[i], xref[i])
		}
	}
}

// TestPCGDeterministicAcrossTopologies extends the bit-identical guarantee
// to the preconditioned solve: topology profiles and backends reschedule the
// triangular wavefronts but never change any row's accumulation order, so
// the full solve — solution vector and iteration count — must match exactly.
func TestPCGDeterministicAcrossTopologies(t *testing.T) {
	coo := laplacian2D(18)
	m, err := precond.Factorize(coo.ToCSR())
	if err != nil || m.Kind != precond.KindIC0 {
		t.Fatalf("factorize: %v kind=%v", err, m.Kind)
	}
	b := RandomRHS(coo.Rows, 3)
	topos := []topo.Topology{topo.Flat(), topo.Broadwell(), topo.EPYC()}
	backends := []string{"bsp", "deepsparse", "hpx", "regent"}
	var want []float64
	wantIters := 0
	var wantFrom string
	for _, tp := range topos {
		for _, backend := range backends {
			name := fmt.Sprintf("%s/%s", backend, tp.Name)
			opt := rt.Options{Workers: 4, Topo: tp}
			var r rt.Runtime
			switch backend {
			case "bsp":
				r = rt.NewBSP(opt)
			case "deepsparse":
				r = rt.NewDeepSparse(opt)
			case "hpx":
				r = rt.NewHPX(opt)
			case "regent":
				r = rt.NewRegent(opt)
			}
			c, err := NewPCG(coo.ToCSB(24), m)
			if err != nil {
				t.Fatal(err)
			}
			x, _, iters, err := c.Solve(context.Background(), r, b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want == nil {
				want, wantIters, wantFrom = x, iters, name
				continue
			}
			if iters != wantIters {
				t.Fatalf("%s: %d iterations, %s took %d", name, iters, wantFrom, wantIters)
			}
			for i := range want {
				if x[i] != want[i] {
					t.Fatalf("%s: x[%d] = %v differs from %s's %v (must be bit-identical)",
						name, i, x[i], wantFrom, want[i])
				}
			}
		}
	}
}

// TestPCGMemoizedLevels: passing precomputed level analyses (the server's
// factor cache path) must yield the same graph shape and the same solution.
func TestPCGMemoizedLevels(t *testing.T) {
	coo := laplacian2D(15)
	m, err := precond.Factorize(coo.ToCSR())
	if err != nil || m.Kind != precond.KindIC0 {
		t.Fatalf("factorize: %v kind=%v", err, m.Kind)
	}
	csb := coo.ToCSB(16)
	low := precond.AnalyzeLower(m.L, csb.Block)
	up := precond.AnalyzeUpper(m.U, csb.Block)
	b := RandomRHS(coo.Rows, 21)

	plain, err := NewPCG(csb, m)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := NewPCGWithLevels(csb, m, low, up)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.g.Tasks) != len(memo.g.Tasks) || plain.g.NumEdges != memo.g.NumEdges {
		t.Fatalf("memoized graph differs: %d/%d tasks, %d/%d edges",
			len(plain.g.Tasks), len(memo.g.Tasks), plain.g.NumEdges, memo.g.NumEdges)
	}
	x1, _, it1, err := plain.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, _, it2, err := memo.Solve(context.Background(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if it1 != it2 {
		t.Fatalf("iteration counts differ: %d vs %d", it1, it2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("memoized solve differs at %d", i)
		}
	}
}

// TestPCGRefusesUnsolvableFactor: a factor the triangular kernel cannot solve
// (here: a row of L that lost its diagonal, and U with a zeroed one) fails the
// constructor with an error naming the row — with analysed levels handed in,
// with none, and for the batch form — instead of iterating on ±Inf.
func TestPCGRefusesUnsolvableFactor(t *testing.T) {
	coo := laplacian2D(6)
	csb := coo.ToCSB(8)
	factor := func() *precond.IC0 {
		m, err := precond.Factorize(coo.ToCSR())
		if err != nil || m.Kind != precond.KindIC0 {
			t.Fatalf("factorize: %v kind=%v", err, m.Kind)
		}
		return m
	}
	noDiag := factor()
	noDiag.L.ColIdx[noDiag.L.RowPtr[8]-1] = 6 // row 7's diagonal becomes a second (7, 6)
	zeroDiag := factor()
	zeroDiag.U.V[zeroDiag.U.RowPtr[20]] = 0 // U's rows lead with the diagonal
	for _, tc := range []struct {
		name, want string
		m          *precond.IC0
	}{
		{"missing diagonal in L", "row 7 stores 0 diagonal entries", noDiag},
		{"zero diagonal in U", "row 20 has diagonal 0", zeroDiag},
	} {
		low, up := precond.AnalyzeLower(tc.m.L, csb.Block), precond.AnalyzeUpper(tc.m.U, csb.Block)
		_, errPlain := NewPCG(csb, tc.m)
		_, errMemo := NewPCGWithLevels(csb, tc.m, low, up)
		_, errBatch := NewBatchPCG(csb, tc.m, 4, nil, nil)
		for how, err := range map[string]error{"NewPCG": errPlain, "NewPCGWithLevels": errMemo, "NewBatchPCG": errBatch} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want one containing %q", tc.name, how, err, tc.want)
			}
		}
	}
}
