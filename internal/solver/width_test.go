package solver

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// withIdentityTail returns diag(a, 2·I): the matrix with tail more rows whose
// only entry is a 2 on the diagonal. A right-hand side supported on the tail
// converges in one iteration (α = 1/2 exactly), whatever the rest of the
// batch is doing.
func withIdentityTail(a *sparse.COO, tail int) *sparse.COO {
	n := a.Rows + tail
	out := sparse.NewCOO(n, n, a.NNZ()+tail)
	for k := range a.V {
		out.Append(a.I[k], a.J[k], a.V[k])
	}
	for i := a.Rows; i < n; i++ {
		out.Append(int32(i), int32(i), 2)
	}
	out.Compact()
	return out
}

// jacobiOf is the Jacobi-kind preconditioner of a matrix with a full diagonal.
func jacobiOf(csr *sparse.CSR) *precond.IC0 {
	dinv := make([]float64, csr.Rows)
	for i := 0; i < csr.Rows; i++ {
		for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
			if int(csr.ColIdx[p]) == i {
				dinv[i] = 1 / csr.V[p]
			}
		}
	}
	return &precond.IC0{Kind: precond.KindJacobi, Rows: csr.Rows, DiagInv: dinv}
}

func sameColumn(a, b BatchColResult) error {
	if a.Iterations != b.Iterations || a.Converged != b.Converged || a.Breakdown != b.Breakdown ||
		math.Float64bits(a.RelRes) != math.Float64bits(b.RelRes) {
		return fmt.Errorf("iterations %d/%d, converged %v/%v, breakdown %v/%v, relres %v/%v",
			a.Iterations, b.Iterations, a.Converged, b.Converged, a.Breakdown, b.Breakdown, a.RelRes, b.RelRes)
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Errorf("x[%d] = %v / %v", i, a.X[i], b.X[i])
		}
	}
	return nil
}

// TestWidthIndependence is the property the one driver rests on: column j of
// a k-wide solve is the k = 1 solve of b_j, bit for bit — solution, residual,
// iteration count, outcome — for cg, IC(0)-pcg and Jacobi-pcg, on general and
// symmetric storage (a banded and an arrowhead schedule), under every
// backend at 1, 2 and 4 workers, at widths on both sides of the kernels'
// fixed-width bodies. The batch holds a zero column (born converged) and a
// column that retires at iteration 1 while its neighbours run on. This is
// what makes a served cg/pcg job's answer a function of the job alone; it
// covers what TestBatchCGMatchesSingleRHS, TestBatchPCGMatchesSingleRHS (1e-12
// and 1e-8 agreement with the then-separate single-RHS driver) and
// TestBatchCGColumnIndependence checked.
func TestWidthIndependence(t *testing.T) {
	const block, tail = 16, 24
	wave := withIdentityTail(laplacian2D(10), tail)
	// An arrowhead whose diagonal varies, so CG needs more than the three
	// iterations a·I + rank 2 would take.
	arrow := arrowheadSPD(136)
	for i := 0; i < arrow.Rows; i++ {
		arrow.Append(int32(i), int32(i), float64(i%17))
	}
	arrow = withIdentityTail(arrow, tail)
	type storage struct {
		name string
		coo  *sparse.COO
		mat  sparse.Matrix
	}
	stores := []storage{
		{"csb", wave, wave.ToCSB(block)},
		{"symcsb-wave", wave, toSym(t, wave, block)},
		{"symcsb-arrowhead", arrow, toSym(t, arrow, block)},
	}
	ctx := context.Background()
	for _, s := range stores {
		rows := s.coo.Rows
		csr := s.coo.ToCSR()
		ic, err := precond.Factorize(csr)
		if err != nil || ic.Kind != precond.KindIC0 {
			t.Fatalf("%s: factorize: %v (kind %v)", s.name, err, ic.Kind)
		}
		// Nine right-hand sides: random ones, a zero one, and one on the
		// identity tail.
		pool := batchRHS(rows, 9, 3)
		pool[2] = make([]float64, rows)
		pool[4] = make([]float64, rows)
		for i := rows - tail; i < rows; i++ {
			pool[4][i] = float64(i%5) - 1.5
		}
		for _, v := range []struct {
			name string
			m    *precond.IC0
		}{{"cg", nil}, {"pcg-ic0", ic}, {"pcg-jacobi", jacobiOf(csr)}} {
			solve := func(r rt.Runtime, bs [][]float64) []BatchColResult {
				c, err := newKrylov(v.name, s.mat, v.m, len(bs), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Solve(ctx, r, bs)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := make([]BatchColResult, len(pool))
			for j, b := range pool {
				want[j] = solve(rt.NewDeepSparse(rt.Options{Workers: 1}), [][]float64{b})[0]
				if !want[j].Converged {
					t.Fatalf("%s %s: k=1 solve of rhs %d: %v", v.name, s.name, j, want[j].Err())
				}
			}
			if want[2].Iterations != 0 || want[4].Iterations != 1 || want[0].Iterations < 3 {
				t.Fatalf("%s %s: iterations zero/tail/random = %d/%d/%d, want 0/1/several",
					v.name, s.name, want[2].Iterations, want[4].Iterations, want[0].Iterations)
			}
			for _, w := range []int{1, 2, 4} {
				opt := rt.Options{Workers: w, AnalysisCost: 1}
				for _, r := range []rt.Runtime{rt.NewBSP(opt), rt.NewDeepSparse(opt), rt.NewHPX(opt), rt.NewRegent(opt)} {
					for _, k := range []int{1, 2, 3, 4, 5, 8, 9} {
						for j, got := range solve(r, pool[:k]) {
							if err := sameColumn(got, want[j]); err != nil {
								t.Fatalf("%s %s, %s at %d workers: column %d of the %d-wide solve differs from its k=1 solve: %v",
									v.name, s.name, r.Name(), w, j, k, err)
							}
						}
					}
				}
			}
		}
	}
}

// indefiniteTail returns diag(a, +1, −1, +1, …): an SPD block followed by an
// indefinite diagonal one on which the all-ones vector has pᵀAp = 0 exactly.
func indefiniteTail(a *sparse.COO, tail int) *sparse.COO {
	n := a.Rows + tail
	out := sparse.NewCOO(n, n, a.NNZ()+tail)
	for k := range a.V {
		out.Append(a.I[k], a.J[k], a.V[k])
	}
	for i := 0; i < tail; i++ {
		out.Append(int32(a.Rows+i), int32(a.Rows+i), float64(1-2*(i%2)))
	}
	out.Compact()
	return out
}

// Breakdown is an outcome, not MaxIter iterations: on diag(+1, −1, …) with
// b = 1, pᵀAp is exactly 0 at the first step. The single-RHS adapters must
// stop there and say the matrix is not positive definite. At the parent
// commit both drivers froze the column and ran all 10·n = 20 000 iterations
// before reporting "did not converge".
func TestBreakdownStopsAtOnce(t *testing.T) {
	const n = 2000
	coo := indefiniteTail(sparse.NewCOO(0, 0, 0), n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	cg, err := NewCG(coo.ToCSB(250))
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := NewPCG(coo.ToCSB(250), jacobiOf(coo.ToCSR()))
	if err != nil {
		t.Fatal(err)
	}
	for name, solve := range map[string]func(context.Context, rt.Runtime, []float64) ([]float64, float64, int, error){
		"cg": cg.Solve, "pcg": pcg.Solve,
	} {
		_, _, iters, err := solve(context.Background(), nil, ones)
		if err == nil || !strings.Contains(err.Error(), "not positive definite (pᵀAp = 0.000e+00 at iteration 1)") {
			t.Errorf("%s: err = %v, want a breakdown at iteration 1", name, err)
		}
		if iters != 1 {
			t.Errorf("%s: stopped after %d iterations, want 1", name, iters)
		}
	}

	// Negative and non-finite curvature are breakdowns too.
	for name, d := range map[string]float64{"negative": -1, "nan": math.NaN(), "inf": math.Inf(1)} {
		a := sparse.NewCOO(4, 4, 4)
		for i := int32(0); i < 4; i++ {
			a.Append(i, i, d)
		}
		c, err := NewBatchCG(a.ToCSB(2), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Solve(context.Background(), nil, [][]float64{{1, 2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0]; !r.Breakdown || r.Converged || r.Iterations != 1 || (r.PAP > 0 && !math.IsInf(r.PAP, 1)) {
			t.Errorf("%s diagonal: %+v, want a breakdown at iteration 1", name, r)
		}
	}
}

// A column that breaks down retires alone: its neighbours' results are the
// bits they have in a batch where a well-behaved right-hand side sits in its
// place, and a zero column stays born converged.
func TestBreakdownLeavesNeighboursUntouched(t *testing.T) {
	const tail = 32
	spd := randomSPD(96, 7)
	coo := indefiniteTail(spd, tail)
	rows := coo.Rows
	onSPD := func(seed int64) []float64 {
		b := make([]float64, rows)
		copy(b, RandomRHS(spd.Rows, seed))
		return b
	}
	bad := make([]float64, rows)
	for i := spd.Rows; i < rows; i++ {
		bad[i] = 1
	}
	for _, m := range []*precond.IC0{nil, jacobiOf(coo.ToCSR())} {
		solve := func(bs [][]float64) []BatchColResult {
			c, err := newKrylov("test", coo.ToCSB(16), m, len(bs), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Solve(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), bs)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		zeroCol := make([]float64, rows)
		with := solve([][]float64{onSPD(1), bad, onSPD(2), zeroCol})
		without := solve([][]float64{onSPD(1), onSPD(3), onSPD(2), zeroCol})
		if b := with[1]; !b.Breakdown || b.Converged || b.Iterations != 1 || b.PAP != 0 {
			t.Fatalf("pcg=%v: bad column %+v, want a breakdown at iteration 1 with pᵀAp = 0", m != nil, b)
		}
		for _, j := range []int{0, 2, 3} {
			if !with[j].Converged {
				t.Fatalf("pcg=%v: column %d: %v", m != nil, j, with[j].Err())
			}
			if err := sameColumn(with[j], without[j]); err != nil {
				t.Errorf("pcg=%v: column %d moved when its neighbour broke down: %v", m != nil, j, err)
			}
		}
		if with[3].Iterations != 0 || with[0].Iterations < 5 {
			t.Errorf("pcg=%v: zero column took %d iterations, random column %d", m != nil, with[3].Iterations, with[0].Iterations)
		}
	}
}
