package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// allBackends builds every rt backend with opt, in rt.Backends order, so no
// test can leave one out.
func allBackends(opt rt.Options) []rt.Runtime {
	var rs []rt.Runtime
	for _, name := range rt.Backends() {
		r, err := rt.ByName(name, opt)
		if err != nil {
			panic(err)
		}
		rs = append(rs, r)
	}
	return rs
}

// laplacian1D returns the n×n 1D Laplacian (tridiagonal 2,-1) whose
// eigenvalues are known in closed form: 2 − 2cos(kπ/(n+1)).
func laplacian1D(n int) *sparse.COO {
	a := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 2)
		if i+1 < n {
			a.Append(int32(i), int32(i+1), -1)
			a.Append(int32(i+1), int32(i), -1)
		}
	}
	return a
}

func laplacianEig(n, k int) float64 {
	return 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
}

// randomSPD returns a random symmetric positive definite sparse matrix.
func randomSPD(m int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewCOO(m, m, m*8)
	for i := 0; i < m; i++ {
		a.Append(int32(i), int32(i), 8+rng.Float64())
	}
	for k := 0; k < m*3; k++ {
		i, j := int32(rng.Intn(m)), int32(rng.Intn(m))
		if i == j {
			continue
		}
		v := rng.NormFloat64() * 0.3
		a.Append(i, j, v)
		a.Append(j, i, v)
	}
	a.Compact()
	return a
}

func TestLanczosLaplacianLargestEigenvalues(t *testing.T) {
	n := 100
	coo := laplacian1D(n)
	// The Laplacian's top eigenvalues cluster quadratically and converge
	// slowly from a single random start vector, so run Lanczos nearly to
	// full dimension, where the Ritz values are exact.
	l, err := NewLanczos(coo.ToCSB(16), 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 4}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		want := laplacianEig(n, n-k)
		if math.Abs(res.Eigenvalues[k]-want) > 1e-6 {
			t.Errorf("λ_%d = %v, want %v", k, res.Eigenvalues[k], want)
		}
	}
}

func TestLanczosMatchesReferenceExactly(t *testing.T) {
	// Same seed ⇒ same starting vector ⇒ same Krylov space. Ritz values
	// should agree to high precision despite different execution orders.
	coo := randomSPD(80, 3)
	csr := coo.ToCSR()
	l, err := NewLanczos(coo.ToCSB(10), 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewHPX(rt.Options{Workers: 3}), 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LanczosReference(csr, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eigenvalues) != len(want) {
		t.Fatalf("got %d Ritz values, reference has %d", len(res.Eigenvalues), len(want))
	}
	// The task version and the reference accumulate in different floating-
	// point orders (CSB tiles vs CSR rows, partitioned vs whole-vector
	// dots); Lanczos amplifies such rounding for *unconverged* interior
	// Ritz values, so only the converged extremal values are comparable.
	for i := 0; i < 3; i++ {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Errorf("Ritz %d: %v vs reference %v", i, res.Eigenvalues[i], want[i])
		}
	}
}

func TestLanczosAllRuntimesAgree(t *testing.T) {
	coo := randomSPD(60, 5)
	runtimes := []rt.Runtime{
		rt.NewBSP(rt.Options{Workers: 2}),
		rt.NewDeepSparse(rt.Options{Workers: 2}),
		rt.NewHPX(rt.Options{Workers: 2}),
		rt.NewRegent(rt.Options{Workers: 2}),
	}
	var first []float64
	for _, r := range runtimes {
		l, err := NewLanczos(coo.ToCSB(8), 12)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(context.Background(), r, 11)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if first == nil {
			first = res.Eigenvalues
			continue
		}
		for i := range first {
			if res.Eigenvalues[i] != first[i] {
				t.Errorf("%s: Ritz %d = %v, differs from BSP %v", r.Name(), i, res.Eigenvalues[i], first[i])
			}
		}
	}
}

func TestLanczosBreakdownDetection(t *testing.T) {
	// Identity matrix: Krylov space is 1-dimensional; β_1 = 0 immediately.
	n := 32
	a := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 1)
	}
	l, err := NewLanczos(a.ToCSB(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("expected immediate breakdown convergence, got %+v", res)
	}
	if math.Abs(res.Eigenvalues[0]-1) > 1e-12 {
		t.Errorf("λ = %v, want 1", res.Eigenvalues[0])
	}
}

func TestLanczosInputValidation(t *testing.T) {
	coo := randomSPD(10, 1)
	if _, err := NewLanczos(coo.ToCSB(4), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewLanczos(coo.ToCSB(4), 11); err == nil {
		t.Error("k > m accepted")
	}
}

func TestLOBPCGLaplacianSmallestEigenvalues(t *testing.T) {
	// The unpreconditioned Laplacian is ill-conditioned, so the residual
	// decays slowly; the Ritz values themselves converge to ~1e-8 within 80
	// iterations (eigenvalue error ≈ residual²/gap).
	n := 100
	coo := laplacian1D(n)
	l, err := NewLOBPCG(coo.ToCSB(16), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 4}), 1, 80)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		want := laplacianEig(n, k+1)
		if math.Abs(res.Eigenvalues[k]-want) > 1e-6 {
			t.Errorf("λ_%d = %v, want %v", k, res.Eigenvalues[k], want)
		}
	}
}

func TestLOBPCGMatchesReference(t *testing.T) {
	coo := randomSPD(90, 13)
	csr := coo.ToCSR()
	l, err := NewLOBPCG(coo.ToCSB(12), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewHPX(rt.Options{Workers: 3}), 17, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := LOBPCGReference(csr, 3, 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Errorf("λ_%d = %v, reference %v", i, res.Eigenvalues[i], want[i])
		}
	}
}

func TestLOBPCGAllRuntimesAgree(t *testing.T) {
	coo := randomSPD(72, 23)
	runtimes := []rt.Runtime{
		rt.NewBSP(rt.Options{Workers: 2}),
		rt.NewDeepSparse(rt.Options{Workers: 3}),
		rt.NewHPX(rt.Options{Workers: 3}),
		rt.NewRegent(rt.Options{Workers: 2, DynamicTracing: true}),
	}
	var first []float64
	for _, r := range runtimes {
		l, err := NewLOBPCG(coo.ToCSB(9), 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(context.Background(), r, 5, 8)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if first == nil {
			first = res.Eigenvalues
			continue
		}
		for i := range first {
			if res.Eigenvalues[i] != first[i] {
				t.Errorf("%s: λ_%d = %v, differs from BSP %v", r.Name(), i, res.Eigenvalues[i], first[i])
			}
		}
	}
}

func TestLOBPCGProgramShape(t *testing.T) {
	coo := randomSPD(64, 29)
	l, err := NewLOBPCG(coo.ToCSB(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 30 calls per iteration, mirroring Alg. 2's kernel structure (the
	// paper counts a kernel-level critical path of 29 for its variant).
	if got := len(l.Program().Calls); got != 30 {
		t.Errorf("LOBPCG program has %d calls, want 30", got)
	}
	st := l.Graph().ComputeStats()
	if st.Tasks == 0 || st.Roots == 0 {
		t.Fatalf("degenerate TDG: %+v", st)
	}
	// The kernel-level critical path should be deep (LOBPCG's complexity),
	// far deeper than Lanczos's.
	lz, err := NewLanczos(coo.ToCSB(8), 5)
	if err != nil {
		t.Fatal(err)
	}
	lzst := lz.Graph().ComputeStats()
	if st.KernelCriticalPath <= lzst.KernelCriticalPath {
		t.Errorf("LOBPCG kernel critical path %d should exceed Lanczos %d",
			st.KernelCriticalPath, lzst.KernelCriticalPath)
	}
}

func TestLOBPCGInputValidation(t *testing.T) {
	coo := randomSPD(12, 1)
	if _, err := NewLOBPCG(coo.ToCSB(4), 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewLOBPCG(coo.ToCSB(4), 5); err == nil {
		t.Error("3n > m accepted")
	}
}

func TestLOBPCGFixedIterationMode(t *testing.T) {
	coo := randomSPD(48, 31)
	l, err := NewLOBPCG(coo.ToCSB(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), nil, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Errorf("fixed mode ran %d iterations, want 4", res.Iterations)
	}
}

func TestLOBPCGJacobiPreconditioner(t *testing.T) {
	// A matrix with a strongly varying diagonal: D + small symmetric
	// off-diagonal coupling, D_ii spread over three orders of magnitude.
	// The Jacobi preconditioner should converge markedly faster.
	n := 200
	rng := rand.New(rand.NewSource(41))
	a := sparse.NewCOO(n, n, n*4)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 1+float64(i)*float64(i)*0.05)
	}
	for k := 0; k < n; k++ {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i == j {
			continue
		}
		v := rng.NormFloat64() * 0.05
		a.Append(i, j, v)
		a.Append(j, i, v)
	}
	a.Compact()
	csb := a.ToCSB(32)

	run := func(opts ...Option) Result {
		l, err := NewLOBPCG(csb, 3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		l.Tol = 1e-7
		l.MaxIter = 200
		res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	precond := run(WithJacobiPreconditioner())
	if !precond.Converged {
		t.Fatalf("preconditioned run did not converge: %+v", precond)
	}
	if plain.Converged && precond.Iterations >= plain.Iterations {
		t.Errorf("preconditioning did not help: %d iterations vs plain %d",
			precond.Iterations, plain.Iterations)
	}
	// Both must agree on the eigenvalues they found.
	if plain.Converged {
		for i := range precond.Eigenvalues {
			if math.Abs(precond.Eigenvalues[i]-plain.Eigenvalues[i]) > 1e-5*(1+math.Abs(plain.Eigenvalues[i])) {
				t.Errorf("λ_%d disagrees: %v vs %v", i, precond.Eigenvalues[i], plain.Eigenvalues[i])
			}
		}
	}
}

func TestLOBPCGPreconditionedAllRuntimesAgree(t *testing.T) {
	coo := randomSPD(72, 37)
	runtimes := []rt.Runtime{
		rt.NewBSP(rt.Options{Workers: 2}),
		rt.NewDeepSparse(rt.Options{Workers: 3}),
		rt.NewHPX(rt.Options{Workers: 3}),
	}
	var first []float64
	for _, r := range runtimes {
		l, err := NewLOBPCG(coo.ToCSB(9), 2, WithJacobiPreconditioner())
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(context.Background(), r, 5, 8)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if first == nil {
			first = res.Eigenvalues
			continue
		}
		for i := range first {
			if res.Eigenvalues[i] != first[i] {
				t.Errorf("%s: λ_%d differs", r.Name(), i)
			}
		}
	}
}

func TestLOBPCGEigenvectorResiduals(t *testing.T) {
	coo := randomSPD(90, 43)
	csr := coo.ToCSR()
	l, err := NewLOBPCG(coo.ToCSB(12), 3)
	if err != nil {
		t.Fatal(err)
	}
	l.Tol = 1e-8
	l.MaxIter = 300
	res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	v := l.Eigenvectors()
	m, n := 90, 3
	av := make([]float64, m*n)
	csr.SpMM(av, v, n)
	for j := 0; j < n; j++ {
		var num, den float64
		for i := 0; i < m; i++ {
			d := av[i*n+j] - res.Eigenvalues[j]*v[i*n+j]
			num += d * d
			den += v[i*n+j] * v[i*n+j]
		}
		if rel := math.Sqrt(num / den); rel > 1e-6 {
			t.Errorf("eigenpair %d residual %g", j, rel)
		}
	}
}

func TestLanczosRitzVectorResiduals(t *testing.T) {
	coo := randomSPD(80, 47)
	csr := coo.ToCSR()
	l, err := NewLanczos(coo.ToCSB(10), 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewHPX(rt.Options{Workers: 2}), 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := l.RitzVectors(2)
	if err != nil {
		t.Fatal(err)
	}
	m, want := 80, 2
	av := make([]float64, m*want)
	csr.SpMM(av, v, want)
	for j := 0; j < want; j++ {
		var num, den float64
		for i := 0; i < m; i++ {
			d := av[i*want+j] - res.Eigenvalues[j]*v[i*want+j]
			num += d * d
			den += v[i*want+j] * v[i*want+j]
		}
		if rel := math.Sqrt(num / den); rel > 1e-5 {
			t.Errorf("Ritz pair %d residual %g", j, rel)
		}
	}
	if _, err := l.RitzVectors(1000); err == nil {
		t.Error("excessive want accepted")
	}
}
