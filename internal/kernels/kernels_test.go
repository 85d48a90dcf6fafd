package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

func randomSym(rng *rand.Rand, m int, density float64) *sparse.COO {
	a := sparse.NewCOO(m, m, int(density*float64(m*m))+m)
	for i := 0; i < m; i++ {
		a.Append(int32(i), int32(i), 4+rng.Float64())
	}
	n := int(density * float64(m) * float64(m) / 2)
	for k := 0; k < n; k++ {
		i, j := int32(rng.Intn(m)), int32(rng.Intn(m))
		if i == j {
			continue
		}
		v := rng.NormFloat64()
		a.Append(i, j, v)
		a.Append(j, i, v)
	}
	a.Compact()
	return a
}

func fillRand(rng *rand.Rand, s []float64) {
	for i := range s {
		s[i] = rng.NormFloat64()
	}
}

// buildListing1 constructs Listing 1 and a filled store.
func buildListing1(t *testing.T, m, block, n int, seed int64, reduce bool) (*graph.TDG, *program.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := randomSym(rng, m, 0.2)
	csb := coo.ToCSB(block)

	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	Z := p.Small("Z", n, n)
	Q := p.Vec("Q", n)
	P := p.Small("P", n, n)
	p.SpMM(Y, A, X)
	p.Calls[0].ReduceSpMM = reduce
	p.Gemm(Q, 1, Y, Z, 0)
	p.GemmT(P, Y, Q)

	g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	st.SetSparse(A, csb)
	fillRand(rng, st.Vec[X])
	fillRand(rng, st.Small[Z])
	return g, st
}

// reference computes Listing 1 directly with CSR + naive dense ops.
func referenceListing1(st *program.Store, csb *sparse.CSB, n int) (y, q, p []float64) {
	m := st.P.M
	x := st.Vec[1] // X is operand 1 by construction order
	z := st.Small[3]
	y = make([]float64, m*n)
	csb.SpMM(y, x, n)
	q = make([]float64, m*n)
	blas.Gemm(1, y, m, n, z, n, 0, q)
	p = make([]float64, n*n)
	blas.GemmTN(1, y, m, n, q, n, 0, p)
	return
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSequentialExecutionMatchesReference(t *testing.T) {
	for _, reduce := range []bool{false, true} {
		g, st := buildListing1(t, 30, 7, 3, 11, reduce)
		RunSequential(g, st)
		csb := st.SparseM[0]
		y, q, p := referenceListing1(st, csb, 3)
		if d := maxAbsDiff(st.Vec[2], y); d > 1e-10 {
			t.Errorf("reduce=%v: Y diff %g", reduce, d)
		}
		if d := maxAbsDiff(st.Vec[4], q); d > 1e-10 {
			t.Errorf("reduce=%v: Q diff %g", reduce, d)
		}
		if d := maxAbsDiff(st.Small[5], p); d > 1e-9 {
			t.Errorf("reduce=%v: P diff %g", reduce, d)
		}
	}
}

// randomTopoExec executes the TDG in a random dependency-respecting order.
// If any needed dependency edge were missing from the graph, some random
// order would compute with stale data and produce a different result —
// making this a property test of the dependency generator itself.
func randomTopoExec(g *graph.TDG, st *program.Store, rng *rand.Rand) {
	indeg := make([]int, len(g.Tasks))
	ready := []int32{}
	for i := range g.Tasks {
		indeg[i] = len(g.Tasks[i].Deps)
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	done := 0
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		Exec(g, &g.Tasks[id], st)
		done++
		for _, s := range g.Tasks[id].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != len(g.Tasks) {
		panic("randomTopoExec: graph has a cycle or disconnected counts")
	}
}

func TestRandomTopologicalOrdersAgree(t *testing.T) {
	f := func(seed int64) bool {
		g, st1 := buildListing1(t, 24, 5, 2, seed, false)
		RunSequential(g, st1)
		// Second store with identical inputs, random execution order.
		_, st2 := buildListing1(t, 24, 5, 2, seed, false)
		randomTopoExec(g, st2, rand.New(rand.NewSource(seed+1)))
		// Bitwise identical: execution order of independent tasks must not
		// affect results because reduction orders are fixed inside tasks.
		for op := range st1.Vec {
			a, b := st1.Vec[op], st2.Vec[op]
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		for op := range st1.Small {
			a, b := st1.Small[op], st2.Small[op]
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDotNormScaleChain(t *testing.T) {
	m, block := 20, 6
	p := program.New(m, block)
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	nrm := p.Scalar("nrm")
	p.Norm(nrm, X)
	p.ScaleInv(Y, X, nrm)
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	rng := rand.New(rand.NewSource(7))
	fillRand(rng, st.Vec[X])
	RunSequential(g, st)
	want := blas.Nrm2(st.Vec[X])
	if math.Abs(st.Scalars[nrm]-want) > 1e-12*want {
		t.Errorf("norm = %v, want %v", st.Scalars[nrm], want)
	}
	if got := blas.Nrm2(st.Vec[Y]); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized vector norm = %v, want 1", got)
	}
}

func TestSmallStepRuns(t *testing.T) {
	m, block := 8, 4
	p := program.New(m, block)
	s1 := p.Scalar("a")
	s2 := p.Scalar("b")
	p.SmallStep("double", func(st *program.Store) {
		st.Scalars[s2] = 2 * st.Scalars[s1]
	}, []program.OperandID{s1}, []program.OperandID{s2})
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	st.Scalars[s1] = 21
	RunSequential(g, st)
	if st.Scalars[s2] != 42 {
		t.Errorf("small step result = %v, want 42", st.Scalars[s2])
	}
}

func TestCopyAndAxpby(t *testing.T) {
	m, block := 12, 5
	p := program.New(m, block)
	X := p.Vec("X", 2)
	Y := p.Vec("Y", 2)
	W := p.Vec("W", 2)
	p.Copy(Y, X)
	p.Axpby(W, 2, X, -1, Y) // W = 2X - Y = X
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	rng := rand.New(rand.NewSource(9))
	fillRand(rng, st.Vec[X])
	RunSequential(g, st)
	if d := maxAbsDiff(st.Vec[W], st.Vec[X]); d > 1e-15 {
		t.Errorf("W != X, diff %g", d)
	}
}

func TestZeroTaskClearsStaleData(t *testing.T) {
	// Row block 1 is empty; Y must be zeroed there even if it held garbage.
	m, block := 8, 4
	a := sparse.NewCOO(m, m, 1)
	a.Append(0, 0, 3)
	csb := a.ToCSB(block)
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMM(Y, A, X)
	g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	st.SetSparse(A, csb)
	for i := range st.Vec[Y] {
		st.Vec[Y][i] = 999
	}
	st.Vec[X][0] = 2
	RunSequential(g, st)
	if st.Vec[Y][0] != 6 {
		t.Errorf("Y[0] = %v, want 6", st.Vec[Y][0])
	}
	for i := 1; i < m; i++ {
		if st.Vec[Y][i] != 0 {
			t.Errorf("Y[%d] = %v, want 0 (stale data must be cleared)", i, st.Vec[Y][i])
		}
	}
}

func TestFusedExecutionMatchesUnfused(t *testing.T) {
	f := func(seed int64) bool {
		g, st1 := buildListing1(t, 28, 6, 3, seed, false)
		RunSequential(g, st1)
		fused := graph.Fuse(g)
		if err := fused.Validate(); err != nil {
			t.Fatal(err)
		}
		_, st2 := buildListing1(t, 28, 6, 3, seed, false)
		RunSequential(fused, st2)
		for op := range st1.Vec {
			for i := range st1.Vec[op] {
				if st1.Vec[op][i] != st2.Vec[op][i] {
					return false
				}
			}
		}
		for op := range st1.Small {
			for i := range st1.Small[op] {
				if st1.Small[op][i] != st2.Small[op][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFusedRandomTopoOrdersAgree(t *testing.T) {
	// Fused graphs must also be schedule-independent.
	g, st1 := buildListing1(t, 24, 5, 2, 77, false)
	fused := graph.Fuse(g)
	RunSequential(fused, st1)
	_, st2 := buildListing1(t, 24, 5, 2, 77, false)
	randomTopoExec(fused, st2, rand.New(rand.NewSource(1)))
	for op := range st1.Vec {
		for i := range st1.Vec[op] {
			if st1.Vec[op][i] != st2.Vec[op][i] {
				t.Fatalf("vec %d[%d] differs under fused random order", op, i)
			}
		}
	}
}

// colKernels builds the program CDOT(dot, a, b) ; CAXPBY(out, a, coef, beta, b)
// at width n over m rows and returns its graph, store and operand ids.
func colKernels(t *testing.T, m, block, n int, beta float64) (*graph.TDG, *program.Store, [5]program.OperandID) {
	t.Helper()
	p := program.New(m, block)
	a, b, out := p.Vec("a", n), p.Vec("b", n), p.Vec("out", n)
	dot, coef := p.Small("dot", 1, n), p.Small("coef", 1, n)
	p.ColDot(dot, a, b)
	p.ColAxpby(out, a, coef, beta, b)
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, program.NewStore(p), [5]program.OperandID{a, b, out, dot, coef}
}

// The width-1 bodies of TColDotPart and TColAxpby are the generic loop with
// its inner loop of one removed: on every column j of a k-wide operand pair
// the generic loop must produce, bit for bit, what the width-1 body produces
// on that column alone. Partition lengths 1, odd, even and a ragged last
// partition (a partition is never empty: program.New rejects m = 0), Beta =
// ±1, and a zero coefficient (the retired-column case).
func TestWidthOneColumnKernelsMatchGenericLoop(t *testing.T) {
	const k = 3
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 7, 8, 9, 33} {
		for _, beta := range []float64{1, -1} {
			gk, stk, idk := colKernels(t, m, 4, k, beta)
			fillRand(rng, stk.Vec[idk[0]])
			fillRand(rng, stk.Vec[idk[1]])
			copy(stk.Small[idk[4]], []float64{rng.NormFloat64(), 0, -rng.Float64()})
			RunSequential(gk, stk)
			for j := 0; j < k; j++ {
				g1, st1, id1 := colKernels(t, m, 4, 1, beta)
				for i := 0; i < m; i++ {
					st1.Vec[id1[0]][i] = stk.Vec[idk[0]][i*k+j]
					st1.Vec[id1[1]][i] = stk.Vec[idk[1]][i*k+j]
				}
				st1.Small[id1[4]][0] = stk.Small[idk[4]][j]
				RunSequential(g1, st1)
				if got, want := st1.Small[id1[3]][0], stk.Small[idk[3]][j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("m=%d beta=%v column %d: width-1 dot %v, generic loop %v", m, beta, j, got, want)
				}
				for i := 0; i < m; i++ {
					if got, want := st1.Vec[id1[2]][i], stk.Vec[idk[2]][i*k+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("m=%d beta=%v column %d: width-1 out[%d] = %v, generic loop %v", m, beta, j, i, got, want)
					}
				}
			}
		}
	}
}

// frozenColDot and frozenColAxpby are TColDotPart's and TColAxpby's bodies
// before the fixed-width passes: a per-row loop over the columns, with every
// column's sum carried in part. They are the oracles of
// TestColKernelsMatchFrozenLoops and the baselines of BenchmarkColKernels.
func frozenColDot(part, a, b []float64, n int) {
	part = part[:n]
	if n == 1 {
		b = b[:len(a)]
		var s float64
		for i, av := range a {
			s += av * b[i]
		}
		part[0] = s
		return
	}
	zero(part)
	rows := len(a) / n
	for i := 0; i < rows; i++ {
		ar := a[i*n : i*n+n]
		br := b[i*n : i*n+n]
		for j, av := range ar {
			part[j] += av * br[j]
		}
	}
}

func frozenColAxpby(out, a, b, coef []float64, be float64, n int) {
	coef = coef[:n]
	if n == 1 {
		s := be * coef[0]
		a = a[:len(out)]
		b = b[:len(out)]
		for i := range out {
			out[i] = a[i] + s*b[i]
		}
		return
	}
	rows := len(out) / n
	for i := 0; i < rows; i++ {
		row := out[i*n : i*n+n]
		ar := a[i*n : i*n+n]
		br := b[i*n : i*n+n]
		for j, cj := range coef {
			row[j] = ar[j] + be*cj*br[j]
		}
	}
}

// colOperands returns a, b and out blocks of rows×n values and n
// coefficients, one of them zero (a retired column), drawn from rng.
func colOperands(rng *rand.Rand, rows, n int) (a, b, out, coef []float64) {
	a, b, out = make([]float64, rows*n), make([]float64, rows*n), make([]float64, rows*n)
	coef = make([]float64, n)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, out)
	fillRand(rng, coef)
	coef[n/2] = 0
	return a, b, out, coef
}

// The fixed-width column bodies give, bit for bit, what the per-row loops
// give: at every width whose passes mix differently (the 1–3 tail alone, 4,
// 4 and a tail, 8, 8 and 4 and a tail, two 8s), at row counts of one, odd and
// many, for Beta = ±1, and with out aliasing a or b as x ← x + α·p and
// p ← r + β·p do.
func TestColKernelsMatchFrozenLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 12, 15, 16} {
		for _, rows := range []int{1, 7, 64} {
			a, b, out, coef := colOperands(rng, rows, n)
			got, want := make([]float64, n), make([]float64, n)
			fillRand(rng, got) // a body must overwrite, not add to, its sums
			colDot(got, a, b, n)
			frozenColDot(want, a, b, n)
			if j := firstDiff(got, want); j >= 0 {
				t.Errorf("n=%d rows=%d: colDot column %d = %v, per-row loop %v", n, rows, j, got[j], want[j])
			}
			for _, be := range []float64{1, -1} {
				for _, alias := range []string{"none", "a", "b"} {
					gotOut, wantOut := append([]float64(nil), out...), append([]float64(nil), out...)
					ga, gb, wa, wb := a, b, a, b
					switch alias {
					case "a":
						copy(gotOut, a)
						copy(wantOut, a)
						ga, wa = gotOut, wantOut
					case "b":
						copy(gotOut, b)
						copy(wantOut, b)
						gb, wb = gotOut, wantOut
					}
					colAxpby(gotOut, ga, gb, coef, be, n)
					frozenColAxpby(wantOut, wa, wb, coef, be, n)
					if i := firstDiff(gotOut, wantOut); i >= 0 {
						t.Errorf("n=%d rows=%d beta=%v out aliasing %s: colAxpby out[%d] = %v, per-row loop %v",
							n, rows, be, alias, i, gotOut[i], wantOut[i])
					}
				}
			}
		}
	}
}

// firstDiff returns the first index where got and want differ in any bit,
// or -1.
func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// BenchmarkColKernels times one CDOT and one CAXPBY task through Exec on a
// partition of the solve-stream pcg matrix's shape (spdlap-65536 in 32 row
// blocks: 2048 rows) at widths 1, 4 and 8, against the frozen per-row loops
// on the same operands, in ns per row and column. Width 1 runs the same
// single-accumulator body on both sides.
func BenchmarkColKernels(b *testing.B) {
	const rows = 65536 / 32
	for _, n := range []int{1, 4, 8} {
		p := program.New(rows, rows)
		opA, opB, opOut := p.Vec("a", n), p.Vec("b", n), p.Vec("out", n)
		opDot, opCoef := p.Small("dot", 1, n), p.Small("coef", 1, n)
		p.ColDot(opDot, opA, opB)
		p.ColAxpby(opOut, opA, opCoef, -1, opB)
		g, err := graph.Build(p, nil, graph.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		st := program.NewStore(p)
		rng := rand.New(rand.NewSource(1))
		fillRand(rng, st.Vec[opA])
		fillRand(rng, st.Vec[opB])
		fillRand(rng, st.Small[opCoef])
		task := func(kind graph.TaskKind) *graph.Task {
			for i := range g.Tasks {
				if g.Tasks[i].Kind == kind {
					return &g.Tasks[i]
				}
			}
			b.Fatalf("no %v task", kind)
			return nil
		}
		dot, axpby := task(graph.TColDotPart), task(graph.TColAxpby)
		a, bv, out, coef := st.Vec[opA], st.Vec[opB], st.Vec[opOut], st.Small[opCoef]
		part := make([]float64, n)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"cdot", func() { Exec(g, dot, st) }},
			{"cdot-frozen", func() { frozenColDot(part, a, bv, n) }},
			{"caxpby", func() { Exec(g, axpby, st) }},
			{"caxpby-frozen", func() { frozenColAxpby(out, a, bv, coef, -1, n) }},
		} {
			b.Run(fmt.Sprintf("%s/w=%d", tc.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tc.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*n), "ns/elem")
			})
		}
	}
}
