// Top-level benchmark harness: one testing.B benchmark per paper table and
// figure (driving the same experiment code as cmd/sparsebench, at the tiny
// preset so `go test -bench=.` completes quickly), plus exec-mode kernel and
// runtime microbenchmarks that run real goroutine-parallel code on the host.
//
// To regenerate a figure at full scale, use cmd/sparsebench with
// -preset small (or medium) instead; the benchmarks here are smoke-scale.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/bench"
	"sparsetask/internal/blas"
	"sparsetask/internal/graph"
	"sparsetask/internal/kernels"
	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/roofline"
	"sparsetask/internal/route"
	"sparsetask/internal/rt"
	"sparsetask/internal/sched"
	"sparsetask/internal/server"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// benchCfg is the standard configuration for experiment benchmarks.
func benchCfg(matrices ...string) *bench.Config {
	return &bench.Config{
		Preset:     matgen.Tiny,
		Seed:       1,
		Iterations: 1,
		Matrices:   matrices,
	}
}

func runExperiment(b *testing.B, id string, matrices ...string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchCfg(matrices...)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one benchmark per table/figure ----

func BenchmarkTable1Suite(b *testing.B) {
	runExperiment(b, "table1", "inline1", "nlpkkt160", "twitter7")
}

func BenchmarkFig3TaskGraph(b *testing.B) { runExperiment(b, "fig3") }

func BenchmarkFig5FirstTouch(b *testing.B) {
	runExperiment(b, "fig5", "inline1", "nlpkkt160")
}

func BenchmarkFig6SkipEmpty(b *testing.B) {
	runExperiment(b, "fig6", "nlpkkt240", "twitter7")
}

func BenchmarkFig7ReduceVsDep(b *testing.B) {
	runExperiment(b, "fig7", "inline1", "nlpkkt160")
}

func BenchmarkFig8LanczosCache(b *testing.B) {
	runExperiment(b, "fig8", "nlpkkt160", "twitter7")
}

func BenchmarkFig9LanczosSpeedup(b *testing.B) {
	runExperiment(b, "fig9", "nlpkkt160", "twitter7")
}

func BenchmarkFig10LanczosFlowGraph(b *testing.B) {
	runExperiment(b, "fig10", "nlpkkt240")
}

func BenchmarkFig11LOBPCGCache(b *testing.B) {
	runExperiment(b, "fig11", "inline1", "nlpkkt160")
}

func BenchmarkFig12LOBPCGSpeedup(b *testing.B) {
	runExperiment(b, "fig12", "nlpkkt160")
}

func BenchmarkFig13LOBPCGFlowGraph(b *testing.B) {
	runExperiment(b, "fig13", "nlpkkt240")
}

func BenchmarkFig14BlockTune(b *testing.B) {
	runExperiment(b, "fig14", "nlpkkt160")
}

func BenchmarkHeuristicBlockSweep(b *testing.B) {
	runExperiment(b, "heuristic", "nlpkkt160")
}

func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", "nlpkkt160", "twitter7")
}

// ---- exec-mode microbenchmarks (real goroutine execution on the host) ----

func benchMatrix(b *testing.B) *sparse.COO {
	b.Helper()
	return matgen.KKT(14, 1) // 5488 rows, ~27 nnz/row
}

func BenchmarkKernelSpMVCSR(b *testing.B) {
	coo := benchMatrix(b)
	csr := coo.ToCSR()
	x := make([]float64, coo.Cols)
	y := make([]float64, coo.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(csr.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.SpMV(y, x)
	}
}

func BenchmarkKernelSpMVCSB(b *testing.B) {
	coo := benchMatrix(b)
	csb := coo.ToCSB(128)
	x := make([]float64, coo.Cols)
	y := make([]float64, coo.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(csb.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csb.SpMV(y, x)
	}
}

func BenchmarkKernelSpMM8(b *testing.B) {
	coo := benchMatrix(b)
	csb := coo.ToCSB(128)
	const n = 8
	x := make([]float64, coo.Cols*n)
	y := make([]float64, coo.Rows*n)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(csb.NNZ()) * 8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csb.SpMM(y, x, n)
	}
}

// benchTDG builds a Listing-1 LOBPCG-iteration-like graph for runtime
// benchmarking.
func benchTDG(b *testing.B) (*graph.TDG, *program.Store) {
	b.Helper()
	coo := benchMatrix(b)
	csb := coo.ToCSB((coo.Rows + 63) / 64)
	l, err := solver.NewLOBPCG(csb, 8)
	if err != nil {
		b.Fatal(err)
	}
	st := program.NewStore(l.Program())
	st.SetSparse(0, csb)
	for i := range st.Vec {
		for j := range st.Vec[i] {
			st.Vec[i][j] = float64(j%7) * 0.1
		}
	}
	return l.Graph(), st
}

func benchRuntime(b *testing.B, r rt.Runtime) {
	g, st := benchTDG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Prepare(g, st)
		p.Run(context.Background())
		p.Close()
	}
}

func BenchmarkRuntimeSequential(b *testing.B) {
	g, st := benchTDG(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.RunSequential(g, st)
	}
}

func BenchmarkRuntimeBSP(b *testing.B)        { benchRuntime(b, rt.NewBSP(rt.Options{})) }
func BenchmarkRuntimeDeepSparse(b *testing.B) { benchRuntime(b, rt.NewDeepSparse(rt.Options{})) }
func BenchmarkRuntimeHPX(b *testing.B)        { benchRuntime(b, rt.NewHPX(rt.Options{})) }
func BenchmarkRuntimeRegent(b *testing.B) {
	benchRuntime(b, rt.NewRegent(rt.Options{DynamicTracing: true}))
}

// BenchmarkGraphBuild measures TDG generation cost (the DeepSparse "PCU"
// overhead the paper argues is negligible relative to solve time).
func BenchmarkGraphBuild(b *testing.B) {
	coo := benchMatrix(b)
	csb := coo.ToCSB((coo.Rows + 63) / 64)
	for i := 0; i < b.N; i++ {
		l, err := solver.NewLOBPCG(csb, 8)
		if err != nil {
			b.Fatal(err)
		}
		if l.Graph() == nil {
			b.Fatal("no graph")
		}
	}
}

// ---- fine grain: what the scheduler costs when tasks are sub-microsecond ----

// fineGrainMatrix is the solve-finegrain workload's matrix: a cache-resident
// 16 384-row SPD Laplacian tiled 128 per dimension, so a CG iteration is a few
// hundred tasks of well under a microsecond each.
func fineGrainMatrix(b *testing.B) *sparse.SymCSB {
	b.Helper()
	const rows, tiles = 16384, 128
	a, err := matgen.SPDLaplacian(rows, 1).ToSymCSB(rows / tiles)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// fineGrainCG is that workload's solver and right-hand side.
func fineGrainCG(b *testing.B) (*solver.CG, []float64) {
	b.Helper()
	a := fineGrainMatrix(b)
	c, err := solver.NewCG(a)
	if err != nil {
		b.Fatal(err)
	}
	rows, _ := a.Dims()
	return c, solver.RandomRHS(rows, 1)
}

// fineGrainWorkers is one worker and the machine's parallelism.
func fineGrainWorkers() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

// BenchmarkFineGrainCG runs that solve to convergence on every backend at one
// worker and at GOMAXPROCS, and reports the wall time of a solve, the tasks of
// one iteration's graph, and for regent the tasks that paid dependence
// analysis in the last iteration.
func BenchmarkFineGrainCG(b *testing.B) {
	c, rhs := fineGrainCG(b)
	for _, w := range fineGrainWorkers() {
		opt := rt.Options{Workers: w}
		for _, name := range rt.Backends() {
			r, _ := rt.ByName(name, opt)
			b.Run(fmt.Sprintf("%s/w=%d", name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, _, err := c.Solve(context.Background(), r, rhs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/solve")
				b.ReportMetric(float64(len(c.Graph().Tasks)), "tasks")
				if rg, ok := r.(*rt.Regent); ok {
					b.ReportMetric(float64(rg.LastAnalyzed), "analyzed")
				}
			})
		}
	}
}

// BenchmarkKrylovWidths runs the one CG driver on the fine-grain matrix at
// widths 1, 4 and 8 under deepsparse at GOMAXPROCS: a solve's wall time, and
// that time per column — width-1 parity with what single-RHS CG used to cost
// and the amortisation a batch buys, side by side. Under regent at k = 1 it
// reports the tasks that paid dependence analysis in the last iteration.
func BenchmarkKrylovWidths(b *testing.B) {
	a := fineGrainMatrix(b)
	rows, _ := a.Dims()
	solve := func(b *testing.B, r rt.Runtime, k int) {
		c, err := solver.NewBatchCG(a, k)
		if err != nil {
			b.Fatal(err)
		}
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = solver.RandomRHS(rows, int64(j+1))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Solve(context.Background(), r, bs); err != nil {
				b.Fatal(err)
			}
		}
		ms := float64(b.Elapsed().Milliseconds()) / float64(b.N)
		b.ReportMetric(ms, "ms/solve")
		b.ReportMetric(ms/float64(k), "ms/column")
	}
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("deepsparse/k=%d", k), func(b *testing.B) {
			solve(b, rt.NewDeepSparse(rt.Options{}), k)
		})
	}
	b.Run("regent/k=1", func(b *testing.B) {
		rg := rt.NewRegent(rt.Options{})
		solve(b, rg, 1)
		b.ReportMetric(float64(rg.LastAnalyzed), "analyzed")
	})
}

// BenchmarkExecutorTaskOverhead replays the shape of that iteration's graph
// through sched.Executor with an empty task body (the Task Bench measurement)
// and reports what is left: scheduler nanoseconds per task.
func BenchmarkExecutorTaskOverhead(b *testing.B) {
	c, _ := fineGrainCG(b)
	g := c.Graph()
	indeg := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		indeg[i] = int32(len(g.Tasks[i].Deps))
	}
	succs := func(i int32) []int32 { return g.Tasks[i].Succs }
	for _, w := range fineGrainWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			ex := sched.NewExecutor(len(g.Tasks), indeg, succs, g.Roots, func(int, int32) {},
				sched.Options{Workers: w, Discipline: sched.LIFO})
			defer ex.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Tasks)), "ns/task")
		})
	}
}

// ---- kernels the coarse-tiled solves live in ----

// BenchmarkTrsvPair times one IC(0) application — the forward and the
// backward substitution — on the solve-stream pcg matrix (a 256×256 grid in
// natural order: three entries per factor row, one dependency chain) and on a
// 27-point FEM factor (no chain, ~13 entries per row), 32 tiles/dim: the CSR
// oracles against the task kernel run over all blocks in order at widths 1, 4
// and 8, in ns per row and column. build is what the kernel's storage costs
// once per (factor, block size) — the level analyses of both directions —
// beside the factorization it rides on.
func BenchmarkTrsvPair(b *testing.B) {
	for _, mc := range []struct {
		name string
		coo  *sparse.COO
	}{
		{"spdlap-65536", matgen.SPDLaplacian(65536, 1)},
		{"fem3d-8000", matgen.FEM3D(20, 20, 20, 1, 27, 1)},
	} {
		a := mc.coo.ToCSR()
		ic, err := precond.Factorize(a)
		if err != nil || ic.Kind != precond.KindIC0 {
			b.Fatalf("%s: factorize: %v (%v)", mc.name, err, ic.Kind)
		}
		rows := a.Rows
		block := (rows + 31) / 32
		low, up := precond.AnalyzeLower(ic.L, block), precond.AnalyzeUpper(ic.U, block)
		if low.Err != nil || up.Err != nil {
			b.Fatal(low.Err, up.Err)
		}
		b.Run(mc.name+"/factorize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := precond.Factorize(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms")
		})
		b.Run(mc.name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				precond.AnalyzeLower(ic.L, block)
				precond.AnalyzeUpper(ic.U, block)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms")
		})
		rhs := solver.RandomRHS(rows, 1)
		b.Run(mc.name+"/oracle", func(b *testing.B) {
			y, z := make([]float64, rows), make([]float64, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ic.L.LowerSolve(y, rhs)
				ic.U.UpperSolve(z, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
		for _, w := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/kernel/w=%d", mc.name, w), func(b *testing.B) {
				r := make([]float64, rows*w)
				for i := range r {
					r[i] = rhs[i/w]
				}
				y, z := make([]float64, rows*w), make([]float64, rows*w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for bi := 0; bi < low.NB; bi++ {
						if w == 1 {
							low.Tri.SolveBlock(y, r, bi)
						} else {
							low.Tri.SolveBlockN(y, r, w, bi)
						}
					}
					for bi := up.NB - 1; bi >= 0; bi-- {
						if w == 1 {
							up.Tri.SolveBlock(z, y, bi)
						} else {
							up.Tri.SolveBlockN(z, y, w, bi)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows)/float64(w), "ns/row")
			})
		}
	}
}

// BenchmarkGemmShapes times the dense kernels at LOBPCG's shapes on the
// solve-stream matrix (row bands of 2058): XTY = (2058×m)ᵀ·(2058×8) and
// XY = (2058×m)·(m×8) for m = 8 and 24.
func BenchmarkGemmShapes(b *testing.B) {
	const rows, n = 2058, 8
	fill := func(len int, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, len)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, m := range []int{8, 24} {
		tall, thin, small := fill(rows*m, 1), fill(rows*n, 2), fill(m*n, 3)
		flops := 2 * float64(rows*m*n)
		b.Run(fmt.Sprintf("XTY/%dx%dx%d", rows, m, n), func(b *testing.B) {
			c := make([]float64, m*n)
			for i := 0; i < b.N; i++ {
				blas.GemmTN(1, tall, rows, m, thin, n, 0, c)
			}
			b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
		b.Run(fmt.Sprintf("XY/%dx%dx%d", rows, m, n), func(b *testing.B) {
			c := make([]float64, rows*n)
			for i := 0; i < b.N; i++ {
				blas.Gemm(1, tall, rows, m, small, n, 0, c)
			}
			b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkSpMMWidths times one whole-matrix multiply Y = A·X per operation,
// general CSB and SymCSB, at the widths LOBPCG and coalesced cg/pcg batches
// run: the solve-stream FEM matrix and the serve-repeat linear matrices at 32
// tiles/dim, the solve-stream Laplacian (runs of one to three entries), and a
// KKT matrix at 8 tiles/dim, whose symmetric tiles colour into nearly a wave
// per tile row (7 for 8). Width 1 times the SpMV bodies, which is what every width-1
// task runs. It reports ns per stored entry and GB/s by the roofline byte
// models.
func BenchmarkSpMMWidths(b *testing.B) {
	suite := func(name string) *sparse.COO {
		s, err := matgen.SpecByName(name)
		if err != nil {
			b.Fatal(err)
		}
		return s.Build(matgen.Small, 1)
	}
	for _, mc := range []struct {
		name  string
		coo   func() *sparse.COO
		tiles int
	}{
		{"fem3d-28", func() *sparse.COO { return matgen.FEM3D(28, 28, 28, 3, 27, 1) }, 32},
		{"inline1-small", func() *sparse.COO { return suite("inline1") }, 32},
		{"Bump_2911-small", func() *sparse.COO { return suite("Bump_2911") }, 32},
		{"spdlap-65536", func() *sparse.COO { return matgen.SPDLaplacian(65536, 1) }, 32},
		{"kkt-8", func() *sparse.COO { return matgen.KKT(8, 1) }, 8},
	} {
		coo := mc.coo()
		block := (coo.Rows + mc.tiles - 1) / mc.tiles
		csb := coo.ToCSB(block)
		sym, err := coo.ToSymCSB(block)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			x := make([]float64, coo.Rows*n)
			for i := range x {
				x[i] = float64(i%7) * 0.1
			}
			y := make([]float64, len(x))
			report := func(b *testing.B, stored int, bytes int64) {
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(stored), "ns/entry")
				b.ReportMetric(roofline.AttainedGBps(bytes, ns), "GB/s")
			}
			b.Run(fmt.Sprintf("%s/csb/n=%d", mc.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if n == 1 {
						csb.SpMV(y, x)
					} else {
						csb.SpMM(y, x, n)
					}
				}
				report(b, csb.NNZ(), roofline.SpMMBytes(coo.Rows, coo.Cols, csb.NNZ(), n))
			})
			b.Run(fmt.Sprintf("%s/symcsb/n=%d", mc.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if n == 1 {
						sym.SpMV(y, x)
					} else {
						sym.SpMM(y, x, n)
					}
				}
				report(b, sym.NNZ(), roofline.SymSpMMBytes(coo.Rows, coo.Cols, sym.NNZ(), n))
			})
		}
	}
}

// ---- first-sight cost: what a cold serving job pays before its solve ----

// coldMatrix is a matrix of the size first-sight serving traffic carries
// (the top of the serve-cold range: ~25 k stored entries).
func coldMatrix() *sparse.COO { return matgen.SPDLaplacian(5000, 1) }

// BenchmarkTuneCold measures one §5.4 sweep as solverd's resolvePlan runs it,
// and reports how many of the six candidates it evaluated and pruned.
func BenchmarkTuneCold(b *testing.B) {
	coo := coldMatrix()
	coo.Compact()
	for _, sv := range []struct {
		name string
		sv   autotune.Solver
	}{{"lanczos", autotune.Lanczos}, {"lobpcg", autotune.LOBPCG}} {
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/w=%d", sv.name, w), func(b *testing.B) {
				var res autotune.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = autotune.Tune(coo.Rows, autotune.GraphEvaluator(coo, sv.sv, w, 1.0, 500.0))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(res.Trials)), "trials")
				b.ReportMetric(float64(len(res.Pruned)), "pruned")
			})
		}
	}
}

// BenchmarkCOOCompact measures sort + duplicate merge on the two input orders
// Compact meets: a generator's (row by row, each entry followed by its mirror
// image in some other row) and an edge list's (random, with repeated edges).
func BenchmarkCOOCompact(b *testing.B) {
	for _, m := range []struct {
		name string
		src  *sparse.COO
	}{
		{"fem3d-65k", mirrored(matgen.FEM3D(28, 28, 28, 3, 27, 1))},
		{"rmat-16k", shuffled(matgen.RMAT(1<<14, 16, 0.57, 1))},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(m.src.NNZ()) * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coo := m.src.Clone()
				b.StartTimer()
				coo.Compact()
			}
		})
	}
}

// mirrored re-emits a symmetric matrix the way the generators do before they
// compact: the lower triangle in row order, each off-diagonal entry followed
// by its mirror image.
func mirrored(a *sparse.COO) *sparse.COO {
	out := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for k := range a.V {
		if i, j := a.I[k], a.J[k]; j <= i {
			out.Append(i, j, a.V[k])
			if i != j {
				out.Append(j, i, a.V[k])
			}
		}
	}
	return out
}

// shuffled returns the matrix with every entry split in two and the halves
// dealt out in a seeded random order.
func shuffled(a *sparse.COO) *sparse.COO {
	out := sparse.NewCOO(a.Rows, a.Cols, 2*a.NNZ())
	for k := range a.V {
		out.Append(a.I[k], a.J[k], a.V[k]/2)
		out.Append(a.I[k], a.J[k], a.V[k]/2)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(out.NNZ(), func(x, y int) {
		out.I[x], out.I[y] = out.I[y], out.I[x]
		out.J[x], out.J[y] = out.J[y], out.J[x]
		out.V[x], out.V[y] = out.V[y], out.V[x]
	})
	return out
}

// BenchmarkReadMatrixMarket measures the parse of an inline job's document
// (25 k entries, ~730 KB), which a cold job pays once, at shard admission.
func BenchmarkReadMatrixMarket(b *testing.B) {
	var doc bytes.Buffer
	if err := sparse.WriteMatrixMarket(&doc, coldMatrix()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.ReadMatrixMarket(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlineSubmit times POST /jobs of one inline document — a 15 k-entry
// SPD Laplacian, inside the serve-cold size range — through a router to one
// real shard, up to the 202: the router's decode, header read and forward,
// and the shard's decode and admission, which finds the document's operator
// cached. That is the path route.hop_ms prices. Each job is a one-step
// Lanczos, so the shard's worker keeps up; a 429 is retried inside the
// operation. The shard keeps every job's document in its job table, so the
// cluster is rebuilt, and its cache warmed, every 64 jobs outside the timer.
func BenchmarkInlineSubmit(b *testing.B) {
	var doc strings.Builder
	if err := sparse.WriteMatrixMarket(&doc, matgen.SPDLaplacian(3000, 1)); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(server.JobSpec{Solver: "lanczos", Backend: "bsp", K: 1, Matrix: server.MatrixSpec{MM: doc.String()}})
	if err != nil {
		b.Fatal(err)
	}
	post := func(url string) int {
		resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var stop func()
	defer func() { stop() }()
	var front string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			if stop != nil {
				stop()
			}
			front, stop = inlineSubmitCluster(b)
			if status := post(front); status != http.StatusAccepted {
				b.Fatalf("warm-up POST: status %d", status)
			}
			b.StartTimer()
		}
		for status := post(front); status != http.StatusAccepted; status = post(front) {
			if status != http.StatusTooManyRequests {
				b.Fatalf("POST /jobs: status %d", status)
			}
		}
	}
	b.StopTimer()
}

// inlineSubmitCluster starts a router over one solverd shard and returns the
// router's URL and a function that stops both.
func inlineSubmitCluster(b *testing.B) (string, func()) {
	srv := server.New(server.Config{Workers: 1, RTWorkers: 1})
	shard := httptest.NewServer(srv.Handler())
	r, err := route.New(route.Config{Shards: []route.Shard{{Name: "s0", URL: shard.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	r.ProbeNow(context.Background()) // the first POST must find the shard healthy
	front := httptest.NewServer(r.Handler())
	return front.URL, func() {
		front.Close()
		r.Close()
		shard.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Error(err)
		}
	}
}

// BenchmarkSymEig times LOBPCG's Rayleigh–Ritz eigensolve as the solver runs
// it, SymEigInto into preallocated buffers, on SPD Gram matrices XᵀX of a
// random 4n×n X; n = 24 is the subspace of a block of 8. internal/blas's
// BenchmarkJacobiOracle times the Jacobi method it replaced on the same
// inputs.
func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		rng := rand.New(rand.NewSource(1))
		x := make([]float64, 4*n*n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := make([]float64, n*n)
		blas.GemmTN(1, x, 4*n, n, x, n, 0, a)
		work, vals, vecs := make([]float64, n*n), make([]float64, n), make([]float64, n*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := blas.SymEigInto(a, n, work, vals, vecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchmarkHarnessSmoke keeps `go test ./...` exercising this file even
// without -bench, so a broken experiment is caught by the test suite.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	for _, id := range []string{"table1", "fig3"} {
		e, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(benchCfg("inline1")); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// Exec-mode graph sanity.
	coo := matgen.KKT(6, 1)
	csb := coo.ToCSB(32)
	l, err := solver.NewLanczos(csb, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Run(context.Background(), rt.NewDeepSparse(rt.Options{Workers: 2}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eigenvalues) == 0 {
		t.Fatal("no eigenvalues")
	}
	fmt.Fprintf(testingDiscard{}, "%v", res.Eigenvalues)
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkAblation(b *testing.B) {
	runExperiment(b, "ablation", "nlpkkt160", "twitter7")
}
