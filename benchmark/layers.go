package main

import (
	"context"
	"os"
	"strconv"
	"strings"
	"time"

	"sparsetask/internal/blas"
	"sparsetask/internal/kernels"
	"sparsetask/internal/program"
	"sparsetask/internal/roofline"
	"sparsetask/internal/rt"
	"sparsetask/internal/sched"
	"sparsetask/internal/sparse"
	"sparsetask/internal/topo"
)

// The per-layer probes of a traced run. Each times calls into one layer's
// public functions from outside, on the inputs of the workload being traced.

// probeBudget bounds how long one repeated micro-measurement keeps sampling.
func (e env) probeBudget() time.Duration {
	if e.quick {
		return 5 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// repeatMS calls f until budget has passed (at least three and at most two
// hundred times) and returns the per-call times in milliseconds.
func repeatMS(budget time.Duration, f func()) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) < 3 || (time.Now().Before(deadline) && len(out) < 200) {
		start := time.Now()
		f()
		out = append(out, ms(time.Since(start)))
	}
	return out
}

// gbps is bytes moved per call over the median call time.
func gbps(bytes int64, callMS []float64) float64 {
	return roofline.AttainedGBps(bytes, median(callMS)*1e6)
}

// probeMachine measures what the kernel rates are graded against, in this
// run: the triad bandwidth roofline.Calibrate sustains at P workers, and the
// dense GEMM rate at LOBPCG's 4096×8×8 shape.
func probeMachine(e env) (out []metric, peak float64, llc int64) {
	peak = roofline.Calibrate(topo.Flat(), e.p, func() int64 { return time.Now().UnixNano() })
	const m, k, n = 4096, 8, 8
	a, z, c := filled(m*k), filled(k*n), make([]float64, m*n)
	gemm := repeatMS(e.probeBudget(), func() { blas.Gemm(1, a, m, k, z, n, 0, c) })
	out = []metric{
		single("roofline.peak_gbps", "GB/s", "higher", peak),
		single("roofline.triad_mib", "MiB", "higher", float64(roofline.TriadBytes)/(1<<20)),
		single("blas.gemm_gflops", "GFLOP/s", "higher", 2*m*k*n/(median(gemm)*1e6)),
	}
	if llc = llcBytes(); llc > 0 {
		out = append(out, single("machine.llc_mib", "MiB", "higher", float64(llc)/(1<<20)))
	}
	return out, peak, llc
}

// llcBytes reads the last-level cache size the kernel reports for cpu0, or 0
// when it is not exposed. It only labels kernel rows as cache-resident.
func llcBytes() int64 {
	var best int64
	for _, idx := range []string{"index2", "index3", "index4"} {
		buf, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(buf))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

func filled(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i%13)*0.25 - 1
	}
	return s
}

// probeMatrix grades the sparse kernels on one built matrix: general CSB
// SpMV, the storage the workload actually uses (SymCSB for symmetric input)
// for SpMV and the 8-column SpMM, against computed — not measured — bytes,
// and the IC(0) stages when the workload factorizes. suffix distinguishes the
// matrices of one workload ("" for the reference matrix).
func probeMatrix(e env, bm *builtMatrix, peak float64, llc int64, suffix string) []metric {
	budget := e.probeBudget()
	rows, nnz := bm.coo.Rows, bm.coo.NNZ()
	x, y := filled(rows), make([]float64, rows)
	x8, y8 := filled(rows*8), make([]float64, rows*8)

	csb := bm.coo.ToCSB(bm.block)
	spmv := repeatMS(budget, func() { csb.SpMV(y, x) })
	spmvG := gbps(roofline.SpMVBytes(rows, rows, nnz), spmv)
	out := []metric{
		single("sparse.spmv_gbps"+suffix, "GB/s", "higher", spmvG),
		single("sparse.spmv_frac_peak"+suffix, "share", "higher", spmvG/peak),
	}
	footprint := roofline.SpMVBytes(rows, rows, nnz)
	if sym, ok := bm.mat.(*sparse.SymCSB); ok {
		stored := sym.NNZ()
		footprint = roofline.SymSpMVBytes(rows, rows, stored)
		symv := repeatMS(budget, func() { sym.SpMV(y, x) })
		symG := gbps(roofline.SymSpMVBytes(rows, rows, stored), symv)
		spmm := repeatMS(budget, func() { sym.SpMM(y8, x8, 8) })
		spmmG := gbps(roofline.SymSpMMBytes(rows, rows, stored, 8), spmm)
		out = append(out,
			single("sparse.symspmv_gbps"+suffix, "GB/s", "higher", symG),
			single("sparse.symspmv_frac_peak"+suffix, "share", "higher", symG/peak),
			single("sparse.sym_speedup"+suffix, "x", "higher", median(spmv)/median(symv)),
			single("sparse.spmm8_gbps"+suffix, "GB/s", "higher", spmmG),
			single("sparse.spmm8_frac_peak"+suffix, "share", "higher", spmmG/peak),
		)
	} else {
		spmm := repeatMS(budget, func() { csb.SpMM(y8, x8, 8) })
		spmmG := gbps(roofline.SpMMBytes(rows, rows, nnz, 8), spmm)
		out = append(out,
			single("sparse.spmm8_gbps"+suffix, "GB/s", "higher", spmmG),
			single("sparse.spmm8_frac_peak"+suffix, "share", "higher", spmmG/peak),
		)
	}
	out = append(out, single("sparse.footprint_mib"+suffix, "MiB", "lower", float64(footprint)/(1<<20)))
	if llc > 0 {
		// 1 marks a matrix that fits the last-level cache: its rates are
		// cache bandwidth, not memory bandwidth.
		resident := 0.0
		if footprint <= llc {
			resident = 1
		}
		out = append(out, single("sparse.llc_resident"+suffix, "bool", "lower", resident))
	}
	if bm.ic != nil && bm.low != nil {
		z := make([]float64, rows)
		pair := repeatMS(budget, func() {
			bm.ic.L.LowerSolve(y, x)
			bm.ic.U.UpperSolve(z, y)
		})
		out = append(out,
			single("precond.trsv_pair_gbps"+suffix, "GB/s", "higher",
				gbps(roofline.TrsvPairBytes(rows, bm.ic.L.NNZ(), bm.ic.U.NNZ()), pair)),
			single("precond.levels"+suffix, "count", "lower", float64(bm.low.NumLevels+bm.up.NumLevels)),
		)
	}
	return out
}

// probeStore binds a solver's program to its matrix (and factors) in a fresh
// store filled with benign values, the way cmd/perfbench does: the solvers
// keep their own stores private, and kernel time does not depend on values.
func probeStore(bs *builtSolve) *program.Store {
	st := program.NewStore(bs.prog)
	for _, o := range bs.prog.Ops {
		switch o.Kind {
		case program.OpSparse:
			st.SetSparse(o.ID, bs.bm.mat.(*sparse.CSB))
		case program.OpSymSparse:
			st.SetSymSparse(o.ID, bs.bm.mat.(*sparse.SymCSB))
		case program.OpTri:
			if o.Name == "L" {
				st.SetTri(o.ID, bs.bm.ic.L)
			} else {
				st.SetTri(o.ID, bs.bm.ic.U)
			}
		case program.OpVec:
			for j := range st.Vec[o.ID] {
				st.Vec[o.ID][j] = float64(j%7)*0.1 + 0.05
			}
		case program.OpSmall:
			for j := range st.Small[o.ID] {
				st.Small[o.ID][j] = float64(j%5)*0.1 + 0.05
			}
		case program.OpScalar:
			st.Scalars[o.ID] = 1
		}
	}
	return st
}

// solveProbe is what the scheduler-side probes measured for one solver's
// per-iteration task graph.
type solveProbe struct {
	tasks, edges, depth int
	seqMS               float64            // kernels.RunSequential: kernel time, zero scheduling
	overheadNS          map[int]float64    // workers → empty-task overhead per task
	stealShare          float64            // at P workers, empty tasks
	domainLocal         float64            //
	prepareMS           map[string]float64 // backend → rt.PrepareRun
	runMS               map[string]map[int]float64
}

// probeSolve measures one solver's graph the Task Bench way — the graph's own
// shape replayed through sched.NewExecutor with an empty task body — and then
// with real kernels: sequentially, and under every backend at 1 and P
// workers.
func probeSolve(e env, bs *builtSolve) solveProbe {
	p, budget := e.p, e.probeBudget()
	g := bs.g
	gs := g.ComputeStats()
	pr := solveProbe{
		tasks: gs.Tasks, edges: gs.Edges, depth: gs.CriticalPath,
		overheadNS: map[int]float64{}, prepareMS: map[string]float64{}, runMS: map[string]map[int]float64{},
	}
	st := probeStore(bs)
	pr.seqMS = median(repeatMS(budget, func() { kernels.RunSequential(g, st) }))

	indeg := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		indeg[i] = int32(len(g.Tasks[i].Deps))
	}
	succs := func(i int32) []int32 { return g.Tasks[i].Succs }
	ctx := context.Background()
	for _, w := range workerCounts(p) {
		ex := sched.NewExecutor(len(g.Tasks), indeg, succs, g.Roots, func(int, int32) {},
			sched.Options{Workers: w, Discipline: sched.LIFO})
		runs := repeatMS(budget, func() { _ = ex.Run(ctx) })
		pr.overheadNS[w] = median(runs) * 1e6 / float64(len(g.Tasks))
		if w == p {
			s := ex.Stats()
			if n := s.Tasks(); n > 0 {
				pr.stealShare = float64(s.Domain+s.Remote) / float64(n)
			}
			pr.domainLocal = s.DomainLocalShare()
		}
		ex.Close()
	}
	for _, b := range backends {
		pr.runMS[b] = map[int]float64{}
		for _, w := range workerCounts(p) {
			r, _ := newRuntime(b, w)
			start := time.Now()
			prep := rt.PrepareRun(r, g, st)
			if w == p {
				pr.prepareMS[b] = ms(time.Since(start))
			}
			pr.runMS[b][w] = median(repeatMS(budget, func() { _ = prep.Run(ctx) }))
			prep.Close()
		}
	}
	return pr
}

// workerCounts is the plain single-threaded baseline and the machine's P.
func workerCounts(p int) []int {
	if p == 1 {
		return []int{1}
	}
	return []int{1, p}
}

// metrics renders a probe under the given name suffix ("" for the workload's
// reference solve, ".<label>" for the others).
func (pr solveProbe) metrics(p int, suffix string) []metric {
	out := []metric{
		single("graph.tasks"+suffix, "count", "lower", float64(pr.tasks)),
		single("graph.edges"+suffix, "count", "lower", float64(pr.edges)),
		single("graph.depth"+suffix, "count", "lower", float64(pr.depth)),
		single("kernels.seq_run_ms"+suffix, "ms", "lower", pr.seqMS),
		single("sched.task_overhead_ns"+suffix, "ns", "lower", pr.overheadNS[p]),
		single("sched.task_overhead_w1_ns"+suffix, "ns", "lower", pr.overheadNS[1]),
		single("sched.steal_share"+suffix, "share", "lower", pr.stealShare),
		single("sched.domain_local_share"+suffix, "share", "higher", pr.domainLocal),
	}
	for _, b := range backends {
		s := suffix + "." + b
		out = append(out,
			single("rt.prepare_ms"+s, "ms", "lower", pr.prepareMS[b]),
			single("rt.run_ms"+s, "ms", "lower", pr.runMS[b][p]),
			single("rt.overhead_share"+s, "share", "lower", pr.overheadShare(b)),
			single("rt.par_speedup"+s, "x", "higher", pr.runMS[b][1]/pr.runMS[b][p]),
		)
	}
	return out
}

// overheadShare is the share of a single-worker graph execution that is not
// kernel time: 1 − kernels.seq_run_ms / rt.run_ms at workers 1.
func (pr solveProbe) overheadShare(backend string) float64 {
	return 1 - pr.seqMS/pr.runMS[backend][1]
}
