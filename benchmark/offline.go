package main

import (
	"context"
	"fmt"
	"time"

	"sparsetask/internal/matgen"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// The offline workloads: a scientist calling solver.* on a matrix with one rt
// backend at the machine's parallelism. An operation is one round — every
// solve of the workload once, in order.

// offlineSolve is one solve of a round and the matrix (by index) it runs on.
type offlineSolve struct {
	matrix int
	solveSpec
}

type offlineSpec struct {
	matrices []matrixSpec
	solves   []offlineSolve
	ref      int // index of the reference solve: its layer metrics carry no suffix
	// The tiling guard: rt.overhead_share of guardBackends must stay at or
	// below guardLimit, or at or above it when guardAtLeast.
	guardBackends []string
	guardLimit    float64
	guardAtLeast  bool
}

// solveStreamSpec: three solves on large matrices tiled coarse (32 tiles per
// dimension) under DeepSparse — tasks of 100 µs and more, so the kernels do
// almost all the work and the scheduler almost none.
func solveStreamSpec(e env) offlineSpec {
	fem, spd, tiles := 28, 1<<16, 32
	if e.quick {
		fem, spd, tiles = 8, 4096, 8
	}
	return offlineSpec{
		matrices: []matrixSpec{
			generated(fmt.Sprintf("fem3d-%d", fem), tiles, false, func() *sparse.COO {
				return matgen.FEM3D(fem, fem, fem, 3, 27, e.seed)
			}),
			generated(fmt.Sprintf("spdlap-%d", spd), tiles, true, func() *sparse.COO {
				return matgen.SPDLaplacian(spd, e.seed)
			}),
		},
		solves: []offlineSolve{
			{0, solveSpec{label: "lanczos", solver: "lanczos", backend: "deepsparse", k: 32, seed: e.seed}},
			{0, solveSpec{label: "lobpcg", solver: "lobpcg", backend: "deepsparse", k: 8, iters: 10, seed: e.seed}},
			{1, solveSpec{label: "pcg", solver: "pcg", backend: "deepsparse", seed: e.seed}},
		},
		guardBackends: []string{"deepsparse"}, guardLimit: 0.2,
	}
}

// solveFinegrainSpec: the same solver, runtime and scheduler code used the
// opposite way — one cache-resident CG tiled fine (128 tiles per dimension,
// about 1.4 k sub-microsecond tasks per iteration) under each backend, so
// per-task overhead, graph size and barriers dominate.
func solveFinegrainSpec(e env) offlineSpec {
	rows, tiles := 16384, 128
	if e.quick {
		rows, tiles = 2048, 32
	}
	spec := offlineSpec{
		matrices: []matrixSpec{
			generated(fmt.Sprintf("spdlap-%d", rows), tiles, false, func() *sparse.COO {
				return matgen.SPDLaplacian(rows, e.seed)
			}),
		},
		ref:           1, // deepsparse, the backend the other workloads run
		guardBackends: []string{"deepsparse", "hpx", "regent"}, guardLimit: 0.2, guardAtLeast: true,
	}
	for _, b := range backends {
		spec.solves = append(spec.solves, offlineSolve{0, solveSpec{label: b, solver: "cg", backend: b, seed: e.seed}})
	}
	return spec
}

func generated(name string, tiles int, factorize bool, gen func() *sparse.COO) matrixSpec {
	return matrixSpec{
		name: name, tiles: tiles, factorize: factorize,
		buildLayer: "matgen", buildName: "generate",
		build: func() (*sparse.COO, error) { return gen(), nil },
	}
}

// offline is a set-up offline workload.
type offline struct {
	e      env
	spec   offlineSpec
	mats   []*builtMatrix
	solves []*builtSolve
	rts    []rt.Runtime
	// first holds each solve's warm-up output: later rounds must reproduce its
	// eigenvalues bit for bit and its iteration count exactly.
	first      []solveOut
	referenced bool
}

// setupOffline generates and converts the matrices, factorizes where the
// workload preconditions, constructs the solvers and runs one warm-up round.
func setupOffline(e env, spec offlineSpec, tr *tracer) (instance, error) {
	o := &offline{e: e, spec: spec}
	op := tr.newOp()
	root := tr.begin(0, op, "client", "setup")
	defer tr.end(root)
	for _, mspec := range spec.matrices {
		bm, err := buildMatrix(tr, root, op, mspec)
		if err != nil {
			return nil, err
		}
		o.mats = append(o.mats, bm)
	}
	for _, s := range spec.solves {
		bs, err := buildSolve(tr, root, op, o.mats[s.matrix], s.solveSpec)
		if err != nil {
			return nil, err
		}
		r, err := newRuntime(s.backend, e.p)
		if err != nil {
			return nil, err
		}
		o.solves = append(o.solves, bs)
		o.rts = append(o.rts, r)
	}
	warm := tr.begin(root, op, "client", "warmup")
	defer tr.end(warm)
	for i, bs := range o.solves {
		out, _, err := bs.solve(context.Background(), nil, 0, 0, o.rts[i])
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", bs.spec.label, err)
		}
		o.first = append(o.first, out)
	}
	return o, nil
}

func (o *offline) measure(tr *tracer, d time.Duration) pass {
	p := pass{comp: map[string][]float64{}}
	ctx := context.Background()
	start := time.Now()
	for len(p.ops) == 0 || time.Since(start) < d {
		op := tr.newOp()
		p.attempted++
		root := tr.begin(0, op, "client", "round")
		bad, round := "", 0.0
		for i, bs := range o.solves {
			out, took, err := bs.solve(ctx, tr, root, op, o.rts[i])
			name := bs.spec.label + "_ms"
			if len(p.ops) == 0 {
				p.compNames = append(p.compNames, name)
			}
			p.comp[name] = append(p.comp[name], ms(took))
			round += ms(took)
			if bad == "" {
				bad = o.check(i, out, err)
			}
		}
		tr.end(root)
		p.ops = append(p.ops, round)
		if bad != "" {
			p.fail("round %d: %s", p.attempted, bad)
		}
	}
	p.wall = time.Since(start)
	return p
}

// check verifies one solve's output. It runs between the solves of a round
// and outside their timings: a round's latency is the sum of its solves.
func (o *offline) check(i int, out solveOut, err error) string {
	bs := o.solves[i]
	if err != nil {
		return fmt.Sprintf("%s: %v", bs.spec.label, err)
	}
	if !out.converged {
		return bs.spec.label + ": not converged"
	}
	first := o.first[i]
	if out.iters != first.iters {
		return fmt.Sprintf("%s: %d iterations, warm-up took %d", bs.spec.label, out.iters, first.iters)
	}
	if first.eig != nil && !sameBits(out.eig, first.eig) {
		return bs.spec.label + ": eigenvalues differ from the warm-up round's"
	}
	for j, x := range out.xs {
		if res := trueResidual(bs.bm.csr, x, bs.rhs[j]); !(res <= residualTol) {
			return fmt.Sprintf("%s: true residual %.3e", bs.spec.label, res)
		}
	}
	return ""
}

// verify compares the warm-up outputs — which every measured round was held
// to — with the sequential reference solvers, once, and checks that solves of
// the same system agree on the iteration count across backends.
func (o *offline) verify(p *pass) {
	if o.referenced {
		return
	}
	o.referenced = true
	for i, bs := range o.solves {
		if o.first[i].eig != nil {
			want, err := referenceEig(bs.bm.csr, bs.spec)
			if err != nil {
				p.fail("%s: reference: %v", bs.spec.label, err)
			} else if m := eigMismatch(bs.spec.solver, o.first[i].eig, want); m != "" {
				p.fail("%s: %s", bs.spec.label, m)
			}
		}
		for j := 0; j < i; j++ {
			if o.solves[j].bm == bs.bm && o.solves[j].spec.solver == bs.spec.solver && o.first[j].iters != o.first[i].iters {
				p.fail("%s took %d iterations, %s took %d", bs.spec.label, o.first[i].iters, o.solves[j].spec.label, o.first[j].iters)
			}
		}
	}
}

func (o *offline) close() error { return nil }

// layers probes every layer under the workload's own matrices and graphs.
// The reference solve's metrics carry no suffix; the other solves' carry
// ".<label>", the other matrices' ".<matrix>".
func (o *offline) layers(tr *tracer, inPass func(int) bool, untraced, traced pass) ([]metric, []guard, []layerTable) {
	out, peak, llc := probeMachine(o.e)
	ref := o.solves[o.spec.ref]
	for _, bm := range o.mats {
		suffix := ""
		if bm != ref.bm {
			suffix = "." + bm.spec.name
		}
		out = append(out, stageMetrics(bm, suffix)...)
		out = append(out, probeMatrix(o.e, bm, peak, llc, suffix)...)
	}

	var guards []guard
	self := solverSelfMS(tr, inPass)
	order := []int{o.spec.ref} // the reference solve first, so a shared graph is probed under its name
	for i := range o.solves {
		if i != o.spec.ref {
			order = append(order, i)
		}
	}
	var probed []*builtSolve
	for _, i := range order {
		bs, suffix := o.solves[i], "."+o.solves[i].spec.label
		if bs == ref {
			suffix = ""
		}
		out = append(out,
			single("solver.iters"+suffix, "count", "lower", float64(o.first[i].iters)),
			sampled("solver.self_ms"+suffix, "ms", self[bs.spec.label]))
		shared := false // solves of one solver on one matrix run the same task graph
		for _, other := range probed {
			shared = shared || (other.bm == bs.bm && other.spec.solver == bs.spec.solver)
		}
		if shared {
			continue
		}
		probed = append(probed, bs)
		pr := probeSolve(o.e, bs)
		out = append(out, single("graph.build_ms"+suffix, "ms", "lower", bs.newMS))
		out = append(out, pr.metrics(o.e.p, suffix)...)
		guards = append(guards, o.spec.overheadGuard(bs.spec.label, pr)...)
	}

	perOp := layerSelfMS(tr.spans, inPass)
	for layer := range perOp {
		perOp[layer] /= float64(len(traced.ops))
	}
	table := newLayerTable("one round, mean over the traced rounds", perOp, "the untraced pass's mean round", sum(untraced.ops)/float64(len(untraced.ops)))
	return out, guards, []layerTable{table}
}

// overheadGuard checks that the workload's tiling still puts it on its side
// of the kernel-bound / scheduler-bound divide. It depends on timing, so it
// is reported, not enforced.
func (s offlineSpec) overheadGuard(label string, pr solveProbe) []guard {
	var out []guard
	for _, b := range s.guardBackends {
		share := pr.overheadShare(b)
		ok := share <= s.guardLimit
		rel := "<="
		if s.guardAtLeast {
			ok, rel = share >= s.guardLimit, ">="
		}
		out = append(out, guard{Name: fmt.Sprintf("rt.overhead_share.%s%s%.1f", b, rel, s.guardLimit), OK: ok,
			Detail: fmt.Sprintf("%s graph: %.2f of a one-worker execution is not kernel time", label, share)})
	}
	return out
}

// stageMetrics reports what a matrix's set-up stages took.
func stageMetrics(bm *builtMatrix, suffix string) []metric {
	out := []metric{
		single(bm.spec.buildLayer+"."+bm.spec.buildName+"_ms"+suffix, "ms", "lower", bm.buildMS),
		single("sparse.convert_ms"+suffix, "ms", "lower", bm.convertMS),
	}
	if bm.trials > 0 {
		out = append(out,
			single("autotune.tune_ms"+suffix, "ms", "lower", bm.tuneMS),
			single("autotune.trials"+suffix, "count", "lower", float64(bm.trials)))
	}
	if bm.factorMS > 0 {
		out = append(out,
			single("precond.factor_ms"+suffix, "ms", "lower", bm.factorMS),
			single("precond.levels_ms"+suffix, "ms", "lower", bm.levelsMS))
	}
	return out
}

// solverSelfMS returns, per solve label, each traced solve's self time: its
// wall time minus the graph preparations and executions inside it.
func solverSelfMS(tr *tracer, inPass func(int) bool) map[string][]float64 {
	self := selfTimes(tr.spans)
	out := map[string][]float64{}
	for _, s := range tr.spans {
		if s.Layer == "solver" && inPass(s.Op) {
			out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
		}
	}
	return out
}
