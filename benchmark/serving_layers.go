package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/sparse"
)

// The serving workloads' traced run: client, route and server metrics from
// the traced pass's job records and the /metrics deltas, the router hop from
// a paired front/direct submit sequence, and one reference job per solver
// kind replayed through the public functions Engine.run calls, which splits
// server.run_ms by layer.

// hopSamples is how many jobs the router-hop probe submits each way;
// replayReps how many times a reference job is replayed.
const (
	hopSamples = 12
	replayReps = 3
)

func (s *serving) layers(tr *tracer, inPass func(int) bool, untraced, traced pass) ([]metric, []guard, []layerTable) {
	out, peak, llc := probeMachine(s.e)
	jobs := traced.jobs

	var submit, queue, run, polls, batch []float64
	batched, batchable := 0, 0
	runExec := map[string]float64{} // one entry per execution: a batch runs once
	for _, r := range jobs {
		submit, queue, run = append(submit, r.submitMS), append(queue, r.queueMS()), append(run, r.runMS())
		polls = append(polls, float64(r.polls))
		exec := r.view.ID
		if r.view.Result != nil && r.view.Result.BatchID != "" {
			exec = strings.SplitN(r.view.ID, ":", 2)[0] + ":" + r.view.Result.BatchID
		}
		runExec[exec] = r.runMS()
		if k := r.req.spec.Solver; k == "cg" || k == "pcg" {
			batchable++
			batch = append(batch, float64(r.batchSize()))
			if r.batchSize() >= 2 {
				batched++
			}
		}
	}
	var runTotal float64
	for _, v := range runExec {
		runTotal += v
	}
	d := traced.cluster
	out = append(out,
		sampled("route.submit_ms", "ms", submit),
		sampled("server.queue_ms", "ms", queue),
		sampled("server.run_ms", "ms", run),
		single("server.plan_ms", "ms", "lower", d.planSumMS/float64(max(d.planN, 1))),
		single("server.solve_ms", "ms", "lower", d.solveSumMS/float64(max(d.solveN, 1))),
		single("server.overhead_share", "share", "lower", 1-d.solveSumMS/runTotal),
		single("server.plan_hit_share", "share", "higher", share(d.planHits, d.planMisses)),
		single("server.factor_hit_share", "share", "higher", share(d.factorHits, d.factorMisses)),
		single("server.autotune_sweeps", "total", "lower", float64(d.sweeps)),
		single("server.factorizations", "total", "lower", float64(d.factorizations)),
		single("server.cache_evictions", "total", "lower", float64(d.planEvictions+d.factorEvicted)),
		single("server.coalesced_share", "share", "higher", float64(batched)/float64(max(batchable, 1))),
		single("server.batch_mean", "jobs", "higher", sum(batch)/float64(max(len(batch), 1))),
		single("server.rejected", "total", "lower", float64(d.rejected)),
		single("route.fp_hit_share", "share", "higher", share(d.fpHits, d.fpMisses)),
		single("route.spilled", "total", "lower", float64(d.spilled)),
		single("client.polls_per_job", "polls", "lower", sum(polls)/float64(max(len(polls), 1))),
		single("client.jobs_traced", "total", "higher", float64(len(jobs))),
	)
	if hop, err := s.hopMS(); err == nil {
		out = append(out, hop...)
	} else {
		fmt.Printf("   route.hop_ms not measured: %v\n", err)
	}

	// One replayed reference job per solver kind. The first kind the run saw —
	// cg, the bulk of both streams, in any pass of a few seconds — is the
	// reference: its metrics carry no suffix and its table comes first.
	var tables []layerTable
	for _, kind := range []string{"cg", "pcg", "lanczos", "lobpcg"} {
		suffix := "." + kind
		if len(tables) == 0 {
			suffix = ""
		}
		layer, table, err := s.replay(tr, kind, suffix, untraced.jobs, jobs, peak, llc)
		if err != nil {
			fmt.Printf("   %s reference job not replayed: %v\n", kind, err)
			continue
		}
		out = append(out, layer...)
		tables = append(tables, table)
	}
	if len(tables) == 0 {
		tables = []layerTable{newLayerTable("no reference job could be replayed", nil, "nothing", 1)}
	}
	return out, nil, tables
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// replayed is one replay of a reference job.
type replayed struct {
	op   int
	self map[string]float64 // per-layer self time, ms
	ms   float64            // their sum: the replayed run
	bm   *builtMatrix
	bs   *builtSolve
	out  solveOut
}

// replayOnce runs the stages of one job under a server/replay root span.
func replayOnce(tr *tracer, mspec matrixSpec, sspec solveSpec) (replayed, error) {
	rep := replayed{op: tr.newOp()}
	root := tr.begin(0, rep.op, "server", "replay:"+sspec.solver)
	err := func() (err error) {
		if rep.bm, err = buildMatrix(tr, root, rep.op, mspec); err != nil {
			return err
		}
		if rep.bs, err = buildSolve(tr, root, rep.op, rep.bm, sspec); err != nil {
			return err
		}
		r, err := newRuntime(sspec.backend, shardConfig.RTWorkers)
		if err != nil {
			return err
		}
		rep.out, _, err = rep.bs.solve(context.Background(), tr, root, rep.op, r)
		return err
	}()
	tr.end(root)
	if err != nil {
		return rep, err
	}
	rep.self = layerSelfMS(tr.spans, func(o int) bool { return o == rep.op })
	delete(rep.self, cachedLayer) // what the job got from a cache is not its cost
	for _, v := range rep.self {
		rep.ms += v
	}
	return rep, nil
}

// hopMS measures the router hop: the same job specs are POSTed to the front
// and straight to the shard the front chose, one at a time on an idle
// cluster, and the hop is the difference of the median POST latencies.
func (s *serving) hopMS() ([]metric, error) {
	var front, direct []float64
	for len(front) < hopSamples {
		reqs := s.stream.next(0)
		if reqs == nil {
			break
		}
		req := reqs[0]
		rec := s.runJobs(nil, 0, []*jobReq{req})[0]
		if rec.err != "" {
			return nil, fmt.Errorf("front submit: %s", rec.err)
		}
		shard, _, _ := strings.Cut(rec.view.ID, ":")
		base := ""
		for i := range s.c.shards {
			if fmt.Sprintf("s%d", i) == shard {
				base = s.c.shardTS[i].URL
			}
		}
		start := time.Now()
		v, err := s.c.post(base, req.body)
		took := ms(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("direct submit: %w", err)
		}
		for !terminal(v.State) {
			time.Sleep(pollInterval)
			if err := s.c.getJSON(base+"/jobs/"+v.ID, &v); err != nil {
				return nil, err
			}
		}
		front, direct = append(front, rec.submitMS), append(direct, took)
	}
	if len(front) == 0 {
		return nil, fmt.Errorf("the job stream ran dry")
	}
	return []metric{
		single("route.hop_ms", "ms", "lower", median(front)-median(direct)),
		sampled("route.front_submit_ms", "ms", front),
		sampled("route.direct_submit_ms", "ms", direct),
	}, nil
}

// replay takes one job of a kind — the first the seed dealt, so that two runs
// of a seed replay the same job whatever their timing — back through the
// stages Engine.run took it through, each inside a span: build or parse the
// matrix, CSR, stats, the plan (a sweep unless the job hit the plan cache),
// storage, IC(0) and levels (unless the job hit the factor cache), solver
// construction, and the solve — batched the way the coalescer ran it. Its
// layer table is that job's own latency: the three intervals the client saw
// around the engine's run, exactly, plus the run as the replay splits it.
// (Serving spans are built from timestamps after a job ends, so a traced
// pass's latencies are measured exactly as an untraced pass's are.)
func (s *serving) replay(tr *tracer, kind, suffix string, untraced, traced []jobRecord, peak float64, llc int64) ([]metric, layerTable, error) {
	var ref *jobRecord
	for _, jobs := range [][]jobRecord{untraced, traced} {
		for i := range jobs {
			if r := &jobs[i]; r.req.spec.Solver == kind && r.view.Result != nil && (ref == nil || r.req.seq < ref.req.seq) {
				ref = r
			}
		}
	}
	if ref == nil {
		return nil, layerTable{}, fmt.Errorf("no finished %s job", kind)
	}
	var total, submit, queue, run []float64
	for _, r := range traced {
		if r.req.spec.Solver == kind && r.view.Result != nil {
			total, submit, queue, run = append(total, r.totalMS), append(submit, r.submitMS), append(queue, r.queueMS()), append(run, r.runMS())
		}
	}
	if len(total) == 0 {
		return nil, layerTable{}, fmt.Errorf("no finished %s job in the traced pass", kind)
	}

	res, spec := ref.view.Result, ref.req.spec
	mspec := matrixSpec{name: ref.req.matrix, buildLayer: "matgen", buildName: "generate", build: ref.req.coo,
		tune: autotune.Lanczos, tuneWorkers: shardConfig.RTWorkers,
		factorize: kind == "pcg", factorCached: res.FactorSource == "cache"}
	if ref.req.inline {
		doc, err := ref.req.document()
		if err != nil {
			return nil, layerTable{}, err
		}
		mspec.buildLayer, mspec.buildName = "sparse", "mm_parse"
		mspec.build = func() (*sparse.COO, error) { return sparse.ReadMatrixMarket(strings.NewReader(doc)) }
	}
	if kind == "lobpcg" {
		mspec.tune = autotune.LOBPCG
	}
	if res.PlanSource == "cache" {
		mspec.block = res.Block
	}

	// A single replay of a job of tens of milliseconds is as noisy as one job:
	// replay it replayReps times and keep the one with the median total.
	sspec := solveSpec{label: kind, solver: kind, backend: jobBackend,
		k: spec.K, iters: spec.Iters, batch: ref.batchSize(), seed: spec.Seed}
	var reps []replayed
	for len(reps) < replayReps {
		rep, err := replayOnce(tr, mspec, sspec)
		if err != nil {
			return nil, layerTable{}, err
		}
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].ms < reps[j].ms })
	mid := reps[len(reps)/2]
	op, replayMS, bm, bs, out, self := mid.op, mid.ms, mid.bm, mid.bs, mid.out, mid.self

	self["route"] += ref.admitMS()
	self["server"] += ref.queueMS()
	self["client"] += ref.lagMS()
	table := newLayerTable(fmt.Sprintf("the first %s job (%s, batch of %d): admit, queue and poll lag as seen + its run replayed (the engine took %.3f ms)",
		kind, ref.req.matrix, ref.batchSize(), ref.runMS()), self, "that job's observed latency", ref.totalMS)

	metrics := []metric{
		sampled("client.job_p50_ms."+kind, "ms", total),
		sampled("route.submit_ms."+kind, "ms", submit),
		sampled("server.queue_ms."+kind, "ms", queue),
		sampled("server.run_ms."+kind, "ms", run),
		single("server.replay_ms"+suffix, "ms", "lower", replayMS),
		single("solver.iters"+suffix, "count", "lower", float64(out.iters)),
		sampled("solver.self_ms"+suffix, "ms", solverSelfMS(tr, func(o int) bool { return o == op })[kind]),
		single("graph.build_ms"+suffix, "ms", "lower", bs.newMS),
	}
	metrics = append(metrics, stageMetrics(bm, suffix)...)
	metrics = append(metrics, probeMatrix(s.e, bm, peak, llc, suffix)...)
	metrics = append(metrics, probeSolve(s.e, bs).metrics(s.e.p, suffix)...)
	return metrics, table, nil
}
